"""Run one benchmark episode in a fresh process and print its record as JSON.

    python3 bench/episode.py --workload NAME --seed N --trace 0|1 --out DIR [--agents N] [--steps N]

A process per episode makes set-up start from a cold ``import cogsim`` and
makes ``ru_maxrss`` (which only rises) the peak of this one episode.

Set-up time covers importing cogsim and building the environment, the
backends, the memory stores and the agents. The stub server of
remote_fanout is load generation: it starts before the set-up clock.
The episode clock starts when ``run_episode`` starts and stops once the
events bundle has been written with ``cli.BundleWriter`` and hashed.
Correctness checks run after both clocks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import stub_server

ROOT = Path(__file__).resolve().parent.parent


def run_once(
    workload: str,
    seed: int,
    trace: bool,
    out_dir: Path,
    agents: int | None = None,
    steps: int | None = None,
) -> dict:
    """Build and run one episode in this process; return its record."""
    # a fresh directory: rewriting a file in place can stall on an ext4 flush
    shutil.rmtree(out_dir, ignore_errors=True)
    stub = endpoint = tracer = None
    if workload == "remote_fanout":
        stub, endpoint = stub_server.start()
    try:
        t0 = time.perf_counter()
        importlib.import_module("cogsim")
        import workloads
        from cogsim import cli, protocol

        session = sleeper = None
        if trace:
            import requests
            from tracer import MODEL, Tracer

            tracer = Tracer()
            session = tracer.timed_session(requests.Session())
            sleeper = tracer.timed_sleeper()
        setup = workloads.build(workload, seed, agents, steps, endpoint, session, sleeper)
        setup_s = time.perf_counter() - t0

        if tracer is not None:
            tracer.install()
            for model in (workloads.Trader, workloads.SocialUser, workloads.Household):
                tracer.wrap_method(model, "__call__", MODEL)
        config_bytes = json.dumps(setup.config, sort_keys=True).encode()
        error = None

        t1 = time.perf_counter()
        try:
            log = protocol.run_episode(
                setup.env, setup.agents, setup.max_steps, seed=seed, parallel=setup.parallel
            )
        except Exception as exc:  # a failed episode is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            log = protocol.EpisodeLog(setup.env.events.snapshot(), {}, seed, setup.steps_done())
        episode_s = time.perf_counter() - t1
        bundle = cli.BundleWriter(out_dir, config_bytes, seed)
        bundle.write("events.jsonl", log.to_jsonl())
        bundle.finalize()
        wall_s = time.perf_counter() - t1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        if stub is not None:
            stub_server.stop(stub)

    answered = len(setup.agents) * setup.steps_done()
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": setup.scheduled,
        "answered": answered,
        "failed": setup.scheduled - answered,
        "error": error,
        "problems": setup.check(setup.env, log, setup.agents),
        "digest": bundle.files["events.jsonl"],
        "setup_s": setup_s,
        "episode_s": episode_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": sum((out_dir / name).stat().st_size for name in ("events.jsonl", "manifest.json")),
        "floor_s": workloads.floor_s(setup) if workload == "remote_fanout" else 0.0,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(answered)
        tracer.write_spans(out_dir)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--agents", type=int)
    parser.add_argument("--steps", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    record = run_once(args.workload, args.seed, bool(args.trace), Path(args.out), args.agents, args.steps)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
