"""cogsim benchmark: four seeded closed-loop workloads through the public API.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --seed N [--seconds S] [--trace 0|1]   # every workload in turn
    python3 bench/run.py --sweep [--seed N]

Workloads: market_book, social_feed, economy_agents, remote_fanout (see
bench/workloads.py for what each runs and why). Every episode runs in a
fresh child process (bench/episode.py); episodes repeat until ``--seconds``
have passed, and the figures reported are medians over the episodes.

``--trace 0`` installs no wrappers and reports the end-to-end metrics:
agent_steps_per_s, setup_s and peak_rss_mb. ``--trace 1`` alternates
untraced and traced episodes and reports the per-layer metrics of
bench/tracer.py, with ``bench.trace_overhead_share`` from the two kinds.
Each run checks every episode's outputs (bench/workloads.py) and that all of
its episodes, traced or not, wrote byte-identical events; the events digest
is printed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit status is 3 when any
workload's checks failed.

``--sweep`` is report-only: it prints microseconds per agent-step for the
market at 50, 200 and 400 agents (one day) and for social at 111 and 444
agents for 10 and 40 steps. It has no bound and is not a gated workload.

Bundles and span files go under .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("market_book", "social_feed", "economy_agents", "remote_fanout")
MIN_EPISODES = 3
MAX_RUN_S = 90.0
EPISODE_TIMEOUT_S = 80.0

END_TO_END = (("agent_steps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SWEEP = (
    ("market_book", 50, 3),
    ("market_book", 200, 3),
    ("market_book", 400, 3),
    ("social_feed", 111, 10),
    ("social_feed", 111, 40),
    ("social_feed", 444, 10),
    ("social_feed", 444, 40),
)


class EpisodeError(RuntimeError):
    """A child episode process crashed or printed no record."""


def episode(workload: str, seed: int, trace: bool, agents: int | None = None, steps: int | None = None) -> dict:
    """Run one episode in a child process and return its record."""
    out_dir = OUT / f"{workload}-{'traced' if trace else 'untraced'}"
    cmd = [
        sys.executable, str(HERE / "episode.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out_dir),
    ]
    if agents:
        cmd += ["--agents", str(agents), "--steps", str(steps)]
    # a fixed hash seed keeps dict and set layout, and so memory use, alike across processes
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S, env=env)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise EpisodeError(f"{workload} episode exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat episodes for ``seconds`` and return the result object."""
    started = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        untraced.append(episode(workload, seed, False))
        if trace:
            traced.append(episode(workload, seed, True))
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_RUN_S or (elapsed >= seconds and len(untraced) >= MIN_EPISODES):
            break
    records = untraced + traced

    problems = sorted({p for r in records for p in r["problems"]})
    digests = sorted({r["digest"] for r in records})
    if len(digests) > 1:
        problems.append(f"events differ between episodes of one seed: {', '.join(d[:16] for d in digests)}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    for r in untraced:
        r["agent_steps_per_s"] = r["answered"] / r["wall_s"]
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced and {len(traced)} traced episodes")
    print(f"events digest: {' '.join(digests)}")
    for name, unit in END_TO_END:
        print(f"  {name}: {median_of(untraced, name):.6g} {unit}")
    print(f"  failed_share: {failed / attempted:.6g} ratio ({failed} of {attempted} agent-steps)")
    for problem in problems:
        print(f"  correctness: {problem}")
    for r in records:
        if r["error"]:
            print(f"  episode failed: {r['error']}")

    if trace:
        from tracer import LAYER_METRICS

        layers = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced) for name, _, _ in LAYER_METRICS}
        untraced_wall = median_of(untraced, "wall_s")
        layers["bench.trace_overhead_share"] = (median_of(traced, "wall_s") - untraced_wall) / untraced_wall
        floor = untraced[0]["floor_s"]
        layers["protocol.floor_efficiency"] = floor / median_of(untraced, "episode_s") if floor else 0.0
        layers["output.bytes"] = median_of(untraced, "output_bytes")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        for name, unit, _ in LAYER_METRICS:
            print(f"  {name}: {layers[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": median_of(untraced, name), "unit": unit} for name, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def sweep(seed: int) -> None:
    """Report-only cost curve over agents and steps; one untraced episode per point."""
    print("workload agents steps us_per_agent_step peak_rss_mb")
    for workload, agents, steps in SWEEP:
        r = episode(workload, seed, False, agents, steps)
        print(f"{workload} {agents} {steps} {r['wall_s'] / r['answered'] * 1e6:.1f} {r['peak_rss_mb']:.0f}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cogsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="print the report-only cost curve and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cogsim" / "__init__.py").is_file():
        print(f"cogsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.sweep:
        sweep(args.seed)
        return 0
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
        except (EpisodeError, subprocess.TimeoutExpired) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            # a failed correctness check fails the whole run
            status = 3
    return status


if __name__ == "__main__":
    sys.exit(main())
