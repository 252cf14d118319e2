"""The benchmark's own tests: seeded inputs, outside checks, and the tracer.

Each workload runs in this process at a small size. The same seed must give
the same events digest, another seed another digest, a traced run the same
digest as an untraced one, and a corrupted outcome must fail its check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import cogsim.protocol  # noqa: E402
import episode  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SMALL = {"market_book": (8, 3), "social_feed": (12, 6), "economy_agents": (10, 6), "remote_fanout": (4, 2)}


def small_run(tmp_path: Path, workload: str, seed: int, trace: bool = False) -> dict:
    agents, steps = SMALL[workload]
    out = tmp_path / f"{workload}-{seed}-{int(trace)}-{len(list(tmp_path.iterdir()))}"
    record = episode.run_once(workload, seed, trace, out, agents, steps)
    # the events without the closing summary line, which names the seed itself
    record["records"] = (out / "events.jsonl").read_text().splitlines()[:-1]
    return record


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_events_and_checks_pass(tmp_path, workload):
    first = small_run(tmp_path, workload, 5)
    again = small_run(tmp_path, workload, 5)
    other = small_run(tmp_path, workload, 6)
    for record in (first, again, other):
        assert record["problems"] == [] and record["failed"] == 0 and record["error"] is None
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    assert first["records"] != other["records"]


@pytest.mark.parametrize("workload", ["market_book", "economy_agents"])
def test_traced_run_matches_untraced_and_uninstalls(tmp_path, workload):
    original = cogsim.protocol.run_episode
    untraced = small_run(tmp_path, workload, 7)
    traced = small_run(tmp_path, workload, 7, trace=True)
    assert traced["digest"] == untraced["digest"]
    assert cogsim.protocol.run_episode is original
    layers = traced["layers"]
    assert layers["cognition.agent_step.calls"] == untraced["answered"]
    assert layers["protocol.run_episode.self_s"] > 0


def test_checks_catch_corrupted_outcomes():
    for name, corrupt in (
        ("market_book", lambda s: setattr(s.env.accounts[0], "cash", s.env.accounts[0].cash + 1.0)),
        ("social_feed", lambda s: s.env.state.posts.popitem()),
        ("economy_agents", lambda s: setattr(s.env.state.households[0], "wealth", 0.0)),
    ):
        agents, steps = SMALL[name]
        setup = workloads.build(name, 3, agents, steps)
        log = cogsim.protocol.run_episode(setup.env, setup.agents, setup.max_steps, seed=3)
        assert setup.check(setup.env, log, setup.agents) == []
        corrupt(setup)
        assert setup.check(setup.env, log, setup.agents), name


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
