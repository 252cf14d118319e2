import hashlib
import inspect
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cogsim.cli import WRITE_SLICE, BundleWriter, fields_sha256, load_config, main
from cogsim.envs.auction import AuctionItem
from cogsim.envs.market import MarketEnv, NewsItem
from cogsim.envs.questionnaire import Item
from cogsim.errors import ConfigError
from cogsim.protocol import Environment, read_episodes
from cogsim.runners import (
    BACKENDS,
    ENVIRONMENTS,
    HARNESSES,
    MEMORIES,
    AblationConfig,
    AgentsConfig,
    ExperimentConfig,
    MultiWorldConfig,
    ScriptedRule,
    TransferConfig,
)
from cogsim.schema import canonical_json

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
COMMANDS = (*HARNESSES, "score")
AUCTION_ITEMS = [{"name": "lamp", "starting_price": 10.0, "true_value": 12.0, "estimated_value": 15.0}]


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def minimal_market_config(out_dir, trials=1, **extra):
    body = {
        "environment": {"kind": "market", "agents": 3, "days": 1},
        "agents": {"memory": {"kind": "buffer", "capacity": 3}},
        "backend": {"kind": "scripted", "default_content": json.dumps({"orders": []})},
        "trials": trials,
        "out": str(out_dir),
    }
    body.update(extra)
    return body


# --- load_config ------------------------------------------------------------------


def test_load_config_market_roster(tmp_path):
    path = write_config(tmp_path, {"environment": {"kind": "market", "agents": 50, "days": 10}})
    config = load_config(path)
    assert config.environment["agents"] == 50
    assert config.environment["days"] == 10
    assert config.seed == 0  # documented default
    assert config.trials == 1


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_config(tmp_path, {"environment": {"kind": "market"}, "foo": 1})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "foo" in str(err.value)


def test_unknown_section_key_names_dotted_path(tmp_path):
    path = write_config(
        tmp_path, {"environment": {"kind": "market"}, "agents": {"persona_text": "x", "oops": 1}}
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "agents.oops"


def test_missing_environment_rejected(tmp_path, capsys):
    ablation = {"headline": "h", "summary": "s", "news": []}
    path = write_config(tmp_path, {"seed": 3, "ablation": ablation, "out": str(tmp_path / "out")})
    for command in ("run", "trials", "ablation"):  # transfer and multiworld do not read the section
        assert main([command, "--config", str(path)]) == 1
        assert "environment" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_top_level_array_exits_one(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert main(["run", "--config", str(path)]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


# --- main -------------------------------------------------------------------------


def test_run_happy_path_writes_bundle(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    assert main(["run", "--config", str(config)]) == 0
    for name in ("events.jsonl", "metrics.csv", "summary.txt", "manifest.json"):
        assert (out / name).exists()


def test_missing_config_flag_exits_one(capsys):
    assert main(["run"]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err.lower()


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate", "--config", "x.json"]) == 1


def test_config_error_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, {"environment": {"kind": "market"}, "foo": 1})
    assert main(["run", "--config", str(config)]) == 1
    assert "foo" in capsys.readouterr().err


def test_runtime_failure_exits_two(tmp_path, capsys):
    # valid config shape, but the scripted backend emits junk the schema rejects
    out = tmp_path / "out"
    body = minimal_market_config(out)
    body["backend"] = {"kind": "scripted", "default_content": "not json at all"}
    config = write_config(tmp_path, body)
    assert main(["run", "--config", str(config)]) == 2
    assert "failure" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError, ZeroDivisionError])
def test_an_exception_of_any_class_exits_two_and_writes_no_events(error, tmp_path, monkeypatch, capsys):
    def step(self, actions):
        raise error("boom")

    monkeypatch.setattr(MarketEnv, "step", step)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, minimal_market_config(out)))]) == 2
    assert f"runtime failure: {error.__name__}" in capsys.readouterr().err
    assert not (out / "events.jsonl").exists()


def test_default_seed_recorded_in_manifest(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    main(["run", "--config", str(config)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["code_version"]


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    main(["run", "--config", str(config), "--seed", "9"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


def test_manifest_inventories_every_file_with_matching_hash(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    main(["run", "--config", str(config)])
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {entry["name"]: entry["sha256"] for entry in manifest["files"]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(listed) == on_disk
    for name, digest in listed.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "text",
    [
        "a" * (2 * WRITE_SLICE + 5),
        "x" * (WRITE_SLICE - 1) + "\U0001f600\u00e9" + "\u20ac" * WRITE_SLICE + "\U0001d11e",
        "\u00fc" * WRITE_SLICE + "\U0001f600",
        "",
    ],
    ids=["ascii", "astral-on-boundary", "exact-slices", "empty"],
)
def test_bundle_writer_streams_utf8_across_slices(text, tmp_path):
    bundle = BundleWriter(tmp_path, b"{}", 0)
    bundle.write("text.txt", text)
    data = (tmp_path / "text.txt").read_bytes()
    assert data == text.encode("utf-8")
    assert bundle.files["text.txt"] == hashlib.sha256(data).hexdigest()


def test_bundle_writer_leaves_no_file_for_a_lone_surrogate(tmp_path):
    bundle = BundleWriter(tmp_path, b"{}", 0)
    with pytest.raises(UnicodeEncodeError):
        bundle.write("bad.txt", "a" * (WRITE_SLICE + 10) + "\ud800b")
    assert not (tmp_path / "bad.txt").exists() and "bad.txt" not in bundle.files


def test_rerun_byte_identical_events_and_metrics(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config_a = write_config(tmp_path, minimal_market_config(out_a), name="a.json")
    config_b = write_config(tmp_path, minimal_market_config(out_b), name="b.json")
    main(["run", "--config", str(config_a)])
    main(["run", "--config", str(config_b)])
    assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_trials_csv_mean_stddev_rows(tmp_path):
    out = tmp_path / "out"
    body = minimal_market_config(out, trials=3)
    config = write_config(tmp_path, body)
    assert main(["trials", "--config", str(config)]) == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("stddev,")
    assert len(lines) == 1 + 3 + 2


def test_trials_flag_overrides(tmp_path):
    out = tmp_path / "out"
    body = minimal_market_config(out, trials=1)
    config = write_config(tmp_path, body)
    main(["trials", "--config", str(config), "--trials", "2"])
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 + 2


def test_score_recomputes_metrics_from_events(tmp_path):
    # a metrics.csv the manifest vouches for, as a bundle from other code would
    # hold, is rewritten from the events
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    main(["run", "--config", str(config)])
    original_metrics = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").write_bytes(b"tampered\n")
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["files"]:
        if entry["name"] == "metrics.csv":
            entry["sha256"] = hashlib.sha256(b"tampered\n").hexdigest()
    (out / "manifest.json").write_text(json.dumps(reseal(manifest)))
    assert main(["score", "--config", str(config)]) == 0
    assert (out / "metrics.csv").read_bytes() == original_metrics


def reseal(manifest):
    """``manifest`` with ``fields_sha256`` recomputed over its other fields, as its writer would."""
    fields = {key: value for key, value in manifest.items() if key != "fields_sha256"}
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return {**fields, "fields_sha256": digest}


def bundle_bytes(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def assert_score_reproduces(out, config, *flags):
    """``score`` on the bundle in ``out`` exits 0 and rewrites events.jsonl,
    metrics.csv and summary.txt with their bytes; the manifest keeps its command."""
    before = bundle_bytes(out)
    assert main(["score", "--config", str(config), "--out", str(out), *flags]) == 0
    for name in ("events.jsonl", "metrics.csv", "summary.txt"):
        assert (out / name).read_bytes() == before[name], name
    manifest, old = (json.loads(m) for m in ((out / "manifest.json").read_bytes(), before["manifest.json"]))
    for key in ("command", "episodes", "failures", "seed", "config_sha256", "files"):
        assert manifest[key] == old[key], key


def test_score_rederives_trials_with_a_failed_trial(tmp_path):
    # trial seeds come from the episode tags, not from --seed or --trials
    out = tmp_path / "out"
    body = minimal_market_config(out, trials=3, environment={"kind": "economy", "agents": 2, "months": 2})
    body["backend"] = {
        "kind": "scripted",
        # a household of seed 5 answers with a wrong field, and so does the parse pass over that answer
        "rules": [{"contains": needle, "content": json.dumps({"work": 1})} for needle in ("skill 1.86", '{"work": 1}')],
        "default_content": json.dumps({"work_propensity": 0.7, "consumption_propensity": 0.4}),
    }
    config = write_config(tmp_path, body)
    assert main(["trials", "--config", str(config), "--seed", "4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["episodes"] == ["trial/4", "trial/6"]
    error = manifest["failures"]["trial/5"]
    assert error.startswith("ParseFailure: ")
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("trials: 3 runs of economy\n  seeds: 4..6\n  failures: 1\n")
    assert summary.endswith(f"failed trials:\n  seed 5: {error}\n")
    assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2 + 2
    assert_score_reproduces(out, config, "--trials", "1")


def test_trials_that_all_fail_exit_two_and_write_no_bundle(tmp_path, capsys):
    out = tmp_path / "out"
    body = minimal_market_config(out, trials=3, environment={"kind": "economy", "agents": 2, "months": 2})
    body["backend"]["default_content"] = json.dumps({"work": 1, "consume": 0})
    assert main(["trials", "--config", str(write_config(tmp_path, body))]) == 2
    err = capsys.readouterr().err
    assert "no trial succeeded" in err
    assert all(f"seed {seed}: ParseFailure" in err for seed in (0, 1, 2))
    assert not (out / "manifest.json").exists()


RUN_OF_EACH_KIND = {
    "market": (
        {"kind": "market", "agents": 3, "days": 2},
        [{"contains": "style aggressive", "content": json.dumps({"orders": [{"symbol": "A", "side": "sell", "limit_price": 29.0, "quantity": 2}]})}],
        {"orders": [{"symbol": "A", "side": "buy", "limit_price": 31.5, "quantity": 1}]},
    ),
    "economy": (
        {"kind": "economy", "agents": 3, "months": 14, "annual_tax_rates": [0.2, 0.05], "interest_rate": 0.07},
        [{"contains": "(last month: employed)", "content": json.dumps({"work_propensity": 0.2, "consumption_propensity": 0.9})}],
        {"work_propensity": 0.9, "consumption_propensity": 0.1},
    ),
    "social": (
        {"kind": "social", "agents": 4, "seed_post": "hello"},
        [{"contains": "user 2", "content": json.dumps({"kind": "create_comment", "content": "hi", "target_post": 1})}],
        {"kind": "like_post", "target_post": 1},
    ),
    "auction": (
        {"kind": "auction", "agents": 3, "budget": 30, "items": [*AUCTION_ITEMS, {**AUCTION_ITEMS[0], "name": "vase"}]},
        [{"contains": "(round 1)", "content": json.dumps({"bid": 11.5})}],
        {"bid": None},
    ),
    "questionnaire": (
        {"kind": "questionnaire", "agents": 2, "items": "tests/data/bias_bank.jsonl"},
        [{"contains": "percentage", "content": json.dumps({"answer": 40})}],
        {"answer": 5},
    ),
}


@pytest.mark.parametrize("kind", sorted(ENVIRONMENTS))
def test_score_rederives_a_run_of_each_kind(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    environment, rules, default = RUN_OF_EACH_KIND[kind]
    body = {
        "environment": environment,
        "backend": {"kind": "scripted", "rules": rules, "default_content": json.dumps(default)},
        "max_steps": 6 if kind == "social" else None,
        "out": str(tmp_path / "out"),
    }
    config = write_config(tmp_path, body)
    assert main(["run", "--config", str(config)]) == 0
    assert_score_reproduces(tmp_path / "out", config)


def test_auction_run_records_each_bidders_clamped_priorities(tmp_path):
    out = tmp_path / "out"
    answer = {"bid": None, "priorities": {"lamp": 80, "vase": 140, "gone": 5}}
    body = {
        "environment": {"kind": "auction", "items": [*AUCTION_ITEMS, {**AUCTION_ITEMS[0], "name": "vase"}]},
        "backend": {"kind": "scripted", "default_content": json.dumps(answer)},
        "out": str(out),
    }
    assert main(["run", "--config", str(write_config(tmp_path, body))]) == 0
    events = (out / "events.jsonl").read_text()
    records = [json.loads(line) for line in events.splitlines()]
    logged = [(r["current_time"], r["user_id"], r["info"]) for r in records if r.get("action") == "priorities"]
    # every bidder passes, so the lamp closes unsold after round 1 and the vase after the next
    assert logged == [(0, aid, {"lamp": 80.0, "vase": 100.0}) for aid in range(3)] + [
        (1, aid, {"vase": 100.0}) for aid in range(3)
    ]
    assert '"lamp":80.0' in events and '"vase":100.0' in events
    assert "gone" not in events


def test_auction_run_clamps_priority_scores_past_the_float_range(tmp_path):
    out = tmp_path / "out"
    answer = {"bid": None, "priorities": {"lamp": 10**400, "vase": -(10**400)}}
    body = {
        "environment": {"kind": "auction", "items": [*AUCTION_ITEMS, {**AUCTION_ITEMS[0], "name": "vase"}]},
        "backend": {"kind": "scripted", "default_content": json.dumps(answer)},
        "out": str(out),
    }
    assert main(["run", "--config", str(write_config(tmp_path, body))]) == 0
    records = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    logged = [r["info"] for r in records if r.get("action") == "priorities"]
    assert logged[:3] == [{"lamp": 100.0, "vase": 0.0}] * 3


def test_market_run_refuses_a_buy_order_whose_cost_passes_the_float_range(tmp_path):
    out = tmp_path / "out"
    order = {"symbol": "A", "side": "buy", "limit_price": 100, "quantity": 10**307}
    body = {
        "environment": {"kind": "market", "agents": 2, "days": 1},
        "backend": {"kind": "scripted", "default_content": json.dumps({"orders": [order]})},
        "out": str(out),
    }
    assert main(["run", "--config", str(write_config(tmp_path, body))]) == 0
    records = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    reasons = [r["info"]["reason"] for r in records if r.get("action") == "reject_order"]
    assert reasons == ["insufficient cash"] * 6  # two traders, three sessions
    assert not any(r.get("action") == "submit_order" for r in records)


RATE = st.floats(0.0, 0.3)
PROPENSITIES = st.fixed_dictionaries({"work_propensity": st.floats(0.0, 1.0), "consumption_propensity": st.floats(0.0, 1.0)})
PRICE = st.floats(0.5, 40.0) | st.integers(1, 40)


@st.composite
def economy_run(draw):
    """An economy section, and scripted propensities that change with employment."""
    environment = {
        "kind": "economy",
        "agents": draw(st.integers(1, 4)),
        "months": draw(st.integers(0, 30)),
        "interest_rate": draw(RATE),
        "tax_rate": draw(RATE),
        "annual_tax_rates": draw(st.none() | st.lists(RATE, max_size=3)),
    }
    return environment, [{"contains": "(last month: employed)", "content": json.dumps(draw(PROPENSITIES))}], draw(PROPENSITIES)


@st.composite
def auction_run(draw):
    """An auction section, and scripted bids in the first two rounds of each item."""
    items = []
    for i in range(draw(st.integers(1, 3))):
        true_value = draw(PRICE)
        estimate = true_value + draw(st.floats(0.0, 10.0))
        items.append({"name": f"lot{i}", "starting_price": draw(PRICE), "true_value": true_value, "estimated_value": estimate})
    rules = [{"contains": f"(round {n})", "content": json.dumps({"bid": draw(PRICE)})} for n in (1, 2)]
    budget = draw(st.floats(1.0, 100.0) | st.integers(1, 100))
    return {"kind": "auction", "agents": draw(st.integers(2, 3)), "budget": budget, "items": items}, rules, {"bid": None}


@pytest.mark.parametrize("runs", [economy_run(), auction_run()], ids=["economy", "auction"])
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_score_reproduces_random_economy_and_auction_runs(runs, data):
    environment, rules, default = data.draw(runs)
    body = {"environment": environment, "backend": {"kind": "scripted", "rules": rules, "default_content": json.dumps(default)}}
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "config.json"
        config.write_text(json.dumps(body))
        out = Path(scratch) / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert_score_reproduces(out, config)


def test_score_refuses_a_bundle_whose_files_do_not_match_the_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out, environment={"kind": "market", "agents": 3, "days": 2}))
    main(["run", "--config", str(config)])
    events = (out / "events.jsonl").read_text()
    (out / "events.jsonl").write_text(events.replace('"volume":0', '"volume":7', 1))
    before = bundle_bytes(out)
    assert before["events.jsonl"].decode() != events
    assert main(["score", "--config", str(config)]) == 1
    assert "events.jsonl does not match its sha256" in capsys.readouterr().err
    assert bundle_bytes(out) == before
    (out / "events.jsonl").unlink()
    assert main(["score", "--config", str(config)]) == 1
    assert "events.jsonl does not match its sha256" in capsys.readouterr().err


def test_score_refuses_another_config(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(write_config(tmp_path, minimal_market_config(out), name="two.json"))])
    before = bundle_bytes(out)
    other = write_config(tmp_path, minimal_market_config(out, environment={"kind": "market", "agents": 3, "days": 3}))
    assert main(["score", "--config", str(other)]) == 1
    assert "config_sha256 differs" in capsys.readouterr().err
    assert bundle_bytes(out) == before


def test_score_refuses_an_economy_bundle_whose_months_carry_no_policy(tmp_path, capsys):
    # a bundle written before month_close records carried the rates they ran under
    out = tmp_path / "out"
    body = minimal_market_config(out, environment={"kind": "economy", "agents": 2, "months": 3})
    body["backend"]["default_content"] = json.dumps({"work_propensity": 0.9, "consumption_propensity": 0.2})
    config = write_config(tmp_path, body)
    assert main(["run", "--config", str(config)]) == 0
    lines = []
    for line in (out / "events.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record.get("action") == "month_close":
            del record["info"]["interest_rate"], record["info"]["tax_rate"]
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    events = "".join(lines).encode()
    (out / "events.jsonl").write_bytes(events)
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["files"]:
        if entry["name"] == "events.jsonl":
            entry["sha256"] = hashlib.sha256(events).hexdigest()
    manifest["fields_sha256"] = fields_sha256(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = bundle_bytes(out)
    assert b"interest_rate" not in before["events.jsonl"] and before["events.jsonl"].count(b"month_close") == 3
    assert main(["score", "--config", str(config)]) == 2
    assert "runtime failure" in capsys.readouterr().err
    assert bundle_bytes(out) == before


def test_economy_run_with_constant_propensities_reports_undefined_fits(tmp_path):
    out = tmp_path / "out"
    body = minimal_market_config(out)
    body["environment"] = {"kind": "economy", "agents": 2, "months": 3}
    body["backend"]["default_content"] = json.dumps({"work_propensity": 0.5, "consumption_propensity": 0.5})
    config = write_config(tmp_path, body)
    assert main(["run", "--config", str(config)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "Phillips curve (x=unemployment, y=inflation):\n  undefined (all x values are equal)\n" in summary
    assert "Okun's law (x=delta unemployment, y=gdp growth):\n  undefined (all x values are equal)\n" in summary


def test_market_run_with_zero_days_runs_no_session(tmp_path):
    out = tmp_path / "out"
    body = minimal_market_config(out)
    body["environment"]["days"] = 0
    config = write_config(tmp_path, body)
    assert main(["run", "--config", str(config)]) == 0
    assert "  steps: 0\n" in (out / "summary.txt").read_text()
    actions = [json.loads(line).get("action") for line in (out / "events.jsonl").read_text().splitlines()]
    assert "clear" not in actions


@pytest.mark.parametrize("command", ["run", "trials"])
def test_social_run_needs_max_steps(command, tmp_path, capsys):
    out = tmp_path / "out"
    body = minimal_market_config(out, environment={"kind": "social", "agents": 3, "seed_post": "hello"})
    body["backend"]["default_content"] = json.dumps({"kind": "do_nothing"})
    assert main([command, "--config", str(write_config(tmp_path, body))]) == 1
    assert "max_steps:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    body["max_steps"] = 2
    assert main([command, "--config", str(write_config(tmp_path, body))]) == 0
    summary = json.loads((out / "events.jsonl").read_text().splitlines()[-1])["summary"]
    assert summary["steps_executed"] == 2


def test_transfer_from_social_needs_source_steps(tmp_path, capsys):
    out = tmp_path / "out"
    item = {"item_id": "q1", "subscale": "s", "text": "How sure are you?", "scale": {"kind": "likert", "points": 7}}
    transfer = {"source": {"kind": "social", "agents": 2}, "items": [item]}
    body = minimal_market_config(out, transfer=transfer)
    assert main(["transfer", "--config", str(write_config(tmp_path, body))]) == 1
    assert "transfer.source_steps:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


QUESTION = {"item_id": "q1", "subscale": "s", "text": "How sure are you?"}
SCALED = {**QUESTION, "scale": {"kind": "likert", "points": 7}}


@pytest.mark.parametrize(
    "section,field",
    [
        ({"environment": {"kind": "market", "agents": 3, "bogus": 1}}, "environment.bogus"),
        ({"environment": {"kind": "economy", "agents": 3, "bogus": 1}}, "environment.bogus"),
        ({"environment": {"kind": "social", "agents": 3, "bogus": 1}}, "environment.bogus"),
        ({"environment": {"kind": "auction", "items": AUCTION_ITEMS, "bogus": 1}}, "environment.bogus"),
        ({"environment": {"kind": "questionnaire", "items": [], "bogus": 1}}, "environment.bogus"),
        ({"environment": {"kind": "questionnaire", "items": "no/such/items.jsonl"}}, "environment.items"),
        ({"environment": {"kind": "questionnaire", "items": [QUESTION]}}, "environment.items"),
        (
            {"environment": {"kind": "questionnaire", "items": [{**QUESTION, "scale": {"kind": "likert", "points": 1}}]}},
            "environment.items",
        ),
        ({"transfer": {"source": {"kind": "market", "bogus": 1}, "items": []}}, "transfer.source.bogus"),
        (
            {"multiworld": {"environments": [{"kind": "market", "bogus": 1}, {"kind": "social"}]}},
            "multiworld.environments[0].bogus",
        ),
        ({"agents": []}, "agents"),
        ({"ablation": 3}, "ablation"),
        ({"transfer": []}, "transfer"),
        ({"multiworld": "ab"}, "multiworld"),
        ({"runner": "run"}, "runner"),
        ({"agents": {"memory": {"kind": "vector"}}}, "agents.memory.kind"),
        ({"agents": {"memory": {"kind": "buffer"}}}, "agents.memory.capacity"),
        ({"agents": {"memory": {"kind": "buffer", "capacity": 3, "window": 5}}}, "agents.memory.window"),
        ({"agents": {"role_tag": "trader"}}, "agents.role_tag"),
        ({"backend": {"kind": "remote"}}, "backend.endpoint"),
        ({"backend": {"kind": "remote", "endpoint": "ftp://127.0.0.1:9/v1"}}, "backend.endpoint"),
        ({"backend": {"kind": "replay"}}, "backend.transcript_path"),
        ({"backend": {"kind": "replay", "transcript_path": "no/such/transcript.jsonl"}}, "backend.transcript_path"),
        ({"backend": {"kind": "scripted", "endpoint": "http://127.0.0.1:9/v1"}}, "backend.endpoint"),
        ({"backend": {"kind": "psychic"}}, "backend.kind"),
        ({"trials": True}, "trials"),
        ({"seed": False}, "seed"),
        ({"max_steps": True}, "max_steps"),
        ({"agents": {"extra_directives": "abc"}}, "agents.extra_directives"),
        ({"agents": {"extra_directives": ["a", 3]}}, "agents.extra_directives[1]"),
        ({"agents": {"memory": "x"}}, "agents.memory"),
        ({"multiworld": {"environments": 3}}, "multiworld.environments"),
        ({"backend": {"kind": "scripted", "rules": [{"content": "{}"}]}}, "backend.rules[0].contains"),
        (
            {"backend": {"kind": "scripted", "rules": [{"contains": "a", "content": "{}"}, {"contains": "b"}]}},
            "backend.rules[1].content",
        ),
        ({"backend": {"kind": "scripted", "default_content": 5}}, "backend.default_content"),
        ({"backend": {"kind": "scripted", "default_content": ""}}, "backend.default_content"),
        (
            {"environment": {"kind": "market", "agents": 3, "days": 1, "events_by_day": {"1": "earnings due"}}},
            "environment.events_by_day",
        ),
        (
            {"environment": {"kind": "market", "agents": 3, "days": 1, "start_date": "2025-04-01"}},
            "environment.start_date",
        ),
        ({"environment": {"kind": "market", "agents": -2, "days": 1}}, "environment.agents"),
        ({"environment": {"kind": "market", "agents": 0, "days": 1}}, "environment.agents"),
        ({"environment": {"kind": "market", "agents": True, "days": 1}}, "environment.agents"),
        ({"environment": {"kind": "social", "agents": 3, "feed_cap": -1}}, "environment.feed_cap"),
        ({"transfer": {"source": {"kind": "market", "agents": 0}, "items": []}}, "transfer.source.agents"),
        (
            {"multiworld": {"environments": [{"kind": "market"}, {"kind": "social", "feed_cap": -1}]}},
            "multiworld.environments[1].feed_cap",
        ),
        (
            {"environment": {"kind": "auction", "items": [{k: v for k, v in AUCTION_ITEMS[0].items() if k != "true_value"}]}},
            "environment.items[0].true_value",
        ),
        ({"environment": {"kind": "market", "agents": 3, "initial_prices": {"A": 30.0}}}, "environment.initial_prices"),
        ({"transfer": {"source": {"kind": "market"}, "items": [SCALED], "carry_memory": "no"}}, "transfer.carry_memory"),
        ({"agents": {"max_parse_retries": -3}}, "agents.max_parse_retries"),
        ({"environment": {"kind": "market", "agents": 3, "days": -2}}, "environment.days"),
        ({"transfer": {"source": {"kind": "market"}, "items": [SCALED], "phase2_seed": "7"}}, "transfer.phase2_seed"),
        ({"transfer": {"source": {"kind": "market"}, "items": [SCALED], "source_steps": "3"}}, "transfer.source_steps"),
        ({"agents": {"max_tool_rounds": "x"}}, "agents.max_tool_rounds"),
        ({"agents": {"memory": {"kind": "buffer", "capacity": "3"}}}, "agents.memory.capacity"),
        ({"environment": {"kind": "market", "agents": 3, "days": "2"}}, "environment.days"),
        ({"ablation": {"headline": "h", "summary": ["x"], "news": []}}, "ablation.summary"),
        (
            {"backend": {"kind": "replay", "transcript_path": str(CONFIGS / "bias_items.jsonl"), "strict": False}},
            "backend.strict",
        ),
        ({"environment": {"kind": "economy", "agents": 3, "initial_price": 0.0}}, "environment.initial_price"),
        (
            {"environment": {"kind": "market", "agents": 3, "initial_prices": {"A": 0.0, "B": 45.0}}},
            "environment.initial_prices",
        ),
        ({"environment": {"kind": "social", "agents": 3, "influencer": 7}}, "environment.influencer"),
        ({"environment": {"kind": "auction", "items": AUCTION_ITEMS, "min_increment": 0.0}}, "environment.min_increment"),
        ({"environment": {"agents": 3}}, "environment.kind"),
        ({"environment": {"kind": "market", "agents": 3, "initial_prices": 5}}, "environment.initial_prices"),
        ({"backend": {"kind": "scripted", "rules": [{"contains": "", "content": "x"}]}}, "backend.rules[0].contains"),
        ({"backend": {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1", "in_flight_limit": 0}}, "backend.in_flight_limit"),
        (
            {"environment": {"kind": "auction", "items": [{**AUCTION_ITEMS[0], "starting_price": 0}]}},
            "environment.items[0]",
        ),
        (
            {"environment": {"kind": "questionnaire", "items": [{**QUESTION, "scale": {"kind": "stars", "points": 7}}]}},
            "environment.items[0].scale",
        ),
        ({"environment": {"kind": "questionnaire", "items": [{**SCALED, "variant": "sideways"}]}}, "environment.items[0]"),
        ({"environment": {"kind": "questionnaire", "items": [{**SCALED, "variant": "control"}]}}, "environment.items[0]"),
    ],
    ids=[
        "market", "economy", "social", "auction", "questionnaire", "questionnaire-missing-items",
        "questionnaire-item-without-scale", "questionnaire-one-point-scale", "transfer-source", "multiworld-env",
        "agents-list", "ablation-int", "transfer-list", "multiworld-string", "runner", "memory-kind", "memory-missing-capacity",
        "memory-window-on-buffer", "role-tag", "remote-missing-endpoint", "remote-endpoint-not-http",
        "replay-missing-transcript-path",
        "replay-missing-transcript-file", "endpoint-on-scripted", "backend-kind", "trials-bool", "seed-bool",
        "max-steps-bool", "directives-string", "directives-non-string", "memory-string", "multiworld-environments-int",
        "rule-without-contains", "rule-without-content", "default-content-int", "default-content-empty", "events-by-day",
        "start-date", "negative-agents", "zero-agents", "bool-agents", "negative-feed-cap", "transfer-source-zero-agents",
        "multiworld-negative-feed-cap", "auction-item-without-true-value", "market-prices-missing-a-symbol",
        "carry-memory-string", "negative-parse-retries", "negative-days", "phase2-seed-string", "source-steps-string",
        "tool-rounds-string", "memory-capacity-string", "days-string", "ablation-summary-list", "replay-strict",
        "zero-initial-price", "zero-initial-prices", "influencer-outside-roster", "zero-min-increment",
        "environment-without-kind", "initial-prices-number", "rule-empty-contains", "zero-in-flight-limit",
        "auction-zero-starting-price", "unknown-scale-kind", "unknown-variant", "control-item-without-pair-id",
    ],
)
def test_strict_environment_and_memory_keys_exit_one(section, field, tmp_path, capsys):
    out = tmp_path / "out"
    body = minimal_market_config(out, **section)
    config = write_config(tmp_path, body)
    assert main(["run", "--config", str(config)]) == 1
    assert f"{field}:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "line",
    ['{"fingerprint": "x"}', '{"fingerprint": "x", "result": 5}', "[1]", "not json", '{"fingerprint": "x", "result": {"content": 5}}'],
    ids=["no-result", "result-not-an-object", "line-not-an-object", "line-not-json", "content-not-a-string"],
)
def test_a_malformed_replay_transcript_exits_one_naming_its_line(line, tmp_path, capsys):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(line + "\n")
    out = tmp_path / "out"
    body = minimal_market_config(out, backend={"kind": "replay", "transcript_path": str(transcript)})
    assert main(["run", "--config", str(write_config(tmp_path, body))]) == 1
    err = capsys.readouterr().err
    assert "backend.transcript_path:" in err and "line 1" in err
    assert not (out / "manifest.json").exists()


def test_ablation_news_entry_without_headline_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    ablation = {"headline": "h", "summary": "s", "news": [{"date": "2025-04-02"}]}
    config = write_config(tmp_path, minimal_market_config(out, ablation=ablation))
    assert main(["ablation", "--config", str(config)]) == 1
    assert "ablation.news:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


MARKET_AND_SOCIAL = [{"kind": "market", "agents": 3, "days": 1}, {"kind": "social", "agents": 3}]


@pytest.mark.parametrize(
    "multiworld,field",
    [
        ({"environments": MARKET_AND_SOCIAL[:1]}, "multiworld.environments"),
        ({"environments": MARKET_AND_SOCIAL, "cycles": -1}, "multiworld.cycles"),
    ],
    ids=["one-environment", "negative-cycles"],
)
def test_rejected_multiworld_values_exit_one(multiworld, field, tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out, multiworld=multiworld))
    assert main(["multiworld", "--config", str(config)]) == 1
    assert f"{field}:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_ablation_level_outside_one_to_four_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    ablation = {"headline": "h", "summary": "s", "news": [], "settings": [1, 5]}
    config = write_config(tmp_path, minimal_market_config(out, ablation=ablation))
    assert main(["ablation", "--config", str(config)]) == 1
    assert "ablation.settings:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_ablation_repeated_level_exits_one(tmp_path, capsys):
    # the table groups episodes by level, so a repeated level would merge two rows
    out = tmp_path / "out"
    ablation = {"headline": "h", "summary": "s", "news": [], "settings": [1, 2, 1]}
    config = write_config(tmp_path, minimal_market_config(out, ablation=ablation))
    assert main(["ablation", "--config", str(config)]) == 1
    assert "ablation.settings: each level may be listed once" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_ablation_on_a_non_market_environment_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    ablation = {"headline": "h", "summary": "s", "news": []}
    body = minimal_market_config(out, ablation=ablation, environment={"kind": "economy", "agents": 2, "months": 1})
    assert main(["ablation", "--config", str(write_config(tmp_path, body))]) == 1
    assert "environment.kind: ablation runs on a market environment" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["trials", "ablation"])
def test_zero_trials_flag_exits_one(command, tmp_path, capsys):
    out = tmp_path / "out"
    ablation = {"headline": "h", "summary": "s", "news": []}
    config = write_config(tmp_path, minimal_market_config(out, ablation=ablation))
    assert main([command, "--config", str(config), "--trials", "0"]) == 1
    assert "trials:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_backend_flag_rejects_unknown_choice(tmp_path, capsys):
    config = write_config(tmp_path, minimal_market_config(tmp_path / "o"))
    assert main(["run", "--config", str(config), "--backend", "psychic"]) == 1


# --- shipped demo configs ------------------------------------------------------------


# sha256 of (events.jsonl, metrics.csv) for each shipped config at its own
# seed and trial count; a refactor that changes either changes behaviour
SHIPPED_DIGESTS = {
    "market_small.json": (
        "3cb9606680602aec17050fe542e5e2d5711986e1ad8bf5922145310dbe8190e3",
        "10724011acbc5a729373e21a2c6ae688849d0a6e13e026eea54fb73509f1de77",
    ),
    "trials_market.json": (
        "311eb1536af410cf4df4595014efb0b552c9bb6d7eb97cc5eb1253e30849e6e5",
        "e076a02c2417554359810a5511c4f7351428756be8d3d5b1c1a807b14ba9a52b",
    ),
    "multiworld_market_social.json": (
        "f19cc9ce937c39cafe22012c77f7c771728bfed4f331269b6f4addd64a8f3b2b",
        "6c423b2ae7f21425e431b52a1e5168dbd15b8ef0d4ed83c9035dd58fc34db832",
    ),
    "transfer_market_bias.json": (
        "aaf16a76bf40d0fd9f0eb2af13485546d96d01c2d7de188bac45e98e1d916525",
        "5c4f66bb36f35a49ee7e6eaaa56e5888dc7b4452e677e16320b13c767290ab55",
    ),
    "ablation_tariff.json": (
        "bb44b3cfba23a60fefd617077cd9a12bfaa694ce530b7c5eaeeea0e756dc8958",
        "e0fe2578618c0a72008b3c6ddab4b39d28863548efbbbb04e553dd23fa97e687",
    ),
    "trials_economy.json": (
        "2189d1a0336bf7fb5e6a61d8b0f1e49f4241e3859ae5e19643311b6cc7108888",
        "61d4a5421331e4f5da5d62bee70d0e64bded9721445b8cdfbbacf4ab3ca72dca",
    ),
}


@pytest.mark.parametrize(
    "name,command",
    [
        ("market_small.json", "run"),
        ("trials_market.json", "trials"),
        ("multiworld_market_social.json", "multiworld"),
        ("transfer_market_bias.json", "transfer"),
        ("ablation_tariff.json", "ablation"),
        ("trials_economy.json", "trials"),
    ],
)
def test_shipped_configs_run_clean(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(CONFIGS.parent)
    out = tmp_path / name.replace(".json", "")
    assert main([command, "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("events.jsonl", "metrics.csv"))
    assert digests == SHIPPED_DIGESTS[name]


@pytest.mark.parametrize(
    "environment,backend,digest",
    [
        (
            {"kind": "economy", "agents": 4, "months": 14, "annual_tax_rates": [0.1, 0.15]},
            {
                "kind": "scripted",
                "rules": [
                    {
                        "contains": "(last month: employed)",
                        "content": json.dumps({"work_propensity": 0.3, "consumption_propensity": 0.6}),
                    }
                ],
                "default_content": json.dumps({"work_propensity": 0.8, "consumption_propensity": 0.2}),
            },
            "0a07698bdff309385d45f5fd2db83c3b17a5098faeafccba7c72f4128a0668f8",
        ),
        (
            {"kind": "auction", "items": AUCTION_ITEMS},
            {
                "kind": "scripted",
                "rules": [{"contains": "(round 1)", "content": json.dumps({"bid": 11.5})}],
                "default_content": json.dumps({"bid": None}),
            },
            "01d9664aa2d88f078697aa514659834f7d64ca5e761572bdeea3601fb21836e1",
        ),
    ],
    ids=["economy-indicators", "auction-metric-value"],
)
def test_metrics_bytes_of_unshipped_kinds_are_pinned(environment, backend, digest, tmp_path):
    """The two table formats no shipped config writes: an economy's indicators and a metric,value table."""
    out = tmp_path / "out"
    config = write_config(tmp_path, {"environment": environment, "backend": backend, "out": str(out)})
    assert main(["run", "--config", str(config)]) == 0
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == digest


def test_shipped_ablation_config_runs_clean(tmp_path, monkeypatch):
    monkeypatch.chdir(CONFIGS.parent)
    out = tmp_path / "ablation"
    code = main(["ablation", "--config", str(CONFIGS / "ablation_tariff.json"), "--out", str(out), "--trials", "1"])
    assert code == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "setting,stock_A,stock_B,delta_A,delta_B"
    assert len(lines) == 5


def metrics_rows(out):
    header, *lines = (out / "metrics.csv").read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_shipped_ablation_tilts_the_book_toward_selling_level_by_level(tmp_path, monkeypatch):
    # the headline, then the research note, each lower the buy/sell ratio; the
    # news tool adds nothing offline, since no scripted rule calls a tool
    rows = metrics_rows(run_shipped("ablation_tariff.json", "ablation", tmp_path, monkeypatch))
    assert [row["setting"] for row in rows] == ["1", "2", "3", "4"]
    for stock in "AB":
        ratios = [float(row[f"stock_{stock}"]) for row in rows]
        assert ratios[0] > ratios[1] > ratios[2] >= ratios[3]
        assert all(ratio < 1 for ratio in ratios[1:])
        assert all(float(row[f"delta_{stock}"]) < 0 for row in rows[1:3])


def test_shipped_economy_trials_spread_across_seeds(tmp_path, monkeypatch):
    rows = metrics_rows(run_shipped("trials_economy.json", "trials", tmp_path, monkeypatch))
    assert [row["seed"] for row in rows] == ["0", "1", "2", "mean", "stddev"]
    (stddev,) = (row for row in rows if row["seed"] == "stddev")
    assert any(float(value) > 0 for key, value in stddev.items() if key != "seed")


# --- README promises ------------------------------------------------------------------


def test_readme_flags_match_parser(capsys):
    readme = (ROOT / "README.md").read_text()
    paragraph = readme[readme.index("Flags:"):].split("\n\n", 1)[0]
    promised = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    for name in COMMANDS:
        assert main([name, "--help"]) == 0
        offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert offered == promised, name


def test_readme_environment_hooks_match_the_contract():
    """The backticked ``_hooks`` of the README's ``cogsim.protocol`` bullet are
    the private methods ``Environment`` defines, but the observation builder."""
    readme = (ROOT / "README.md").read_text()
    bullet = readme[readme.index("- **`cogsim.protocol`**"):].split("\n- **", 1)[0]
    promised = set(re.findall(r"`(_[a-z_]+)", bullet))
    own = {name for name, value in vars(Environment).items() if inspect.isfunction(value) and name.startswith("_") and not name.startswith("__")}
    assert promised == own - {"_observations"}


SHIPPED_RUNS = next(m for m in test_shipped_configs_run_clean.pytestmark if m.name == "parametrize").args[1]

SHIPPED_EPISODES = {
    "market_small.json": ["run"],
    "trials_market.json": [f"trial/{seed}" for seed in range(5)],
    "multiworld_market_social.json": ["multiworld"],
    "transfer_market_bias.json": ["source", "carry", "fresh"],
    "ablation_tariff.json": [f"setting_{level}/trial/0" for level in (1, 2, 3, 4)],
    "trials_economy.json": [f"trial/{seed}" for seed in range(3)],
}


def test_every_command_and_config_has_a_pinned_run():
    commands = {command for _, command in SHIPPED_RUNS}
    names = {name for name, _ in SHIPPED_RUNS}
    assert set(COMMANDS) - {"score"} <= commands
    assert {path.name for path in CONFIGS.glob("*.json")} <= names


def run_shipped(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(CONFIGS.parent)
    out = tmp_path / name.replace(".json", "")
    assert main([command, "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name,command", SHIPPED_RUNS)
def test_every_shipped_bundle_is_scored_or_refused(name, command, tmp_path, monkeypatch):
    out = run_shipped(name, command, tmp_path, monkeypatch)
    assert json.loads((out / "manifest.json").read_text())["command"] == command
    assert_score_reproduces(out, CONFIGS / name)


@pytest.mark.parametrize("name,command", SHIPPED_RUNS)
def test_shipped_manifests_list_their_episodes(name, command, tmp_path, monkeypatch):
    out = run_shipped(name, command, tmp_path, monkeypatch)
    tags = json.loads((out / "manifest.json").read_text())["episodes"]
    assert tags == SHIPPED_EPISODES[name]
    blocks = re.findall(r'(?:.*\n)*?\{"summary":.*\n', (out / "events.jsonl").read_text())
    assert "".join(blocks) == (out / "events.jsonl").read_text()
    assert len(blocks) == len(tags)
    for block in blocks:
        (log,) = read_episodes(block)
        assert log.to_jsonl() == block


@pytest.mark.parametrize("name,command", SHIPPED_RUNS)
def test_every_shipped_event_line_is_the_canonical_json_of_its_record(name, command, tmp_path, monkeypatch):
    # guards the event lines formatted from their shape on every harness's path
    out = run_shipped(name, command, tmp_path, monkeypatch)
    lines = (out / "events.jsonl").read_text().splitlines()
    records = [line for line in lines if not line.startswith('{"summary":')]
    assert records
    assert [canonical_json(json.loads(line)) for line in records] == records


def test_score_refuses_bundle_whose_manifest_lists_no_episodes(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    for key in ("episodes", "command"):  # a manifest written before it recorded them
        assert main(["run", "--config", str(config)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        before = bundle_bytes(out)
        assert main(["score", "--config", str(config)]) == 1
        assert "names no command and episodes to score" in capsys.readouterr().err
        assert bundle_bytes(out) == before


def drop_seed(manifest):
    del manifest["seed"]
    return json.dumps(manifest)


def drop_a_file_name(manifest):
    del manifest["files"][0]["name"]
    return json.dumps(manifest)


MALFORMED_MANIFESTS = {
    "no seed": drop_seed,
    "file entry without name": drop_a_file_name,
    "a JSON list": lambda manifest: json.dumps([manifest]),
    "not JSON": lambda manifest: json.dumps(manifest)[:-1],
}


@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_score_refuses_a_malformed_manifest(edit, tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    assert main(["run", "--config", str(config)]) == 0
    (out / "manifest.json").write_text(edit(json.loads((out / "manifest.json").read_text())))
    before = bundle_bytes(out)
    assert main(["score", "--config", str(config)]) == 1
    assert f"config error ({config}): {out / 'manifest.json'} is " in capsys.readouterr().err
    assert bundle_bytes(out) == before


def name_an_unknown_command(manifest_path):
    manifest = json.loads(manifest_path.read_text())
    manifest["command"] = "replay"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


@pytest.mark.parametrize(
    "edit,message",
    [(lambda path: path.unlink(), "no manifest.json to score in"), (name_an_unknown_command, "names an unknown command 'replay'")],
    ids=["missing", "unknown-command"],
)
def test_score_exits_one_without_a_manifest_naming_a_known_command(edit, message, tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_market_config(out))
    assert main(["run", "--config", str(config)]) == 0
    edit(out / "manifest.json")
    before = bundle_bytes(out)
    assert main(["score", "--config", str(config)]) == 1
    assert message in capsys.readouterr().err
    assert bundle_bytes(out) == before


def test_score_refuses_a_manifest_whose_fields_were_edited(tmp_path, capsys):
    out = tmp_path / "out"
    body = minimal_market_config(out, trials=3, environment={"kind": "economy", "agents": 2, "months": 2})
    body["backend"]["default_content"] = json.dumps({"work_propensity": 0.7, "consumption_propensity": 0.4})
    config = write_config(tmp_path, body)
    assert main(["trials", "--config", str(config)]) == 0
    sealed = json.loads((out / "manifest.json").read_text())
    assert sealed == reseal(sealed)
    edits = [{"failures": {"trial/5": "nothing went wrong"}}, {"seed": 7}]
    for edit in edits:
        (out / "manifest.json").write_text(json.dumps({**sealed, **edit}, indent=2) + "\n")
        before = bundle_bytes(out)
        assert main(["score", "--config", str(config)]) == 1
        assert "manifest.json does not match its fields_sha256" in capsys.readouterr().err
        assert bundle_bytes(out) == before
    # a manifest written before manifests were sealed lacks the field
    del sealed["fields_sha256"]
    (out / "manifest.json").write_text(json.dumps(sealed, indent=2) + "\n")
    assert main(["score", "--config", str(config)]) == 1
    assert 'missing key "fields_sha256"' in capsys.readouterr().err


def schema_keys(schema, internal=()):
    return [name for name in inspect.signature(schema).parameters if name not in internal]


def test_readme_config_tables_list_each_schemas_keys():
    readme = (ROOT / "README.md").read_text()
    tables = {}
    for block in re.findall(r"(?:^\|.*\n)+", readme, flags=re.M):
        header, _, *rows = block.splitlines()
        tables[header.split("|")[1].strip()] = [row.split("|")[1].strip().strip("`") for row in rows]
    expected = {
        "top level": schema_keys(ExperimentConfig),
        "`agents`": schema_keys(AgentsConfig),
        "`transfer`": schema_keys(TransferConfig),
        "`multiworld`": schema_keys(MultiWorldConfig),
        "`ablation`": schema_keys(AblationConfig),
        "scripted rule": schema_keys(ScriptedRule),
        "auction item": schema_keys(AuctionItem),
        "news item": schema_keys(NewsItem),
        "bank item": schema_keys(Item),
    }
    for name, kind in ENVIRONMENTS.items():
        expected[f"`{name}` environment (`agents` {kind.agents})"] = schema_keys(kind.schema, kind.internal)
    for table, noun in ((BACKENDS, "backend"), (MEMORIES, "memory")):
        for name, kind in table.items():
            expected[f"`{name}` {noun}"] = schema_keys(kind.schema, kind.internal)
    assert tables == expected


@pytest.mark.parametrize("table", [ENVIRONMENTS, BACKENDS, MEMORIES], ids=["environments", "backends", "memories"])
def test_every_internal_name_is_a_schema_parameter(table):
    # the README table check filters names through internal, so a stale one would pass it
    for name, kind in table.items():
        assert set(kind.internal) <= set(inspect.signature(kind.schema).parameters), name


# --- mutated shipped configs -------------------------------------------------------------


def leaves(node, path=""):
    """(dotted path, value) of every scalar in a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def with_leaf(node, target, new, path=""):
    if path == target:
        return new
    if isinstance(node, dict):
        return {key: with_leaf(value, target, new, f"{path}.{key}" if path else key) for key, value in node.items()}
    if isinstance(node, list):
        return [with_leaf(value, target, new, f"{path}[{i}]") for i, value in enumerate(node)]
    return node


# one value of each JSON type, and -1, below every integer bound a shipped config meets
REPLACEMENTS = [None, True, -1, 2.5, "x", [], {}]
NULLABLE = {"out", "persona_text", "seed_post", "source_steps", "phase2_seed"}
ANY_INTEGER = {"seed", "phase2_seed"}


@settings(
    derandomize=True, database=None, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_mutated_shipped_config_exits_one_naming_the_leaf(data, monkeypatch, capsys):
    name, command = data.draw(st.sampled_from(SHIPPED_RUNS))
    raw = json.loads((CONFIGS / name).read_text())
    path, old = data.draw(st.sampled_from(sorted(leaves(raw), key=lambda leaf: leaf[0])))
    new = data.draw(st.sampled_from(REPLACEMENTS))
    key = re.sub(r"\[\d+\]$", "", path).rsplit(".", 1)[-1]
    below_bound = new == -1 and type(old) is int
    assume(type(new) is not type(old) or below_bound)
    assume(not (type(old) is float and type(new) is int))  # a number takes an integer
    assume(not (new is None and key in NULLABLE))
    assume(not (below_bound and key in ANY_INTEGER))
    monkeypatch.chdir(ROOT)
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / name
        config.write_text(json.dumps(with_leaf(raw, path, new)))
        out = Path(scratch) / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1, (path, new)
        assert f"{path}:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
