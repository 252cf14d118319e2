"""Command-line entry point: load an experiment config, dispatch a runner,
write the output bundle, print a summary.

Every run leaves a bundle directory with events.jsonl, metrics.csv,
summary.txt, and a manifest.json written last that inventories the other
files with content hashes. Reruns of the same config and seed with a
scripted backend reproduce events.jsonl and metrics.csv byte for byte.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any

from . import __version__
from .errors import ConfigError, SimulationError
from .memory import memory_from_spec
from .protocol import EpisodeLog, run_episode
from .runners import (
    AblationSetting,
    ExperimentConfig,
    InstrumentSpec,
    MultiWorldSchedule,
    TariffStudy,
    TransferPlan,
    backend_kind,
    build_agent,
    build_agents,
    build_backend,
    build_environment,
    build_setup,
    check_step_limit,
    environment_kind,
    item_bank_from_spec,
    news_feed_from_spec,
    reject_unknown,
    roster_size,
    run_memory_transfer,
    run_multiworld,
    run_tariff_ablation,
    run_trials,
)

# The keys of each top-level section whose keys do not depend on a kind.
SECTION_KEYS = {
    "agents": {"memory", "persona_text", "extra_directives", "max_tool_rounds", "max_parse_retries"},
    "transfer": {"source", "source_steps", "carry_memory", "items", "phase2_seed"},
    "multiworld": {"environments", "cycles"},
    "ablation": {"headline", "summary", "news", "settings"},
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Strictly parse a JSON experiment config into an :class:`ExperimentConfig`.

    The top-level keys are that class's fields and its defaults apply. Every
    section must be an object. Unknown keys anywhere in it, including every
    environment section, the memory spec and the backend section (checked
    against its kind), are rejected with their dotted path.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    reject_unknown(raw, {f.name for f in fields(ExperimentConfig)}, "")
    if "environment" not in raw:
        raise ConfigError("missing required section", field="environment")
    environment_kind(raw["environment"])
    backend_kind(raw.get("backend", {}))
    for name, keys in SECTION_KEYS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigError("must be an object", field=name)
            reject_unknown(raw[name], keys, name)
    agents = raw.get("agents", {})
    memory_from_spec(agents.get("memory", {}))
    directives = agents.get("extra_directives", [])
    if not isinstance(directives, list) or not all(isinstance(d, str) for d in directives):
        raise ConfigError("must be a list of strings", field="agents.extra_directives")
    if "source" in raw.get("transfer", {}):
        environment_kind(raw["transfer"]["source"], "transfer.source")
    environments = raw.get("multiworld", {}).get("environments", [])
    if not isinstance(environments, list):
        raise ConfigError("must be a list", field="multiworld.environments")
    for i, spec in enumerate(environments):
        environment_kind(spec, f"multiworld.environments[{i}]")
    for field_name in ("trials", "seed", "max_steps"):
        if field_name in raw and type(raw[field_name]) is not int:  # bool is an int subclass
            raise ConfigError("must be an integer", field=field_name)
    return ExperimentConfig(**raw)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BundleWriter:
    """Collects bundle files and writes the manifest last."""

    def __init__(self, out_dir: Path, config_bytes: bytes, seed: int):
        self.out_dir = out_dir
        self.config_hash = _sha256(config_bytes)
        self.seed = seed
        self.started_at = dt.datetime.now(dt.timezone.utc).isoformat()
        self.files: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        (self.out_dir / name).write_bytes(data)
        self.files[name] = _sha256(data)

    def finalize(self) -> None:
        manifest = {
            "config_sha256": self.config_hash,
            "code_version": __version__,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "files": [{"name": name, "sha256": digest} for name, digest in sorted(self.files.items())],
        }
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _summary_lines(title: str, pairs: dict[str, Any]) -> str:
    lines = [title]
    for name, value in pairs.items():
        lines.append(f"  {name}: {value}")
    return "\n".join(lines) + "\n"


def _cmd_run(config: ExperimentConfig, bundle: BundleWriter) -> None:
    kind = environment_kind(config.environment)
    check_step_limit(config.environment, config.max_steps)
    env, agents = build_setup(config, config.seed)
    log = run_episode(env, agents, max_steps=config.max_steps, seed=config.seed)
    bundle.write("events.jsonl", log.to_jsonl())
    bundle.write("metrics.csv", kind.metrics_csv(env, log.records))
    summary = _summary_lines(
        f"run: {config.environment['kind']} environment",
        {"seed": config.seed, "steps": log.steps_executed, **env.metrics()},
    )
    bundle.write("summary.txt", summary + kind.report(env))


def _cmd_trials(config: ExperimentConfig, bundle: BundleWriter) -> None:
    result = run_trials(config)
    bundle.write("events.jsonl", "".join(log.to_jsonl() for log in result.logs))
    bundle.write("metrics.csv", result.to_csv())
    means, stds = result.summary()
    summary = _summary_lines(
        f"trials: {config.trials} runs of {config.environment['kind']}",
        {
            "seeds": f"{config.seed}..{config.seed + config.trials - 1}",
            "failures": len(result.failures),
            **{f"mean_{k}": v for k, v in means.items()},
            **{f"stddev_{k}": v for k, v in stds.items()},
        },
    )
    bundle.write("summary.txt", summary)


def _cmd_transfer(config: ExperimentConfig, bundle: BundleWriter) -> None:
    section = config.transfer or {}
    if "source" not in section or "items" not in section:
        raise ConfigError("transfer needs source and items", field="transfer")
    items = item_bank_from_spec(section["items"], "transfer.items")
    source_spec = section["source"]
    source_steps = section.get("source_steps", config.max_steps)
    check_step_limit(source_spec, source_steps, "transfer.source_steps")
    n = roster_size(source_spec)
    backend = build_backend(config.backend)
    plan = TransferPlan(
        source_env_factory=lambda seed: build_environment(source_spec, seed),
        agent_ids=list(range(n)),
        agent_factory=lambda aid, memory: build_agent(config.agents, backend, aid, "transfer", memory),
        memory_factory=lambda: memory_from_spec(config.agents.get("memory", {"kind": "buffer", "capacity": 100})),
        source_steps=source_steps,
        carry_memory=section.get("carry_memory", True),
        seed=config.seed,
        phase2_seed=section.get("phase2_seed", config.seed),
    )
    result = run_memory_transfer(plan, InstrumentSpec(items=items))
    lines = ["pair,diff,t,p,df"]
    for pair in sorted(result.diffs_by_pair):
        stats = result.t_tests.get(pair)
        if stats is None:
            lines.append(f"{pair},{result.diffs_by_pair[pair]},,,")
        else:
            lines.append(f"{pair},{result.diffs_by_pair[pair]},{stats[0]},{stats[1]},{stats[2]}")
    bundle.write("metrics.csv", "\n".join(lines) + "\n")
    bundle.write("events.jsonl", "")
    bundle.write(
        "summary.txt",
        _summary_lines("memory transfer: carry minus fresh bias per pair", result.diffs_by_pair),
    )


def _cmd_multiworld(config: ExperimentConfig, bundle: BundleWriter) -> None:
    section = config.multiworld or {}
    if len(section.get("environments", [])) < 2:
        raise ConfigError("multiworld needs at least two environments", field="multiworld.environments")
    cycles = section.get("cycles", 1)
    if type(cycles) is not int or cycles < 0:  # bool is an int subclass
        raise ConfigError("must be an integer >= 0", field="multiworld.cycles")
    envs = [build_environment(spec, config.seed) for spec in section["environments"]]
    backend = build_backend(config.backend)
    n = max(roster_size(spec) for spec in section["environments"])
    agents = build_agents(config.agents, backend, n, world_tag=envs[0].name)
    log = run_multiworld(MultiWorldSchedule(environments=envs, cycles=cycles), agents, seed=config.seed)
    bundle.write("events.jsonl", log.to_jsonl())
    counts: dict[str, int] = {}
    for record in log.records:
        counts[record.info.get("world", "?")] = counts.get(record.info.get("world", "?"), 0) + 1
    lines = ["world,records"]
    for world in sorted(counts):
        lines.append(f"{world},{counts[world]}")
    bundle.write("metrics.csv", "\n".join(lines) + "\n")
    bundle.write(
        "summary.txt",
        _summary_lines(
            f"multiworld: {[e.name for e in envs]} x {cycles} cycles",
            {"steps": log.steps_executed, **counts},
        ),
    )


def _cmd_ablation(config: ExperimentConfig, bundle: BundleWriter) -> None:
    section = config.ablation or {}
    for required in ("headline", "summary", "news"):
        if required not in section:
            raise ConfigError(f"ablation needs {required}", field=f"ablation.{required}")
    if config.environment.get("kind") != "market":
        raise ConfigError("ablation runs on a market environment", field="environment.kind")
    levels = section.get("settings", [1, 2, 3, 4])
    if not isinstance(levels, list) or not all(type(level) is int and 1 <= level <= 4 for level in levels):
        raise ConfigError("must be a list of levels 1..4", field="ablation.settings")
    feed = news_feed_from_spec(section["news"], "ablation.news")
    base_env = build_environment(config.environment, config.seed)
    backend = build_backend(config.backend)
    study = TariffStudy(
        base_config=base_env.config,
        headline=section["headline"],
        research_summary=section["summary"],
        news_feed=feed,
        backend_factory=lambda aid: backend,
        agents=config.agents,
        trials=config.trials,
        base_seed=config.seed,
    )
    table = run_tariff_ablation(study, [AblationSetting(level) for level in levels])
    bundle.write("metrics.csv", table.to_csv())
    bundle.write("events.jsonl", "")
    ratios = {f"setting_{row.setting}": f"A={row.stock_a:.4f} B={row.stock_b:.4f}" for row in table.rows}
    bundle.write("summary.txt", _summary_lines("tariff ablation: mean buy/sell ratios", ratios))


def _cmd_score(config: ExperimentConfig, bundle: BundleWriter) -> None:
    events_path = bundle.out_dir / "events.jsonl"
    if not events_path.exists():
        raise ConfigError(f"no events.jsonl to score in {bundle.out_dir}")
    kind = environment_kind(config.environment)
    if not kind.records_only:
        raise ConfigError(
            f"score cannot re-derive {config.environment['kind']} metrics from events alone",
            field="environment.kind",
        )
    text = events_path.read_text()
    episodes = sum(line.startswith('{"summary":') for line in text.splitlines())
    if episodes != 1:
        raise ConfigError(f"score needs a bundle of exactly one episode; {events_path} holds {episodes}")
    log = EpisodeLog.from_jsonl(text)
    bundle.files["events.jsonl"] = _sha256(events_path.read_bytes())
    bundle.write("metrics.csv", kind.metrics_csv(None, log.records))
    bundle.write(
        "summary.txt",
        _summary_lines(
            f"score: re-scored {len(log.records)} events", {"seed": log.seed, "steps": log.steps_executed}
        ),
    )


COMMANDS = {
    "run": _cmd_run,
    "trials": _cmd_trials,
    "transfer": _cmd_transfer,
    "multiworld": _cmd_multiworld,
    "ablation": _cmd_ablation,
    "score": _cmd_score,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cogsim", description="Multi-agent simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"{name} experiment")
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed (default 0)")
        cmd.add_argument("--trials", type=int, default=None, help="override trial count")
        cmd.add_argument("--out", default=None, help="output bundle directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.trials is not None:
            config.trials = args.trials
        if args.out is not None:
            config.out = args.out
        out_dir = Path(config.out or f"runs/{args.command}")
        bundle = BundleWriter(out_dir, Path(args.config).read_bytes(), config.seed)
        COMMANDS[args.command](config, bundle)
        bundle.finalize()
    except ConfigError as exc:
        print(f"config error ({args.config}): {exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError, ValueError, TypeError) as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote bundle: {out_dir}")
    return 0


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
