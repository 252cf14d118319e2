"""Command-line entry point: load an experiment config, run the
subcommand's harness, and write its result as the output bundle.

Every subcommand returns a :class:`~cogsim.runners.HarnessResult` and
:func:`write_bundle` writes every bundle: events.jsonl (each tagged
episode's log in order), metrics.csv, summary.txt, and a manifest.json
written last that inventories the other files with content hashes and
lists the episode tags. Reruns of the same config and seed with a scripted
backend reproduce events.jsonl and metrics.csv byte for byte. ``score``
re-derives a ``run`` bundle's metrics and refuses every other bundle.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .errors import ConfigError, SimulationError
from .protocol import EpisodeLog
from .runners import (
    ENVIRONMENTS,
    ExperimentConfig,
    HarnessResult,
    ablation_harness,
    multiworld_harness,
    parse,
    run_harness,
    transfer_harness,
    trials_harness,
)


def load_config(path: str | Path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse a JSON experiment config, with ``overrides`` over its top-level keys, in one :func:`parse`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return parse(ExperimentConfig, {**raw, **(overrides or {})}, "")


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

    def finalize(self, episodes: list[str] | None = None) -> None:
        manifest = {
            "config_sha256": self.config_hash,
            "code_version": __version__,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "files": [{"name": name, "sha256": digest} for name, digest in sorted(self.files.items())],
        }
        if episodes is not None:
            manifest["episodes"] = episodes
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_bundle(bundle: BundleWriter, result: HarnessResult) -> None:
    """Write ``result`` as the bundle's files, then the manifest listing its episode tags."""
    bundle.write("events.jsonl", "".join(log.to_jsonl() for _, log in result.episodes))
    bundle.write("metrics.csv", result.metrics_csv)
    pairs = "".join(f"  {name}: {value}\n" for name, value in result.summary.items())
    bundle.write("summary.txt", f"{result.title}\n{pairs}{result.report}")
    bundle.finalize([tag for tag, _ in result.episodes])


def score(config: ExperimentConfig) -> HarnessResult:
    """Re-derive the metrics of the bundle at ``config.out`` from its events, if its manifest
    lists exactly the episode ``run`` of a ``records_only`` kind; refuse any other bundle."""
    kind = ENVIRONMENTS[config.environment["kind"]]
    if not kind.records_only:
        message = f"score cannot re-derive {config.environment['kind']} metrics from events alone"
        raise ConfigError(message, field="environment.kind")
    manifest = Path(config.out) / "manifest.json"
    if not manifest.exists():
        raise ConfigError(f"no manifest.json to score in {config.out}")
    episodes = json.loads(manifest.read_text()).get("episodes")
    if episodes != ["run"]:
        raise ConfigError(f"score needs a run bundle of exactly one episode; {manifest} lists {episodes or 'none'}")
    log = EpisodeLog.from_jsonl((Path(config.out) / "events.jsonl").read_text())
    summary = {"seed": log.seed, "steps": log.steps_executed}
    title = f"score: re-scored {len(log.records)} events"
    return HarnessResult(title, [("run", log)], kind.metrics_csv(None, log.records), summary)


COMMANDS: dict[str, Callable[[ExperimentConfig], HarnessResult]] = {
    "run": run_harness,
    "trials": trials_harness,
    "transfer": transfer_harness,
    "multiworld": multiworld_harness,
    "ablation": ablation_harness,
    "score": score,
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
        flags = {key: value for key, value in (("seed", args.seed), ("trials", args.trials)) if value is not None}
        config = load_config(args.config, flags)
        if getattr(config, args.command, 0) is None:  # transfer, multiworld and ablation read their own section
            raise ConfigError(f"the {args.command} command needs this section", field=args.command)
        config.out = args.out or config.out or f"runs/{args.command}"
        bundle = BundleWriter(Path(config.out), Path(args.config).read_bytes(), config.seed)
        write_bundle(bundle, COMMANDS[args.command](config))
    except ConfigError as exc:
        print(f"config error ({args.config}): {exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError, ValueError, TypeError) as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote bundle: {config.out}")
    return 0


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
