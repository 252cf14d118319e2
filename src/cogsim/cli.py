"""Command-line entry point: load an experiment config, run the
subcommand's harness, and write its result as the output bundle.

Every subcommand but ``score`` is a harness in
:data:`~cogsim.runners.HARNESSES`, and :func:`write_bundle` writes every
bundle: events.jsonl (each tagged episode's log in order), metrics.csv,
summary.txt, and a manifest.json written last that inventories the other
files with content hashes, records the command, the episode tags and each
failed tag's error, and seals those fields with ``fields_sha256``. Reruns
of the same config and seed with a scripted backend reproduce events.jsonl
and metrics.csv byte for byte. ``score`` checks a bundle against its
manifest and its config, then hands its episodes to the command's harness,
which re-derives metrics.csv and summary.txt from them alone.

Only bundle I/O loads with this module; the harness layer loads when a
command runs, so a library run that writes its own bundle never loads it.

Exit codes: 0 success, 1 config error or a bundle ``score`` refuses, 2
any other failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import __version__
from .errors import ConfigError
from .protocol import read_episodes
from .schema import canonical_json

if TYPE_CHECKING:
    from .runners import Episodes, ExperimentConfig, HarnessResult, Manifest


def load_config(path: str | Path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse a JSON experiment config, with ``overrides`` over its top-level keys, in one :func:`parse`."""
    from .runners import ExperimentConfig, parse

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


def fields_sha256(manifest: dict[str, Any]) -> str:
    """The sha256 of the canonical JSON of every manifest field but ``fields_sha256``."""
    return _sha256(canonical_json({k: v for k, v in manifest.items() if k != "fields_sha256"}).encode("utf-8"))


WRITE_SLICE = 1 << 16  # characters of text encoded, written and hashed at a time


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
        """Write ``text`` as UTF-8 and hash it, a 64 KiB slice at a time, so the
        file's bytes are never held next to the text; a text that cannot be
        encoded leaves no file."""
        path, digest = self.out_dir / name, hashlib.sha256()
        try:
            with path.open("wb") as file:
                for start in range(0, len(text), WRITE_SLICE):
                    data = text[start:start + WRITE_SLICE].encode("utf-8")
                    file.write(data)
                    digest.update(data)
        except UnicodeEncodeError:
            path.unlink(missing_ok=True)
            raise
        self.files[name] = digest.hexdigest()

    def finalize(self, **fields: Any) -> None:
        """Write manifest.json: provenance and each written file's hash, then
        ``fields``, sealed by the :func:`fields_sha256` of them all."""
        manifest = {
            "config_sha256": self.config_hash,
            "code_version": __version__,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "files": [{"name": name, "sha256": digest} for name, digest in sorted(self.files.items())],
            **fields,
        }
        manifest["fields_sha256"] = fields_sha256(manifest)
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_bundle(bundle: BundleWriter, command: str, result: HarnessResult) -> None:
    """Write ``result`` as the bundle's files, then the manifest naming
    ``command``, the episode tags and each failed tag's error."""
    episodes = result.episodes
    bundle.write("events.jsonl", "".join(log.to_jsonl() for _, log in episodes.logs))
    bundle.write("metrics.csv", result.metrics_csv)
    pairs = "".join(f"  {name}: {value}\n" for name, value in result.summary.items())
    bundle.write("summary.txt", f"{result.title}\n{pairs}{result.report}")
    bundle.finalize(command=command, episodes=[tag for tag, _ in episodes.logs], failures=episodes.failures)


def read_bundle(out: Path, config_bytes: bytes) -> tuple[Manifest, Episodes]:
    """The manifest of the bundle in ``out`` and its tagged episodes, or a
    :class:`ConfigError` if the manifest is not a
    :class:`~cogsim.runners.Manifest` naming a command, its fields do not
    match its ``fields_sha256``, a file does not match its hash, or the
    bundle was written from another config."""
    from .runners import HARNESSES, Episodes, Manifest, parse

    path = out / "manifest.json"
    if not path.exists():
        raise ConfigError(f"no manifest.json to score in {out}")
    try:
        raw = json.loads(path.read_bytes())
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} is not a JSON object")
    if "command" not in raw or "episodes" not in raw:
        raise ConfigError(f"{path} names no command and episodes to score")
    try:
        manifest = parse(Manifest, raw)
    except ConfigError as exc:
        raise ConfigError(f"{path} is malformed: {exc}") from None
    if manifest.command not in HARNESSES:
        raise ConfigError(f"{path} names an unknown command {manifest.command!r}")
    if manifest.fields_sha256 != fields_sha256(raw):
        raise ConfigError(f"{path} does not match its fields_sha256")
    for entry in manifest.files:
        file = out / entry.name
        if not file.is_file() or _sha256(file.read_bytes()) != entry.sha256:
            raise ConfigError(f"{file} does not match its sha256 in {path}")
    if manifest.config_sha256 != _sha256(config_bytes):
        raise ConfigError(f"{path} was written from another config (config_sha256 differs)")
    logs = zip(manifest.episodes, read_episodes((out / "events.jsonl").read_text()), strict=True)
    return manifest, Episodes(list(logs), manifest.failures)


def build_parser() -> argparse.ArgumentParser:
    from .runners import HARNESSES

    parser = argparse.ArgumentParser(prog="cogsim", description="Multi-agent simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*HARNESSES, "score"):
        cmd = sub.add_parser(name, help=f"{name} experiment")
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed (default 0)")
        cmd.add_argument("--trials", type=int, default=None, help="override trial count")
        cmd.add_argument("--out", default=None, help="output bundle directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    from .runners import HARNESSES

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        flags = {key: value for key, value in (("seed", args.seed), ("trials", args.trials)) if value is not None}
        config = load_config(args.config, flags)
        config_bytes = Path(args.config).read_bytes()
        config.out = args.out or config.out or f"runs/{args.command}"
        command, seed, episodes = args.command, config.seed, None
        if command == "score":
            manifest, episodes = read_bundle(Path(config.out), config_bytes)
            command, seed = manifest.command, manifest.seed
        # run, trials and ablation read environment; transfer, multiworld and ablation read their own section
        for section in (command,) if command in ("transfer", "multiworld") else ("environment", command):
            if getattr(config, section, 0) is None:
                raise ConfigError(f"the {command} command needs this section", field=section)
        bundle = BundleWriter(Path(config.out), config_bytes, seed)
        write_bundle(bundle, command, HARNESSES[command](config, episodes))
    except ConfigError as exc:
        print(f"config error ({args.config}): {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote bundle: {config.out}")
    return 0


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
