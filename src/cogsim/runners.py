"""Experiment harnesses: single runs, repeated trials, memory transfer
across environments, multi-world cycling, and the tariff-shock cumulative
ablation. Each CLI subcommand but ``score`` is a harness in :data:`HARNESSES`:
``<name>_harness(config, episodes=None)`` runs its tagged :class:`Episodes`
unless ``score`` gives it a bundle's, then measures them into a
:class:`HarnessResult` from the config and their event records alone.

Every harness is deterministic given its config: trial i always runs with
seed base+i, transfer arms share the same phase-2 seed so memory content is
the only varying factor, and multi-world runs never reset environment state
between cycles.
"""

from __future__ import annotations

import datetime as dt
import inspect
import json
from collections import Counter, abc
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

from .backends import CompletionBackend, CompletionResult, RemoteBackend, ReplayBackend, ScriptedBackend
from .cognition import Agent, PersonaConfig
from .envs.auction import DEFAULT_BUDGET, AuctionEnv, auction_metrics
from .envs.economy import EconomyConfig, EconomyEnv, economy_metrics, indicators_csv, month_closes, phillips_okun_report
from .envs.market import MarketConfig, MarketEnv, NewsItem, buy_sell_ratio, check_news_feed, market_metrics, session_metrics_csv
from .envs.questionnaire import Item, QuestionnaireEnv, check_item_bank, questionnaire_metrics, score_answers
from .envs.social import SocialEnv, social_metrics, star_profiles
from .errors import ConfigError, SimulationError, TooFewSamples, ZeroVariance
from .memory import MEMORY_VARIANTS, MemoryEntry, MemoryStore
from .protocol import Environment, EpisodeLog, EventRecord, csv_table, policy_pool, run_episode, step_world
from .stats import mean_and_pstdev, paired_t_test


# --- config schema ----------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """A kind a section picks with its ``kind`` key: its other keys are the
    annotated parameters of ``schema``, which makes the object, but ``internal``."""

    schema: Callable[..., Any]
    internal: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScriptedRule:
    """The first rule whose ``contains`` occurs in the prompt answers with its ``content``."""

    contains: str = field(metadata={"min": 1})
    content: str = field(metadata={"min": 1})


def _scripted_backend(rules: Sequence[ScriptedRule] = (), default_content: str = "{}") -> CompletionBackend:
    if not default_content:
        raise ConfigError("must be at least 1 characters long", field="default_content")
    table = [(lambda text, needle=rule.contains: needle in text, CompletionResult(content=rule.content)) for rule in rules]
    return ScriptedBackend(table, default=CompletionResult(content=default_content))


def _replay_backend(transcript_path: str) -> CompletionBackend:
    path = Path(transcript_path)
    if not path.is_file():
        raise ConfigError(f"file not found: {path}", field="transcript_path")
    return ReplayBackend.from_jsonl(path.read_text(encoding="utf-8"))


BACKENDS: dict[str, Kind] = {
    "scripted": Kind(_scripted_backend),
    "replay": Kind(_replay_backend),
    "remote": Kind(RemoteBackend, internal=("rng", "sleeper", "session")),
}

MEMORIES: dict[str, Kind] = {name: Kind(cls) for name, cls in MEMORY_VARIANTS.items()}


@dataclass(frozen=True, kw_only=True)
class EnvironmentKind(Kind):
    """How one environment kind is built from its config section, and measured
    from that section and an episode's event records alone.

    The section also takes ``agents``, the roster size (default ``agents``).
    ``metrics`` are the episode's scalars; a ``run`` writes them as
    ``metric,value`` rows unless the kind has its own ``table``, and appends
    ``report`` to its summary. ``ends`` is false for a kind whose ``done()`` never holds.
    """

    build: Callable[[Mapping[str, Any], int], Environment]
    agents: int
    metrics: Callable[[Mapping[str, Any], list[EventRecord]], dict[str, float]]
    table: Callable[[Mapping[str, Any], list[EventRecord]], str] | None = None
    report: Callable[[Mapping[str, Any], list[EventRecord]], str] = lambda section, records: ""
    ends: bool = True


def _params(section: Mapping[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in section.items() if key not in ("kind", "agents")}


def _market(section: Mapping[str, Any]) -> MarketConfig:
    return MarketConfig(n_agents=section["agents"], **_params(section))


def _economy(section: Mapping[str, Any], seed: int = 0) -> EconomyConfig:
    return EconomyConfig(n_households=section["agents"], seed=seed, **_params(section))


ENVIRONMENTS: dict[str, EnvironmentKind] = {
    "market": EnvironmentKind(
        MarketConfig,
        build=lambda section, seed: MarketEnv(_market(section)),
        # start_date and events_by_day are not config keys
        internal=("n_agents", "start_date", "events_by_day"),
        agents=50,
        metrics=lambda section, records: market_metrics(_market(section).initial_prices, records),
        table=lambda section, records: session_metrics_csv(records),
    ),
    "economy": EnvironmentKind(
        EconomyConfig,
        build=lambda section, seed: EconomyEnv(_economy(section, seed)),
        internal=("n_households", "seed"),
        agents=100,
        metrics=lambda section, records: economy_metrics(records),
        table=lambda section, records: indicators_csv(_economy(section), records),
        report=lambda section, records: phillips_okun_report(month_closes(records)),
    ),
    "social": EnvironmentKind(
        SocialEnv,
        build=lambda section, seed: SocialEnv(star_profiles(section["agents"], section.get("influencer", 0)), **_params(section)),
        internal=("profiles",),
        agents=111,
        metrics=lambda section, records: social_metrics(records),
        ends=False,
    ),
    "auction": EnvironmentKind(
        AuctionEnv,
        build=lambda section, seed: AuctionEnv(bidder_ids=list(range(section["agents"])), **_params(section)),
        # JSON cannot carry objectives' integer agent ids
        internal=("bidder_ids", "objectives"),
        agents=3,
        metrics=lambda section, records: auction_metrics(records, range(section["agents"]), section.get("budget", DEFAULT_BUDGET)),
    ),
    "questionnaire": EnvironmentKind(
        QuestionnaireEnv,
        build=lambda section, seed: QuestionnaireEnv(seed=seed, agent_ids=list(range(section["agents"])), **_params(section)),
        internal=("seed", "agent_ids"),
        agents=1,
        metrics=lambda section, records: questionnaire_metrics(section["items"], records),
    ),
}

# entry types a list may also give as the path of a JSONL file, and the check of a whole list
BANKS: dict[type, Callable[[list], None]] = {NewsItem: check_news_feed, Item: check_item_bank}


@dataclass
class AgentsConfig:
    """The ``agents`` section. A ``persona_text`` or ``memory`` of None takes
    the harness's default: none and null memory, but a 100-entry buffer in
    ``transfer``, and a trader persona and a 3-entry buffer in ``ablation``."""

    persona_text: str | None = None
    extra_directives: list[str] = field(default_factory=list)
    memory: dict[str, Any] | None = field(default=None, metadata={"kinds": MEMORIES, "kind": "null"})
    max_tool_rounds: int = field(default=5, metadata={"min": 0})
    max_parse_retries: int = field(default=2, metadata={"min": 0})


@dataclass
class TransferConfig:
    """The ``transfer`` section: phase 1 runs in ``source`` for ``source_steps``
    (None: ``max_steps``); phase 2 asks ``items`` at ``phase2_seed`` (None: ``seed``)."""

    source: dict[str, Any] = field(metadata={"kinds": ENVIRONMENTS})
    items: list[Item]
    source_steps: int | None = field(default=None, metadata={"min": 0})
    carry_memory: bool = True
    phase2_seed: int | None = None

    def __post_init__(self):
        QuestionnaireEnv(self.items)  # the instrument's own checks, named by field


@dataclass
class MultiWorldConfig:
    """The ``multiworld`` section; :class:`MultiWorldSchedule` holds its ranges."""

    environments: list[dict[str, Any]] = field(metadata={"kinds": ENVIRONMENTS})
    cycles: int = 1


@dataclass
class AblationConfig:
    """The ``ablation`` section: ``settings`` lists the levels to run (None: all four)."""

    headline: str
    summary: str
    news: list[NewsItem]
    settings: list[int] | None = None


@dataclass
class ExperimentConfig:
    """The config schema: its fields are the allowed top-level keys and its defaults the only defaults."""

    environment: dict[str, Any] = field(metadata={"kinds": ENVIRONMENTS})
    agents: AgentsConfig = field(default_factory=AgentsConfig)
    backend: dict[str, Any] = field(
        default_factory=lambda: {"kind": "scripted"}, metadata={"kinds": BACKENDS, "kind": "scripted"}
    )
    trials: int = field(default=1, metadata={"min": 1})
    seed: int = 0
    max_steps: int | None = field(default=None, metadata={"min": 0})  # None: until the environment ends
    out: str | None = None
    transfer: TransferConfig | None = None
    multiworld: MultiWorldConfig | None = None
    ablation: AblationConfig | None = None

    @property
    def parallel(self) -> bool:
        """Whether agents' policy calls within a step fan out to a thread pool:
        on a remote backend, so that up to ``in_flight_limit`` requests are open."""
        return self.backend["kind"] == "remote"


_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def parse(cls: Any, raw: Any, path: str = "", meta: Mapping[str, Any] = {}) -> Any:
    """``raw``, read from JSON, checked against the annotation ``cls`` and returned typed.

    ``cls`` is ``bool``, ``int``, ``float`` (an int too; a bool is neither),
    ``str``, ``dt.date`` (ISO), ``list[T]`` (for a :data:`BANKS` type, also a
    JSONL file path), ``dict[str, T]``, ``T | None``, or a record: a
    dataclass or annotated constructor, built once its keys are parsed.
    ``meta``, a field's metadata, may name a kind table under ``kinds``.
    Every error is a :class:`ConfigError` naming the value's dotted path.
    """
    origin, args = get_origin(cls), get_args(cls)
    if origin in (Union, UnionType):
        if raw is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return parse(inner, raw, path, meta)
    if origin in (list, abc.Sequence):
        if args[0] in BANKS:
            return _bank(args[0], raw, path)
        if not isinstance(raw, list):
            raise ConfigError("must be a list", field=path)
        return [parse(args[0], value, f"{path}[{i}]", meta) for i, value in enumerate(raw)]
    if origin is dict:
        if "kinds" in meta:
            return _pick(meta["kinds"], raw, path, meta.get("kind"))
        if not isinstance(raw, dict):
            raise ConfigError("must be an object", field=path)
        return {key: parse(args[1], value, f"{path}.{key}", meta) for key, value in raw.items()}
    if cls in _SCALARS:
        if type(raw) is not cls and not (cls is float and type(raw) is int):
            raise ConfigError(f"must be {_SCALARS[cls]}", field=path)
        return raw
    if cls is dt.date:
        try:
            return dt.date.fromisoformat(parse(str, raw, path))
        except ValueError:
            raise ConfigError("must be an ISO date", field=path) from None
    values = _record(cls, raw, path)
    with _within(path):
        return cls(**values)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path and key else path or key


@contextmanager
def _within(path: str) -> Iterator[None]:
    """Re-raise a constructor's error as a :class:`ConfigError` under ``path``:
    one naming its parameter gets that name appended."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(exc.message, field=_join(path, exc.field)) from exc
    except ValueError as exc:
        raise ConfigError(str(exc), field=path) from exc


def _record(schema: Callable[..., Any], raw: Any, path: str, internal: Collection[str] = ()) -> dict[str, Any]:
    """``raw``'s keys parsed against ``schema``'s fields or annotated parameters but
    ``internal``; a field's ``min`` metadata bounds a number or a string's length."""
    if not isinstance(raw, dict):
        raise ConfigError("must be an object", field=path)
    hints = get_type_hints(schema.__init__ if isinstance(schema, type) and not is_dataclass(schema) else schema)
    metadata = {f.name: f.metadata for f in fields(schema)} if is_dataclass(schema) else {}
    parameters = inspect.signature(schema).parameters.values()
    specs = {p.name: (hints[p.name], metadata.get(p.name, {}), p.default is p.empty) for p in parameters}
    for key in raw:
        if key not in specs or key in internal:
            raise ConfigError(f'unknown key "{key}"', field=_join(path, key))
    values = {}
    for name, (cls, meta, required) in specs.items():
        where = _join(path, name)
        if name not in raw:
            if required and name not in internal:
                raise ConfigError(f'missing key "{name}"', field=where)
            continue
        value = values[name] = parse(cls, raw[name], where, meta)
        low = meta.get("min")
        if low is not None and value is not None:
            if isinstance(value, str) and len(value) < low:
                raise ConfigError(f"must be at least {low} characters long", field=where)
            if not isinstance(value, str) and value < low:
                raise ConfigError(f"must be >= {low}", field=where)
    return values


def _pick(table: Mapping[str, Kind], raw: Any, path: str, default: str | None) -> dict[str, Any]:
    """A kind section parsed into ``{"kind": name, **keys}`` (an environment's with its
    roster size under ``agents``), then built once so that the kind's own checks run."""
    if not isinstance(raw, dict):
        raise ConfigError("must be an object", field=path)
    if "kind" not in raw and default is None:
        raise ConfigError('missing key "kind"', field=_join(path, "kind"))
    name = parse(str, raw.get("kind", default), _join(path, "kind"))
    kind = table.get(name)
    if kind is None:
        raise ConfigError(f"unknown kind {name!r}", field=_join(path, "kind"))
    spec: dict[str, Any] = {"kind": name}
    rest = {key: value for key, value in raw.items() if key != "kind"}
    if isinstance(kind, EnvironmentKind):
        spec["agents"] = parse(int, rest.pop("agents", kind.agents), _join(path, "agents"))
        if spec["agents"] < 1:
            raise ConfigError("must be >= 1", field=_join(path, "agents"))
    spec.update(_record(kind.schema, rest, path, kind.internal))
    with _within(path):
        build_environment(spec, 0) if isinstance(kind, EnvironmentKind) else make(table, spec)
    return spec


def _bank(entry: type, raw: Any, path: str) -> list:
    """A list of ``entry`` given inline or as a JSONL file path, vetted by its :data:`BANKS` check."""
    try:
        if isinstance(raw, str):
            if not Path(raw).is_file():
                raise ConfigError(f"file not found: {raw}")
            raw = [json.loads(line) for line in Path(raw).read_text(encoding="utf-8").splitlines() if line.strip()]
        if not isinstance(raw, list):
            raise ConfigError("must be a file path or an inline list")
        entries = [parse(entry, value, f"{path}[{i}]") for i, value in enumerate(raw)]
        BANKS[entry](entries)
    except ValueError as exc:  # a ConfigError or a JSON decode error too
        raise ConfigError(str(exc), field=path) from exc
    return entries


# --- construction ------------------------------------------------------------------


def make(table: Mapping[str, Kind], spec: Mapping[str, Any]) -> Any:
    """The backend or memory store a parsed ``backend`` or ``memory`` section names."""
    return table[spec["kind"]].schema(**{key: value for key, value in spec.items() if key != "kind"})


def check_step_limit(spec: Mapping[str, Any], max_steps: int | None, field: str = "max_steps") -> None:
    """Raise :class:`ConfigError` naming ``field`` if ``spec``'s environment would run forever."""
    if max_steps is None and not ENVIRONMENTS[spec["kind"]].ends:
        raise ConfigError(f"a {spec['kind']} environment never ends by itself; set a step limit", field=field)


def build_environment(spec: Mapping[str, Any], seed: int) -> Environment:
    """An environment from a parsed environment section."""
    return ENVIRONMENTS[spec["kind"]].build(spec, seed)


def build_agent(
    roster: AgentsConfig, backend: CompletionBackend, aid: int, world_tag: str, memory: MemoryStore | None = None
) -> Agent:
    """The one place an ``agents`` section becomes an :class:`Agent`; ``memory`` overrides its ``memory``."""
    return Agent(
        agent_id=aid,
        config=PersonaConfig(roster.persona_text or "", list(roster.extra_directives)),
        memory=make(MEMORIES, roster.memory or {"kind": "null"}) if memory is None else memory,
        backend=backend,
        world_tag=world_tag,
        max_tool_rounds=roster.max_tool_rounds,
        max_parse_retries=roster.max_parse_retries,
    )


def build_agents(roster: AgentsConfig, backend: CompletionBackend, n_agents: int, world_tag: str) -> dict[int, Agent]:
    return {aid: build_agent(roster, backend, aid, world_tag) for aid in range(n_agents)}


def build_setup(config: ExperimentConfig, seed: int) -> tuple[Environment, dict[int, Agent]]:
    env = build_environment(config.environment, seed)
    backend = make(BACKENDS, config.backend)
    agents = build_agents(config.agents, backend, config.environment["agents"], world_tag=env.name)
    return env, agents


@dataclass
class Episodes:
    """A harness's episodes, tagged, in run order, and the error of each tag
    whose episode failed (only ``trials`` goes on past a failure)."""

    logs: list[tuple[str, EpisodeLog]]
    failures: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class FileEntry:
    """One ``files`` entry of a manifest: a bundle file and its sha256."""

    name: str
    sha256: str


@dataclass(frozen=True)
class Manifest:
    """The manifest.json of a bundle that ``score`` can re-derive: what
    ``cli.write_bundle`` writes, checked by :func:`parse`."""

    config_sha256: str
    code_version: str
    seed: int
    started_at: str
    finished_at: str
    files: list[FileEntry]
    command: str
    episodes: list[str]
    failures: dict[str, str]
    fields_sha256: str


@dataclass
class HarnessResult:
    """A harness's episodes; its metrics table; and its summary: ``title``, one
    indented ``name: value`` line per ``summary`` pair, then ``report``."""

    title: str
    episodes: Episodes
    metrics_csv: str
    summary: dict[str, Any] = field(default_factory=dict)
    report: str = ""


def run_harness(config: ExperimentConfig, episodes: Episodes | None = None) -> HarnessResult:
    """One episode of ``config.environment`` at ``config.seed``, tagged ``run``."""
    section = config.environment
    if episodes is None:
        check_step_limit(section, config.max_steps)
        env, agents = build_setup(config, config.seed)
        log = run_episode(env, agents, max_steps=config.max_steps, seed=config.seed, parallel=config.parallel)
        episodes = Episodes([("run", log)])
    ((_, log),) = episodes.logs
    kind = ENVIRONMENTS[section["kind"]]
    metrics = kind.metrics(section, log.records)
    table = kind.table(section, log.records) if kind.table else csv_table(("metric", "value"), sorted(metrics.items()))
    summary = {"seed": log.seed, "steps": log.steps_executed, **metrics}
    title = f"run: {section['kind']} environment"
    return HarnessResult(title, episodes, table, summary, kind.report(section, log.records))


# --- repeated trials ----------------------------------------------------------------


@dataclass
class TrialsResult:
    """Each ``trial/<seed>`` episode's metrics by the kind of ``section``, and each failed seed's error."""

    section: Mapping[str, Any]
    episodes: Episodes
    rows: list[tuple[int, dict[str, float]]] = field(init=False)
    failures: list[tuple[int, str]] = field(init=False)

    def __post_init__(self):
        kind = ENVIRONMENTS[self.section["kind"]]
        logs, failures = self.episodes.logs, self.episodes.failures.items()
        self.rows = [(int(tag.removeprefix("trial/")), kind.metrics(self.section, log.records)) for tag, log in logs]
        self.failures = [(int(tag.removeprefix("trial/")), error) for tag, error in failures]

    def metric_names(self) -> list[str]:
        names: set[str] = set()
        for _, metrics in self.rows:
            names.update(metrics)
        return sorted(names)

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-metric mean and population standard deviation over trials."""
        means: dict[str, float] = {}
        stds: dict[str, float] = {}
        for name in self.metric_names():
            values = [m[name] for _, m in self.rows if name in m]
            means[name], stds[name] = mean_and_pstdev(values)
        return means, stds

    def to_csv(self) -> str:
        names = self.metric_names()
        means, stds = self.summary()
        rows = [[seed, *(metrics.get(n) for n in names)] for seed, metrics in self.rows]
        rows += [["mean", *(means[n] for n in names)], ["stddev", *(stds[n] for n in names)]]
        return csv_table(["seed", *names], rows)


def run_trials(config: ExperimentConfig) -> TrialsResult:
    """Run ``config.trials`` independent episodes with seeds base, base+1, ...

    A failing trial is recorded under ``failures`` and the rest proceed; if
    none succeeds, a :class:`SimulationError` names each seed's error.
    """
    check_step_limit(config.environment, config.max_steps)
    episodes = Episodes([])
    for seed in range(config.seed, config.seed + config.trials):
        try:
            env, agents = build_setup(config, seed)
            log = run_episode(env, agents, max_steps=config.max_steps, seed=seed, parallel=config.parallel)
            episodes.logs.append((f"trial/{seed}", log))
        except Exception as exc:  # a broken trial must not sink the study
            episodes.failures[f"trial/{seed}"] = f"{type(exc).__name__}: {exc}"
    result = TrialsResult(config.environment, episodes)
    if not result.rows:
        raise SimulationError("no trial succeeded: " + "; ".join(f"seed {seed}: {error}" for seed, error in result.failures))
    return result


def trials_harness(config: ExperimentConfig, episodes: Episodes | None = None) -> HarnessResult:
    """The trials table, each metric's mean and stddev, and each failed seed's error."""
    result = run_trials(config) if episodes is None else TrialsResult(config.environment, episodes)
    means, stds = result.summary()
    seeds = sorted(seed for seed, _ in result.rows + result.failures)
    summary = {"seeds": f"{seeds[0]}..{seeds[-1]}", "failures": len(result.failures)}
    summary.update({f"mean_{k}": v for k, v in means.items()})
    summary.update({f"stddev_{k}": v for k, v in stds.items()})
    title = f"trials: {len(seeds)} runs of {config.environment['kind']}"
    failed = "".join(f"  seed {seed}: {error}\n" for seed, error in result.failures)
    return HarnessResult(title, result.episodes, result.to_csv(), summary, failed and f"failed trials:\n{failed}")


# --- memory transfer ------------------------------------------------------------------


@dataclass
class TransferPlan:
    """Phase 1 populates memories in the source world; phase 2 administers the
    instrument twice, with carried and with fresh stores. ``parallel`` fans
    each episode's policy calls out as in :func:`run_episode`."""

    source_env_factory: Callable[[int], Environment]
    agent_ids: list[int]
    agent_factory: Callable[[int, MemoryStore], Agent]
    memory_factory: Callable[[], MemoryStore]
    source_steps: int | None = 10
    carry_memory: bool = True
    seed: int = 0
    phase2_seed: int = 0
    parallel: bool = False


@dataclass
class InstrumentSpec:
    items: list[Item]


@dataclass
class TransferResult:
    diffs_by_pair: dict[str, float]
    per_agent: dict[int, dict[str, float]]
    t_tests: dict[str, tuple[float, float, int] | None]
    source_archives: dict[int, str] = field(default_factory=dict)
    carry_bias: dict[int, dict[str, float]] = field(default_factory=dict)
    fresh_bias: dict[int, dict[str, float]] = field(default_factory=dict)
    episodes: list[tuple[str, EpisodeLog]] = field(default_factory=list)

    def to_csv(self) -> str:
        rows = ([pair, diff, *(self.t_tests.get(pair) or (None,) * 3)] for pair, diff in sorted(self.diffs_by_pair.items()))
        return csv_table(("pair", "diff", "t", "p", "df"), rows)


def compare_arms(items: Sequence[Item], agent_ids: Sequence[int], carry: list[EventRecord], fresh: list[EventRecord]) -> TransferResult:
    """Per-pair bias difference, carried-memory arm minus fresh-memory arm, from the arms' ``answer`` records."""
    carry_reports, fresh_reports = score_answers(items, carry), score_answers(items, fresh)
    carry_scores = {aid: carry_reports[aid].bias_by_pair for aid in agent_ids}
    fresh_scores = {aid: fresh_reports[aid].bias_by_pair for aid in agent_ids}
    per_agent: dict[int, dict[str, float]] = {}
    for aid in agent_ids:
        per_agent[aid] = {
            pair: carry_scores[aid][pair] - fresh_scores[aid][pair] for pair in carry_scores[aid]
        }
    pairs = sorted({pair for diffs in per_agent.values() for pair in diffs})
    diffs_by_pair = {
        pair: sum(per_agent[aid][pair] for aid in agent_ids) / len(agent_ids)
        for pair in pairs
    }
    t_tests: dict[str, tuple[float, float, int] | None] = {}
    for pair in pairs:
        samples = [per_agent[aid][pair] for aid in agent_ids]
        try:
            t_tests[pair] = paired_t_test(samples)
        except (TooFewSamples, ZeroVariance):
            t_tests[pair] = None
    return TransferResult(
        diffs_by_pair=diffs_by_pair,
        per_agent=per_agent,
        t_tests=t_tests,
        carry_bias=carry_scores,
        fresh_bias=fresh_scores,
    )


def run_memory_transfer(plan: TransferPlan, instrument: InstrumentSpec) -> TransferResult:
    """:func:`compare_arms` of the two arms; the phase-1 episode and the two
    arms' are kept, tagged source, carry and fresh."""
    source_env = plan.source_env_factory(plan.seed)
    phase1_agents = {aid: plan.agent_factory(aid, plan.memory_factory()) for aid in plan.agent_ids}
    for agent in phase1_agents.values():
        agent.world_tag = source_env.name
    phase1 = run_episode(
        source_env, phase1_agents, max_steps=plan.source_steps, seed=plan.seed, parallel=plan.parallel
    )
    archives = {aid: phase1_agents[aid].memory.to_jsonl() for aid in plan.agent_ids}

    def administer(restore: bool) -> EpisodeLog:
        env = QuestionnaireEnv(instrument.items, seed=plan.phase2_seed, agent_ids=plan.agent_ids)
        agents = {}
        for aid in plan.agent_ids:
            memory = MemoryStore.from_jsonl(archives[aid]) if restore else plan.memory_factory()
            agent = plan.agent_factory(aid, memory)
            agent.world_tag = env.name
            agents[aid] = agent
        return run_episode(env, agents, max_steps=len(instrument.items), seed=plan.phase2_seed, parallel=plan.parallel)

    carry = administer(restore=plan.carry_memory)
    fresh = administer(restore=False)
    result = compare_arms(instrument.items, plan.agent_ids, carry.records, fresh.records)
    episodes = [("source", phase1), ("carry", carry), ("fresh", fresh)]
    return replace(result, source_archives=archives, episodes=episodes)


def transfer_harness(config: ExperimentConfig, episodes: Episodes | None = None) -> HarnessResult:
    """Memory transfer from ``transfer.source`` to the ``transfer.items`` questionnaire."""
    section = config.transfer
    if episodes is None:
        source_steps = config.max_steps if section.source_steps is None else section.source_steps
        check_step_limit(section.source, source_steps, "transfer.source_steps")
        backend = make(BACKENDS, config.backend)
        plan = TransferPlan(
            source_env_factory=lambda seed: build_environment(section.source, seed),
            agent_ids=list(range(section.source["agents"])),
            agent_factory=lambda aid, memory: build_agent(config.agents, backend, aid, "transfer", memory),
            memory_factory=lambda: make(MEMORIES, config.agents.memory or {"kind": "buffer", "capacity": 100}),
            source_steps=source_steps,
            carry_memory=section.carry_memory,
            seed=config.seed,
            phase2_seed=config.seed if section.phase2_seed is None else section.phase2_seed,
            parallel=config.parallel,
        )
        episodes = Episodes(run_memory_transfer(plan, InstrumentSpec(items=section.items)).episodes)
    logs = dict(episodes.logs)
    result = compare_arms(section.items, range(section.source["agents"]), logs["carry"].records, logs["fresh"].records)
    title = "memory transfer: carry minus fresh bias per pair"
    return HarnessResult(title, episodes, result.to_csv(), result.diffs_by_pair)


# --- multi-world -----------------------------------------------------------------------


@dataclass
class MultiWorldSchedule:
    environments: list[Environment]
    cycles: int

    def __post_init__(self):
        if len(self.environments) < 2:
            raise ConfigError("a multi-world schedule needs at least two environments", field="environments")
        if self.cycles < 0:
            raise ConfigError("must be >= 0", field="cycles")


def run_multiworld(
    schedule: MultiWorldSchedule, agents: Mapping[int, Any], seed: int = 0, parallel: bool = False
) -> EpisodeLog:
    """Cycle a shared roster through the environments, one step each per cycle.

    Agent configs and memories persist across phases; environment states are
    never reset between cycles. Log records carry their world tag in
    ``info["world"]``. ``parallel`` fans policy calls out as in :func:`run_episode`.
    """
    observations = {id(env): env.reset() for env in schedule.environments}
    marks = {id(env): 0 for env in schedule.environments}
    records: list[EventRecord] = []
    steps = 0
    with policy_pool(agents, parallel) as pool:
        for _cycle in range(schedule.cycles):
            for env in schedule.environments:
                if env.done():
                    continue
                for agent in agents.values():
                    if hasattr(agent, "world_tag"):
                        agent.world_tag = env.name
                observations[id(env)] = step_world(env, observations[id(env)], agents, pool)
                steps += 1
                fresh = env.events.snapshot(marks[id(env)])
                marks[id(env)] += len(fresh)
                records.extend(replace(record, info={**record.info, "world": env.name}) for record in fresh)
    return EpisodeLog(records=records, total_rewards=dict.fromkeys(agents, 0.0), seed=seed, steps_executed=steps)


def multiworld_harness(config: ExperimentConfig, episodes: Episodes | None = None) -> HarnessResult:
    """One roster cycled through ``multiworld.environments``; the metrics count records per world."""
    section = config.multiworld
    if episodes is None:
        envs = [build_environment(spec, config.seed) for spec in section.environments]
        with _within("multiworld"):
            schedule = MultiWorldSchedule(environments=envs, cycles=section.cycles)
        n = max(spec["agents"] for spec in section.environments)
        agents = build_agents(config.agents, make(BACKENDS, config.backend), n, world_tag=envs[0].name)
        episodes = Episodes([("multiworld", run_multiworld(schedule, agents, seed=config.seed, parallel=config.parallel))])
    ((_, log),) = episodes.logs
    counts = Counter(record.info.get("world", "?") for record in log.records)
    return HarnessResult(  # each kind's environment is named after it
        f"multiworld: {[spec['kind'] for spec in section.environments]} x {section.cycles} cycles",
        episodes,
        csv_table(("world", "records"), sorted(counts.items())),
        {"steps": log.steps_executed, **counts},
    )


# --- tariff ablation -------------------------------------------------------------------


@dataclass(frozen=True)
class AblationSetting:
    """Cumulative levels: 1 = base, 2 = +headline config, 3 = +research
    memory, 4 = +news tool."""

    level: int

    def __post_init__(self):
        if not 1 <= self.level <= 4:
            raise ConfigError("ablation level must be 1..4")

    @property
    def headline_config(self) -> bool:
        return self.level >= 2

    @property
    def research_memory(self) -> bool:
        return self.level >= 3

    @property
    def news_tool(self) -> bool:
        return self.level >= 4


def default_settings() -> list[AblationSetting]:
    return [AblationSetting(level) for level in (1, 2, 3, 4)]


@dataclass
class TariffStudy:
    """Everything the cumulative ablation needs besides the settings list."""

    base_config: MarketConfig
    headline: str
    research_summary: str
    news_feed: list[NewsItem]
    backend_factory: Callable[[int], CompletionBackend]
    agents: AgentsConfig = field(default_factory=AgentsConfig)
    trials: int = 5
    base_seed: int = 0
    parallel: bool = False


def ablation_agents(study: TariffStudy, setting: AblationSetting) -> dict[int, Agent]:
    """Wire one setting's cognitive stack: the study's ``agents`` section (a
    trader persona and a 3-entry buffer unless it says otherwise), plus the
    setting's headline directive and research note."""
    roster = replace(
        study.agents,
        persona_text="You are a stock trader." if study.agents.persona_text is None else study.agents.persona_text,
        memory=study.agents.memory or {"kind": "buffer", "capacity": 3},
    )
    agents = {}
    for aid in range(study.base_config.n_agents):
        agent = build_agent(roster, study.backend_factory(aid), aid, "market")
        if setting.headline_config:
            agent.config.extra_directives.append(study.headline)
        if setting.research_memory:
            agent.memory.record(MemoryEntry(time=0, world_tag="market", role="note", content=study.research_summary))
        agents[aid] = agent
    return agents


def ablation_environment(study: TariffStudy, setting: AblationSetting) -> MarketEnv:
    cfg = replace(
        study.base_config,
        enable_news_tool=setting.news_tool,
        news_feed=list(study.news_feed) if setting.news_tool else [],
    )
    return MarketEnv(cfg)


@dataclass
class AblationRow:
    setting: int
    stock_a: float
    stock_b: float
    delta_a: float | None
    delta_b: float | None


@dataclass
class AblationTable:
    rows: list[AblationRow]
    episodes: list[tuple[str, EpisodeLog]] = field(default_factory=list)

    def to_csv(self) -> str:
        header = ("setting", "stock_A", "stock_B", "delta_A", "delta_B")
        return csv_table(header, (vars(row).values() for row in self.rows))


def ablation_table(episodes: list[tuple[str, EpisodeLog]]) -> AblationTable:
    """Mean buy/sell ratio per stock for each ``setting_<level>/trial/<seed>`` setting, with row-over-row deltas."""
    by_setting: dict[str, list[EpisodeLog]] = {}
    for tag, log in episodes:
        by_setting.setdefault(tag.split("/")[0], []).append(log)
    rows: list[AblationRow] = []
    for setting, logs in by_setting.items():
        a, b = (sum(buy_sell_ratio(log.records, symbol) for log in logs) / len(logs) for symbol in "AB")
        deltas = (a - rows[-1].stock_a, b - rows[-1].stock_b) if rows else (None, None)
        rows.append(AblationRow(int(setting.removeprefix("setting_")), a, b, *deltas))
    return AblationTable(rows=rows, episodes=list(episodes))


def run_tariff_ablation(
    study: TariffStudy,
    settings: Sequence[AblationSetting] | None = None,
) -> AblationTable:
    """:func:`ablation_table` of ``study.trials`` episodes per setting, each run
    to the market's end; the table keeps them all, setting-major."""
    episodes: list[tuple[str, EpisodeLog]] = []
    for setting in settings or default_settings():
        for seed in range(study.base_seed, study.base_seed + study.trials):
            env = ablation_environment(study, setting)
            agents = ablation_agents(study, setting)
            log = run_episode(env, agents, max_steps=None, seed=seed, parallel=study.parallel)
            episodes.append((f"setting_{setting.level}/trial/{seed}", log))
    return ablation_table(episodes)


def ablation_harness(config: ExperimentConfig, episodes: Episodes | None = None) -> HarnessResult:
    """The cumulative tariff ablation over ``ablation.settings`` on the ``environment`` market."""
    section = config.ablation
    if config.environment["kind"] != "market":
        raise ConfigError("ablation runs on a market environment", field="environment.kind")
    if episodes is None:
        with _within("ablation.settings"):
            settings = [AblationSetting(level) for level in section.settings or ()]
            if len(set(settings)) < len(settings):  # the table groups episodes by level
                raise ConfigError("each level may be listed once")
        backend = make(BACKENDS, config.backend)
        study = TariffStudy(
            base_config=_market(config.environment),
            headline=section.headline,
            research_summary=section.summary,
            news_feed=section.news,
            backend_factory=lambda aid: backend,
            agents=config.agents,
            trials=config.trials,
            base_seed=config.seed,
            parallel=config.parallel,
        )
        episodes = Episodes(run_tariff_ablation(study, settings).episodes)
    table = ablation_table(episodes.logs)
    ratios = {f"setting_{row.setting}": f"A={row.stock_a:.4f} B={row.stock_b:.4f}" for row in table.rows}
    return HarnessResult("tariff ablation: mean buy/sell ratios", episodes, table.to_csv(), ratios)


HARNESSES: dict[str, Callable[[ExperimentConfig, Episodes | None], HarnessResult]] = {
    "run": run_harness,
    "trials": trials_harness,
    "transfer": transfer_harness,
    "multiworld": multiworld_harness,
    "ablation": ablation_harness,
}
