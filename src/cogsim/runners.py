"""Experiment harnesses: single runs, repeated trials, memory transfer
across environments, multi-world cycling, and the tariff-shock cumulative
ablation. Each CLI subcommand but ``score`` is a ``<name>_harness(config)``
here that returns a :class:`HarnessResult` of tagged episodes.

Every harness is deterministic given its config: trial i always runs with
seed base+i, transfer arms share the same phase-2 seed so memory content is
the only varying factor, and multi-world runs never reset environment state
between cycles.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Sequence

from .backends import CompletionBackend, CompletionResult, RemoteBackend, ReplayBackend, ScriptedBackend
from .cognition import Agent, PersonaConfig
from .envs.auction import AuctionEnv, AuctionItem
from .envs.economy import EconomyConfig, EconomyEnv, phillips_okun_report
from .envs.market import MarketConfig, MarketEnv, NewsItem, buy_sell_ratio, load_news_feed, session_metrics_csv
from .envs.questionnaire import Item, QuestionnaireEnv, load_item_bank
from .envs.social import SocialEnv, star_profiles
from .errors import ConfigError, TooFewSamples, ZeroVariance
from .memory import MemoryEntry, MemoryStore, memory_from_spec
from .protocol import Environment, EpisodeLog, EventRecord, run_episode, step_world
from .stats import mean_and_pstdev, paired_t_test


# --- config-driven construction -------------------------------------------------


@dataclass
class ExperimentConfig:
    """The config schema: its fields are the allowed top-level keys and its defaults the only defaults."""

    environment: dict[str, Any]
    agents: dict[str, Any] = field(default_factory=dict)
    backend: dict[str, Any] = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    max_steps: int | None = None  # None: until the environment ends, which social never does
    out: str | None = None
    transfer: dict[str, Any] | None = None
    multiworld: dict[str, Any] | None = None
    ablation: dict[str, Any] | None = None


def _scripted_backend(spec: Mapping[str, Any]) -> CompletionBackend:
    """A rule table from ``rules``, a list of ``{contains, content}`` objects,
    falling back to ``default_content``; each of them a non-empty string."""

    def text(value: Any, field: str) -> str:
        if not isinstance(value, str) or not value:
            raise ConfigError("must be a non-empty string", field=field)
        return value

    rules = spec.get("rules", [])
    if not isinstance(rules, list):
        raise ConfigError("must be a list", field="backend.rules")
    table = []
    for i, rule in enumerate(rules):
        path = f"backend.rules[{i}]"
        if not isinstance(rule, dict):
            raise ConfigError("must be an object", field=path)
        reject_unknown(rule, ("contains", "content"), path)
        needle, content = text(rule.get("contains"), f"{path}.contains"), text(rule.get("content"), f"{path}.content")
        table.append((lambda rendered, needle=needle: needle in rendered, CompletionResult(content=content)))
    default = text(spec.get("default_content", "{}"), "backend.default_content")
    return ScriptedBackend(table, default=CompletionResult(content=default))


def _replay_backend(spec: Mapping[str, Any]) -> CompletionBackend:
    path = Path(spec["transcript_path"])
    if not path.is_file():
        raise ConfigError(f"file not found: {path}", field="backend.transcript_path")
    return ReplayBackend.from_jsonl(path.read_text(encoding="utf-8"), strict=spec.get("strict", True))


@dataclass(frozen=True)
class BackendKind:
    """How one backend kind is built from the ``backend`` section, and which keys it takes."""

    build: Callable[[Mapping[str, Any]], CompletionBackend]
    keys: frozenset[str]
    required: tuple[str, ...] = ()


BACKENDS: dict[str, BackendKind] = {
    "scripted": BackendKind(_scripted_backend, frozenset({"rules", "default_content"})),
    "replay": BackendKind(_replay_backend, frozenset({"transcript_path", "strict"}), required=("transcript_path",)),
    "remote": BackendKind(
        lambda spec: RemoteBackend(**{key: value for key, value in spec.items() if key != "kind"}),
        frozenset({"endpoint", "auth_env", "in_flight_limit", "timeout"}),
        required=("endpoint",),
    ),
}


def reject_unknown(section: Mapping[str, Any], allowed: Collection[str], prefix: str) -> None:
    """Raise :class:`ConfigError` naming the dotted path of the first key not in ``allowed``."""
    for key in section:
        if key not in allowed:
            raise ConfigError(f'unknown key "{key}"', field=f"{prefix}.{key}" if prefix else key)


def _checked_kind(table: Mapping[str, Any], spec: Any, path: str, noun: str, default: str | None = None) -> Any:
    """``table``'s entry for ``spec``'s kind (``default`` when it names none),
    once ``spec`` is checked to be an object with that kind's keys."""
    if not isinstance(spec, dict):
        raise ConfigError("must be an object", field=path)
    name = spec.get("kind", default)
    kind = table.get(name)
    if kind is None:
        raise ConfigError(f"unknown {noun} kind {name!r}", field=f"{path}.kind")
    reject_unknown(spec, kind.keys | {"kind"}, path)
    for key in kind.required:
        if key not in spec:
            raise ConfigError(f'missing key "{key}"', field=f"{path}.{key}")
    return kind


def backend_kind(spec: Mapping[str, Any]) -> BackendKind:
    """The table entry for the ``backend`` section's kind, scripted by default."""
    return _checked_kind(BACKENDS, spec, "backend", "backend", default="scripted")


def build_backend(spec: Mapping[str, Any]) -> CompletionBackend:
    return backend_kind(spec).build(spec)


def _load_jsonl(load: Callable[[str], list], spec: Any, field: str) -> list:
    """``load`` applied to JSONL given either as a file path or as an inline
    list of objects; a malformed entry raises :class:`ConfigError` naming ``field``."""
    if isinstance(spec, list):
        text = "\n".join(json.dumps(obj) for obj in spec)
    elif not isinstance(spec, str):
        raise ConfigError("must be a file path or an inline list", field=field)
    elif not Path(spec).exists():
        raise ConfigError(f"file not found: {spec}", field=field)
    else:
        text = Path(spec).read_text(encoding="utf-8")
    try:
        return load(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed entry: {type(exc).__name__}: {exc}", field=field) from exc


def news_feed_from_spec(spec: Any, field: str) -> list[NewsItem]:
    return _load_jsonl(load_news_feed, spec, field)


def item_bank_from_spec(spec: Any, field: str) -> list[Item]:
    return _load_jsonl(load_item_bank, spec, field)


def _metric_table(env: Environment, records: list[EventRecord]) -> str:
    return "metric,value\n" + "".join(f"{name},{value}\n" for name, value in sorted(env.metrics().items()))


@dataclass(frozen=True)
class EnvironmentKind:
    """How one environment kind is built from its config section and reported.

    ``build(params, agents, seed)`` gets the section without ``kind`` and
    ``agents``. ``records_only`` marks a ``metrics_csv`` that reads the event
    records and not the environment, so ``score`` can use it. ``ends`` is
    false for a kind whose ``done()`` never holds, which runs only with a
    step limit.
    """

    build: Callable[[dict[str, Any], int, int], Environment]
    keys: frozenset[str]
    agents: int
    metrics_csv: Callable[[Environment, list[EventRecord]], str] = _metric_table
    records_only: bool = False
    required: tuple[str, ...] = ()
    report: Callable[[Environment], str] = lambda env: ""
    ends: bool = True


def _config_keys(config_cls: type, *internal: str) -> frozenset[str]:
    return frozenset(f.name for f in fields(config_cls)).difference(internal) | {"agents"}


def _market(params: dict[str, Any], n: int, seed: int) -> Environment:
    feed = news_feed_from_spec(params.pop("news_feed", []), "environment.news_feed")
    return MarketEnv(MarketConfig(n_agents=n, news_feed=feed, **params))


def _auction(params: dict[str, Any], n: int, seed: int) -> Environment:
    items = [
        AuctionItem(i["name"], i["starting_price"], i["true_value"], i["estimated_value"]) for i in params.pop("items")
    ]
    return AuctionEnv(items, bidder_ids=list(range(n)), **params)


ENVIRONMENTS: dict[str, EnvironmentKind] = {
    "market": EnvironmentKind(
        _market,
        # JSON cannot carry a date or an int-keyed dict
        _config_keys(MarketConfig, "n_agents", "start_date", "events_by_day"),
        agents=50,
        metrics_csv=lambda env, records: session_metrics_csv(records),
        records_only=True,
    ),
    "economy": EnvironmentKind(
        lambda params, n, seed: EconomyEnv(EconomyConfig(n_households=n, seed=seed, **params)),
        _config_keys(EconomyConfig, "n_households", "seed"),
        agents=100,
        metrics_csv=lambda env, records: env.indicators_csv(),
        report=lambda env: phillips_okun_report(env.indicators) if len(env.indicators) >= 3 else "",
    ),
    "social": EnvironmentKind(
        lambda params, n, seed: SocialEnv(star_profiles(n, params.get("influencer", 0)), **params),
        frozenset({"agents", "influencer", "feed_cap", "seed_post"}),
        agents=111,
        ends=False,
    ),
    "auction": EnvironmentKind(
        _auction, frozenset({"agents", "items", "budget", "min_increment", "objectives"}), agents=3, required=("items",)
    ),
    "questionnaire": EnvironmentKind(
        lambda params, n, seed: QuestionnaireEnv(
            item_bank_from_spec(params["items"], "environment.items"), seed=seed, agent_ids=list(range(n))
        ),
        frozenset({"agents", "items"}),
        agents=1,
        required=("items",),
    ),
}


def environment_kind(spec: Mapping[str, Any], path: str = "environment") -> EnvironmentKind:
    """The table entry for ``spec``'s kind, once its keys, its roster size
    (an int >= 1) and any feed cap (an int >= 0) are checked; errors name the
    offending key's dotted path under ``path``."""
    kind = _checked_kind(ENVIRONMENTS, spec, path, "environment")
    for key, low in (("agents", 1), ("feed_cap", 0)):
        if key in spec and (type(spec[key]) is not int or spec[key] < low):  # bool is an int subclass
            raise ConfigError(f"must be an integer >= {low}", field=f"{path}.{key}")
    return kind


def check_step_limit(spec: Mapping[str, Any], max_steps: int | None, field: str = "max_steps") -> None:
    """Raise :class:`ConfigError` naming ``field`` when an environment built
    from ``spec`` never ends by itself and ``max_steps`` sets no limit."""
    if max_steps is None and not environment_kind(spec).ends:
        raise ConfigError(f"a {spec['kind']} environment never ends by itself; set a step limit", field=field)


def roster_size(spec: Mapping[str, Any]) -> int:
    """How many agents an environment built from ``spec`` expects."""
    return spec.get("agents", environment_kind(spec).agents)


def build_environment(spec: Mapping[str, Any], seed: int) -> Environment:
    kind = environment_kind(spec)
    params = {k: v for k, v in spec.items() if k not in ("kind", "agents")}
    return kind.build(params, spec.get("agents", kind.agents), seed)


def build_agent(
    roster: Mapping[str, Any], backend: CompletionBackend, aid: int, world_tag: str, memory: MemoryStore | None = None
) -> Agent:
    """The one place an ``agents`` section becomes an :class:`Agent`; ``memory`` overrides its ``memory`` spec."""
    return Agent(
        agent_id=aid,
        config=PersonaConfig(roster.get("persona_text", ""), list(roster.get("extra_directives", []))),
        memory=memory_from_spec(roster.get("memory", {})) if memory is None else memory,
        backend=backend,
        world_tag=world_tag,
        max_tool_rounds=roster.get("max_tool_rounds", 5),
        max_parse_retries=roster.get("max_parse_retries", 2),
    )


def build_agents(
    roster: Mapping[str, Any], backend: CompletionBackend, n_agents: int, world_tag: str
) -> dict[int, Agent]:
    return {aid: build_agent(roster, backend, aid, world_tag) for aid in range(n_agents)}


def build_setup(config: ExperimentConfig, seed: int) -> tuple[Environment, dict[int, Agent]]:
    env = build_environment(config.environment, seed)
    backend = build_backend(config.backend)
    agents = build_agents(config.agents, backend, roster_size(config.environment), world_tag=env.name)
    return env, agents


@dataclass
class HarnessResult:
    """A harness's episodes, tagged, in run order; its metrics table; and its summary:
    ``title``, one indented ``name: value`` line per ``summary`` pair, then ``report``."""

    title: str
    episodes: list[tuple[str, EpisodeLog]]
    metrics_csv: str
    summary: dict[str, Any] = field(default_factory=dict)
    report: str = ""


def run_harness(config: ExperimentConfig) -> HarnessResult:
    """One episode of ``config.environment`` at ``config.seed``."""
    kind = environment_kind(config.environment)
    check_step_limit(config.environment, config.max_steps)
    env, agents = build_setup(config, config.seed)
    log = run_episode(env, agents, max_steps=config.max_steps, seed=config.seed)
    summary = {"seed": config.seed, "steps": log.steps_executed, **env.metrics()}
    title = f"run: {config.environment['kind']} environment"
    return HarnessResult(title, [("run", log)], kind.metrics_csv(env, log.records), summary, kind.report(env))


# --- repeated trials ----------------------------------------------------------------


@dataclass
class TrialsResult:
    rows: list[tuple[int, dict[str, float]]]
    failures: list[tuple[int, str]]
    episodes: list[tuple[str, EpisodeLog]]

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
        lines = ["seed," + ",".join(names)]
        for seed, metrics in self.rows:
            lines.append(str(seed) + "," + ",".join(str(metrics.get(n, "")) for n in names))
        means, stds = self.summary()
        lines.append("mean," + ",".join(str(means[n]) for n in names))
        lines.append("stddev," + ",".join(str(stds[n]) for n in names))
        return "\n".join(lines) + "\n"


def run_trials(config: ExperimentConfig) -> TrialsResult:
    """Run ``config.trials`` independent episodes with seeds base, base+1, ...

    A failing trial is recorded under ``failures`` and the rest proceed.
    """
    if config.trials < 1:
        raise ConfigError("trials must be >= 1", field="trials")
    check_step_limit(config.environment, config.max_steps)
    rows: list[tuple[int, dict[str, float]]] = []
    failures: list[tuple[int, str]] = []
    episodes: list[tuple[str, EpisodeLog]] = []
    for i in range(config.trials):
        seed = config.seed + i
        try:
            env, agents = build_setup(config, seed)
            log = run_episode(env, agents, max_steps=config.max_steps, seed=seed)
            rows.append((seed, env.metrics()))
            episodes.append((f"trial/{seed}", log))
        except Exception as exc:  # a broken trial must not sink the study
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
    return TrialsResult(rows=rows, failures=failures, episodes=episodes)


def trials_harness(config: ExperimentConfig) -> HarnessResult:
    result = run_trials(config)
    means, stds = result.summary()
    summary = {"seeds": f"{config.seed}..{config.seed + config.trials - 1}", "failures": len(result.failures)}
    summary.update({f"mean_{k}": v for k, v in means.items()})
    summary.update({f"stddev_{k}": v for k, v in stds.items()})
    title = f"trials: {config.trials} runs of {config.environment['kind']}"
    return HarnessResult(title, result.episodes, result.to_csv(), summary)


# --- memory transfer ------------------------------------------------------------------


@dataclass
class TransferPlan:
    """Phase 1 populates memories in the source world; phase 2 administers the
    instrument twice, with carried and with fresh stores."""

    source_env_factory: Callable[[int], Environment]
    agent_ids: list[int]
    agent_factory: Callable[[int, MemoryStore], Agent]
    memory_factory: Callable[[], MemoryStore]
    source_steps: int | None = 10
    carry_memory: bool = True
    seed: int = 0
    phase2_seed: int = 0


@dataclass
class InstrumentSpec:
    items: list[Item]


@dataclass
class TransferResult:
    diffs_by_pair: dict[str, float]
    per_agent: dict[int, dict[str, float]]
    t_tests: dict[str, tuple[float, float, int] | None]
    source_archives: dict[int, str]
    carry_bias: dict[int, dict[str, float]] = field(default_factory=dict)
    fresh_bias: dict[int, dict[str, float]] = field(default_factory=dict)
    episodes: list[tuple[str, EpisodeLog]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["pair,diff,t,p,df"]
        for pair in sorted(self.diffs_by_pair):
            stats = self.t_tests.get(pair)
            lines.append(f"{pair},{self.diffs_by_pair[pair]}," + (",," if stats is None else ",".join(map(str, stats))))
        return "\n".join(lines) + "\n"


def run_memory_transfer(plan: TransferPlan, instrument: InstrumentSpec) -> TransferResult:
    """Per-pair bias difference: carried-memory arm minus fresh-memory arm; the
    phase-1 episode and the two arms' are kept, tagged source, carry and fresh."""
    source_env = plan.source_env_factory(plan.seed)
    phase1_agents = {aid: plan.agent_factory(aid, plan.memory_factory()) for aid in plan.agent_ids}
    for agent in phase1_agents.values():
        agent.world_tag = source_env.name
    episodes = [("source", run_episode(source_env, phase1_agents, max_steps=plan.source_steps, seed=plan.seed))]
    archives = {aid: phase1_agents[aid].memory.to_jsonl() for aid in plan.agent_ids}

    def administer(tag: str, restore: bool) -> dict[int, dict[str, float]]:
        env = QuestionnaireEnv(instrument.items, seed=plan.phase2_seed, agent_ids=plan.agent_ids)
        agents = {}
        for aid in plan.agent_ids:
            memory = MemoryStore.from_jsonl(archives[aid]) if restore else plan.memory_factory()
            agent = plan.agent_factory(aid, memory)
            agent.world_tag = env.name
            agents[aid] = agent
        episodes.append((tag, run_episode(env, agents, max_steps=len(instrument.items), seed=plan.phase2_seed)))
        return {aid: env.score_report(aid).bias_by_pair for aid in plan.agent_ids}

    carry_scores = administer("carry", restore=plan.carry_memory)
    fresh_scores = administer("fresh", restore=False)

    per_agent: dict[int, dict[str, float]] = {}
    for aid in plan.agent_ids:
        per_agent[aid] = {
            pair: carry_scores[aid][pair] - fresh_scores[aid][pair] for pair in carry_scores[aid]
        }
    pairs = sorted({pair for diffs in per_agent.values() for pair in diffs})
    diffs_by_pair = {
        pair: sum(per_agent[aid][pair] for aid in plan.agent_ids) / len(plan.agent_ids)
        for pair in pairs
    }
    t_tests: dict[str, tuple[float, float, int] | None] = {}
    for pair in pairs:
        samples = [per_agent[aid][pair] for aid in plan.agent_ids]
        try:
            t_tests[pair] = paired_t_test(samples)
        except (TooFewSamples, ZeroVariance):
            t_tests[pair] = None
    return TransferResult(
        diffs_by_pair=diffs_by_pair,
        per_agent=per_agent,
        t_tests=t_tests,
        source_archives=archives,
        carry_bias=carry_scores,
        fresh_bias=fresh_scores,
        episodes=episodes,
    )


def transfer_harness(config: ExperimentConfig) -> HarnessResult:
    """Memory transfer from ``transfer.source`` to the ``transfer.items`` questionnaire."""
    section = config.transfer or {}
    if "source" not in section or "items" not in section:
        raise ConfigError("transfer needs source and items", field="transfer")
    items = item_bank_from_spec(section["items"], "transfer.items")
    source_spec = section["source"]
    source_steps = section.get("source_steps", config.max_steps)
    check_step_limit(source_spec, source_steps, "transfer.source_steps")
    backend = build_backend(config.backend)
    plan = TransferPlan(
        source_env_factory=lambda seed: build_environment(source_spec, seed),
        agent_ids=list(range(roster_size(source_spec))),
        agent_factory=lambda aid, memory: build_agent(config.agents, backend, aid, "transfer", memory),
        memory_factory=lambda: memory_from_spec(config.agents.get("memory", {"kind": "buffer", "capacity": 100})),
        source_steps=source_steps,
        carry_memory=section.get("carry_memory", True),
        seed=config.seed,
        phase2_seed=section.get("phase2_seed", config.seed),
    )
    result = run_memory_transfer(plan, InstrumentSpec(items=items))
    title = "memory transfer: carry minus fresh bias per pair"
    return HarnessResult(title, result.episodes, result.to_csv(), result.diffs_by_pair)


# --- multi-world -----------------------------------------------------------------------


@dataclass
class MultiWorldSchedule:
    environments: list[Environment]
    cycles: int

    def __post_init__(self):
        if len(self.environments) < 2:
            raise ValueError("a multi-world schedule needs at least two environments")
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")


def run_multiworld(schedule: MultiWorldSchedule, agents: Mapping[int, Any], seed: int = 0) -> EpisodeLog:
    """Cycle a shared roster through the environments, one step each per cycle.

    Agent configs and memories persist across phases; environment states are
    never reset between cycles. Log records carry their world tag in
    ``info["world"]``.
    """
    observations = {id(env): env.reset() for env in schedule.environments}
    marks = {id(env): 0 for env in schedule.environments}
    records: list[EventRecord] = []
    steps = 0
    for _cycle in range(schedule.cycles):
        for env in schedule.environments:
            if env.done():
                continue
            for agent in agents.values():
                if hasattr(agent, "world_tag"):
                    agent.world_tag = env.name
            observations[id(env)] = step_world(env, observations[id(env)], agents)
            steps += 1
            fresh = env.events.snapshot(marks[id(env)])
            marks[id(env)] += len(fresh)
            records.extend(replace(record, info={**record.info, "world": env.name}) for record in fresh)
    return EpisodeLog(records=records, total_rewards=dict.fromkeys(agents, 0.0), seed=seed, steps_executed=steps)


def multiworld_harness(config: ExperimentConfig) -> HarnessResult:
    """One roster cycled through ``multiworld.environments``; the metrics count records per world."""
    section = config.multiworld or {}
    specs = section.get("environments", [])
    if len(specs) < 2:
        raise ConfigError("multiworld needs at least two environments", field="multiworld.environments")
    cycles = section.get("cycles", 1)
    if type(cycles) is not int or cycles < 0:  # bool is an int subclass
        raise ConfigError("must be an integer >= 0", field="multiworld.cycles")
    envs = [build_environment(spec, config.seed) for spec in specs]
    n = max(roster_size(spec) for spec in specs)
    agents = build_agents(config.agents, build_backend(config.backend), n, world_tag=envs[0].name)
    log = run_multiworld(MultiWorldSchedule(environments=envs, cycles=cycles), agents, seed=config.seed)
    counts = Counter(record.info.get("world", "?") for record in log.records)
    return HarnessResult(
        f"multiworld: {[e.name for e in envs]} x {cycles} cycles",
        [("multiworld", log)],
        "world,records\n" + "".join(f"{world},{counts[world]}\n" for world in sorted(counts)),
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
            raise ValueError("ablation level must be 1..4")

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
    agents: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 5
    base_seed: int = 0


def ablation_agents(study: TariffStudy, setting: AblationSetting) -> dict[int, Agent]:
    """Wire one setting's cognitive stack: the study's ``agents`` section (a
    trader persona and a 3-entry buffer unless it says otherwise), plus the
    setting's headline directive and research note."""
    roster = {"persona_text": "You are a stock trader.", "memory": {"kind": "buffer", "capacity": 3}, **study.agents}
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
        lines = ["setting,stock_A,stock_B,delta_A,delta_B"]
        for row in self.rows:
            da = "" if row.delta_a is None else str(row.delta_a)
            db = "" if row.delta_b is None else str(row.delta_b)
            lines.append(f"{row.setting},{row.stock_a},{row.stock_b},{da},{db}")
        return "\n".join(lines) + "\n"


def run_tariff_ablation(
    study: TariffStudy,
    settings: Sequence[AblationSetting] | None = None,
) -> AblationTable:
    """Mean buy/sell ratio per stock for each setting, with row-over-row deltas.

    Each episode runs to the market's end; the table keeps them all, tagged
    ``setting_<level>/trial/<seed>``, setting-major."""
    settings = list(settings or default_settings())
    rows: list[AblationRow] = []
    episodes: list[tuple[str, EpisodeLog]] = []
    for setting in settings:
        ratios_a: list[float] = []
        ratios_b: list[float] = []
        for i in range(study.trials):
            seed = study.base_seed + i
            env = ablation_environment(study, setting)
            agents = ablation_agents(study, setting)
            log = run_episode(env, agents, max_steps=None, seed=seed)
            episodes.append((f"setting_{setting.level}/trial/{seed}", log))
            ratios_a.append(buy_sell_ratio(log.records, "A"))
            ratios_b.append(buy_sell_ratio(log.records, "B"))
        mean_a = sum(ratios_a) / len(ratios_a)
        mean_b = sum(ratios_b) / len(ratios_b)
        previous = rows[-1] if rows else None
        rows.append(
            AblationRow(
                setting=setting.level,
                stock_a=mean_a,
                stock_b=mean_b,
                delta_a=None if previous is None else mean_a - previous.stock_a,
                delta_b=None if previous is None else mean_b - previous.stock_b,
            )
        )
    return AblationTable(rows=rows, episodes=episodes)


def ablation_harness(config: ExperimentConfig) -> HarnessResult:
    """The cumulative tariff ablation over ``ablation.settings`` on the ``environment`` market."""
    section = config.ablation or {}
    for required in ("headline", "summary", "news"):
        if required not in section:
            raise ConfigError(f"ablation needs {required}", field=f"ablation.{required}")
    if config.environment.get("kind") != "market":
        raise ConfigError("ablation runs on a market environment", field="environment.kind")
    levels = section.get("settings", [1, 2, 3, 4])
    if not isinstance(levels, list) or not all(type(level) is int and 1 <= level <= 4 for level in levels):
        raise ConfigError("must be a list of levels 1..4", field="ablation.settings")
    backend = build_backend(config.backend)
    study = TariffStudy(
        base_config=build_environment(config.environment, config.seed).config,
        headline=section["headline"],
        research_summary=section["summary"],
        news_feed=news_feed_from_spec(section["news"], "ablation.news"),
        backend_factory=lambda aid: backend,
        agents=config.agents,
        trials=config.trials,
        base_seed=config.seed,
    )
    table = run_tariff_ablation(study, [AblationSetting(level) for level in levels])
    ratios = {f"setting_{row.setting}": f"A={row.stock_a:.4f} B={row.stock_b:.4f}" for row in table.rows}
    return HarnessResult("tariff ablation: mean buy/sell ratios", table.episodes, table.to_csv(), ratios)
