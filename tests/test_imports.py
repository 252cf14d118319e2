"""Every module of the package uses each name it imports, every
module-level UPPER_CASE constant is named somewhere besides its definition,
every per-layer family of the benchmark's tracer still measures a cogsim
function, a run on a local backend never loads the HTTP client, and a
library run that writes its own bundle loads only the layers it uses.

``__init__.py`` is exempt from the import check: it imports names to
re-export them.
"""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "cogsim"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in ``tree``, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def constants(tree: ast.Module) -> list[str]:
    """The UPPER_CASE names bound by ``tree``'s top-level assignments."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]


def test_every_constant_is_named_outside_its_definition():
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in constants(ast.parse(path.read_text(encoding="utf-8"))):
            pattern = re.compile(rf"\b{name}\b")
            if sum(len(pattern.findall(text)) for text in texts) < 2:
                unused.append(f"{path.relative_to(PACKAGE)}:{name}")
    assert not unused, f"constants that nothing names: {unused}"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def anchor_resolves(name: str, modules: tuple[str, ...]) -> bool:
    """Whether ``name`` is what ``Tracer.install`` wraps: a function of a traced
    module, or a function in the own ``__dict__`` of a class defined there."""
    short = max((m for m in modules if name.startswith(f"{m}.")), key=len, default=None)
    if short is None:
        return False
    module = importlib.import_module(f"cogsim.{short}")
    owner, _, attr = name[len(short) + 1:].rpartition(".")
    if not owner:
        return inspect.isfunction(vars(module).get(attr))
    cls = vars(module).get(owner)
    if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
        return False
    value = vars(cls).get(attr)
    return inspect.isfunction(value.__func__ if isinstance(value, (staticmethod, classmethod)) else value)


def test_every_tracer_family_keeps_a_live_anchor():
    tracer = load_tracer()
    synthetic = {tracer.HTTP, tracer.BACKOFF, tracer.MODEL}
    families: dict[str, list[str]] = {}
    for name, family in tracer.ANCHORS.items():
        if family not in synthetic:
            families.setdefault(family, []).append(name)
    dead = sorted(
        family for family, names in families.items() if not any(anchor_resolves(n, tracer.MODULES) for n in names)
    )
    assert not dead, f"tracer families whose every anchor names no cogsim function: {dead}"


STARTUP = """
import sys
import cogsim, cogsim.cli
assert cogsim.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(name for name in ("requests", "urllib3") if name in sys.modules))
"""


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports cogsim from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True, timeout=60)


def test_local_run_never_imports_the_http_client(tmp_path):
    done = run_fresh(STARTUP, ROOT / "configs" / "market_small.json", tmp_path / "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", f"a scripted run loaded the HTTP client: {done.stdout}"


LIBRARY_RUN = """
import json, sys
from pathlib import Path
import cogsim, cogsim.cli
from cogsim import Agent, CompletionResult, ScriptedBackend, run_episode
from cogsim.envs.economy import EconomyConfig, EconomyEnv

env = EconomyEnv(EconomyConfig(n_households=3, months=2))
answer = CompletionResult(content=json.dumps({"work_propensity": 0.6, "consumption_propensity": 0.4}))
agents = {aid: Agent(aid, backend=ScriptedBackend(default=answer), world_tag=env.name) for aid in env.agent_ids}
log = run_episode(env, agents, max_steps=None)
bundle = cogsim.cli.BundleWriter(Path(sys.argv[1]), b"{}", log.seed)
bundle.write("events.jsonl", log.to_jsonl())
bundle.finalize()
print(log.steps_executed)
print(sorted(name for name in sys.argv[2:] if name in sys.modules))
"""

UNUSED_BY_A_LIBRARY_RUN = ("cogsim.runners", "cogsim.envs.auction", "cogsim.envs.questionnaire", "concurrent.futures", "logging")


def test_library_run_loads_only_the_layers_it_uses(tmp_path):
    done = run_fresh(LIBRARY_RUN, tmp_path / "out", *UNUSED_BY_A_LIBRARY_RUN)
    assert done.returncode == 0, done.stderr
    steps, loaded = done.stdout.splitlines()[-2:]
    assert steps == "2"
    assert loaded == "[]", f"a serial scripted run loaded layers it never uses: {loaded}"
    assert (tmp_path / "out" / "manifest.json").is_file()
