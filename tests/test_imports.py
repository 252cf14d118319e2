"""Every module of the package uses each name it imports, and every
module-level UPPER_CASE constant is named somewhere besides its definition.

``__init__.py`` is exempt from the import check: it imports names to
re-export them.
"""

import ast
import re
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
