"""The public surface holds what runs: every name that a module of diagvf
lists in `__all__` is referenced outside its own definition, in the package
(the CLI included) or in the benchmark's ops.  `__init__.py` re-exports
names and does not count as a caller.  A reference is a Name, an Attribute
or an imported name found by `ast`, not a string."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "diagvf").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + [ROOT / "perfbench" / "ops.py"]
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _references(tree, skip) -> set:
    """The names referenced in tree, outside the top-level nodes of skip."""
    found = set()
    for top in tree.body:
        if top in skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


EXPORTS = [(path, name) for path in MODULES for name in _exported(TREES[path])]


def test_every_module_of_the_pipeline_lists_its_surface():
    assert {path.stem for path, _ in EXPORTS} >= {"roots", "model", "measure",
                                                  "series", "pipeline"}


@pytest.mark.parametrize("path, name", EXPORTS,
                         ids=[f"{path.stem}.{name}" for path, name in EXPORTS])
def test_every_public_name_has_a_caller(path, name):
    own = [node for node in TREES[path].body if _defines(node, name)]
    assert own, f"{path.name} lists {name} in __all__ but does not define it"
    callers = [caller.relative_to(ROOT).as_posix() for caller, tree in TREES.items()
               if name in _references(tree, own if caller == path else ())]
    assert callers, f"{path.stem}.{name} is public, but nothing in src/diagvf or perfbench/ops.py uses it"
