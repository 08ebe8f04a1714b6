"""No private module-level name in the library is dead.

Every module of `src/satfuse` is parsed with `ast`.  A private name is one
bound at module level (a function, a class or an assigned constant) that
starts with one underscore and is not a dunder.  Each must be loaded
somewhere in the library's own code, outside its own definition: a helper
that only the tests call, or that a refactor left behind, fails here.
"""

import ast
from pathlib import Path

import satfuse

SRC = Path(satfuse.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name loaded in `tree`, as a bare name or as an attribute."""
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def _modules() -> dict[str, list[ast.stmt]]:
    """Module name -> its module-level statements, for every module of the library."""
    return {path.stem: ast.parse(path.read_text(), str(path)).body
            for path in sorted(SRC.glob("*.py"))}


def private_definitions() -> dict[str, list[str]]:
    """Module name -> the private names its module level defines."""
    return {module: [name for node in body for name in _bound_names(node) if _is_private(name)]
            for module, body in _modules().items()}


def dead_private_names() -> list[str]:
    """`module.name` of each private name that no other statement of the library loads."""
    statements = [(module, node) for module, body in _modules().items() for node in body]
    loads = [_loaded_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in filter(_is_private, _bound_names(node)):
            # loads inside the definition itself (a recursive call) do not count
            if not any(name in names for j, names in enumerate(loads) if j != i):
                dead.append(f"{module}.{name}")
    return dead


def test_every_private_name_is_used_by_the_library():
    assert dead_private_names() == []


def test_the_check_sees_the_library():
    # guards against a parse that finds nothing and so passes trivially
    names = {f"{m}.{n}" for m, ns in private_definitions().items() for n in ns}
    assert {"srcnn._conv2d", "srcnn._conv_gemm", "srcnn._COL_BUDGET", "forest._Tree",
            "forest._check_tree"} <= names
    assert len(names) >= 70


def test_a_helper_left_behind_is_found(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _left_behind():\n    return _left_behind()\n\n"
        "_LIMIT = 4\n\n"
        "def public():\n    return _used() + _LIMIT\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert private_definitions() == {"mod": ["_used", "_left_behind", "_LIMIT"]}
    assert dead_private_names() == ["mod._left_behind"]
