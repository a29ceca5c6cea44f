"""The parameter rule, made mechanical: every defaulted parameter of a public
function or method of the package is passed, by position or by keyword, by
at least one call in src/ or bench/. A parameter that only its default
reaches should go; calls in the tests do not count. Calls are matched by
the called name alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(directory: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path))
            for path in sorted(directory.rglob("*.py"))]


def _public_defs(tree: ast.Module):
    """(def, offset) of each public module function and method; a method's
    offset is 1, as its calls do not pass self or cls."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((item, 1) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node, 0


def _defaulted(func: ast.FunctionDef, offset: int):
    """(position or None, keyword or None) of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    for index in range(len(positional) - len(args.defaults), len(positional)):
        keyword = positional[index].arg if index >= len(args.posonlyargs) else None
        yield index - offset, keyword
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(trees: list[ast.Module]) -> dict[str, list[tuple[int, set[str]]]]:
    """Called name -> (positional count, keywords) of each call to it."""
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords if k.arg}))
    return calls


def test_every_defaulted_parameter_is_passed_by_a_caller():
    package = _parse(ROOT / "src" / "casimir_momentum")
    calls = _calls(package + _parse(ROOT / "bench"))
    unpassed = [f"{func.name}({keyword or position})"
                for tree in package for func, offset in _public_defs(tree)
                if not func.name.startswith("_")
                for position, keyword in _defaulted(func, offset)
                if not any((position is not None and position < count)
                           or keyword in keywords
                           for count, keywords in calls.get(func.name, ()))]
    assert unpassed == []
