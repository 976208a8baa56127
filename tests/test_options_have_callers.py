"""Every defaulted parameter of a function, method or constructor in
src/gaugeflow is set by some call in src/, perfbench/ or tests/. A default
that no call overrides is a constant dressed as an option: it doubles the
configurations to reason about and serves no caller, so it goes until a call
needs it.

Calls are matched to definitions by name (a method by its attribute name, a
constructor by its class name), so a call to any function of that name counts;
an instance is called under any name, so every call counts for __call__, and
`cls(...)` in a classmethod is a call of its class. A dataclass's defaulted
fields are parameters of its constructor, at their place among its fields.
A call sets a parameter by keyword, by position (after self for a method or
constructor) or through * or ** arguments. The closure idiom
`def store(g, index=index)`, which binds a loop variable rather than offering
an option, is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugeflow"
SCANNED = ("src", "perfbench", "tests")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defaulted(fn: ast.FunctionDef, skip: int, closure: bool) -> list[tuple[str, int | None]]:
    """(name, positional index after skip or None for keyword-only) of fn's
    defaulted parameters."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    params = [(a, i - skip, d) for i, (a, d) in
              enumerate(zip(positional[first:], fn.args.defaults), start=first)]
    params += [(a, None, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None]
    return [(a.arg, i) for a, i, d in params
            if not (closure and isinstance(d, ast.Name) and d.id == a.arg)]


def _decorated(node, name: str) -> bool:
    """Whether node carries the decorator `name` or `name(...)`."""
    return any(_callee(d.func if isinstance(d, ast.Call) else d) == name
               for d in node.decorator_list)


def _fields(cls: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) of a dataclass's fields, in order: its annotated
    class attributes (the package has no ClassVar or init=False field)."""
    return [(stmt.target.id, stmt.value is not None) for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _definitions() -> list[tuple[str, str, str, int | None]]:
    """(where, callee name, parameter, positional index) of every defaulted
    parameter defined in the package."""
    found = []

    def visit(node, module, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _decorated(child, "dataclass"):
                    for index, (name, default) in enumerate(_fields(child)):
                        if default:
                            found.append((f"{module}:{child.lineno} {child.name}",
                                          child.name, name, index))
                visit(child, module, child, in_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = _decorated(child, "staticmethod")
                method = owner is not None and not static
                name = owner.name if method and child.name == "__init__" else child.name
                where = f"{module}:{child.lineno} {name}"
                for param, index in _defaulted(child, int(method), in_function):
                    found.append((where, name, param, index))
                visit(child, module, None, True)
            else:
                visit(child, module, owner, in_function)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(_parse(path), path.relative_to(ROOT).as_posix(), None, False)
    return found


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls() -> dict[str, list[tuple[int, bool, set[str], bool]]]:
    """Per callee name: (positional count, has * argument, keywords, has **
    argument) of every call in the scanned trees."""
    calls: dict = {}

    def record(name, node):
        args = node.args
        star = any(isinstance(a, ast.Starred) for a in args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        double_star = any(k.arg is None for k in node.keywords)
        calls.setdefault(name, []).append((len(args), star, keywords, double_star))

    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call) and _callee(node.func) is not None:
                    record(_callee(node.func), node)
                if isinstance(node, ast.ClassDef):
                    for method in node.body:
                        if (isinstance(method, ast.FunctionDef)
                                and _decorated(method, "classmethod")):
                            for call in ast.walk(method):
                                if isinstance(call, ast.Call) and _callee(call.func) == "cls":
                                    record(node.name, call)
    return calls


def _is_set(param: str, index: int | None, call) -> bool:
    n_positional, star, keywords, double_star = call
    if double_star or param in keywords:
        return True
    if index is None:
        return False
    return star or index < n_positional


def test_every_defaulted_parameter_has_a_call_that_sets_it():
    calls = _calls()
    every_call = [c for cs in calls.values() for c in cs]
    unset = [f"{where}({param})" for where, name, param, index in _definitions()
             if not any(_is_set(param, index, c)
                        for c in (every_call if name == "__call__" else calls.get(name, ())))]
    assert not unset, "defaulted parameters no call sets:\n" + "\n".join(unset)
