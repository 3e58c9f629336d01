"""The shipped package stands alone: no module under ``src/repro``
imports the ``tests`` package. The reference implementations the
equivalence suites compare against live in ``tests/reference``; the
library must never reach back into them."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imported_modules(tree):
    """``(line, module)`` for every absolute import in ``tree``, including
    ``importlib.import_module("...")`` / ``__import__("...")`` calls with a
    literal name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.lineno, node.module
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            else:
                name = getattr(func, "id", None)
            arg = node.args[0]
            if (
                name in ("import_module", "__import__")
                and isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
            ):
                yield node.lineno, arg.value


def test_src_never_imports_tests():
    offenders = []
    seen = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, module in _imported_modules(tree):
            top = module.split(".", 1)[0]
            seen.add(top)
            if top == "tests":
                offenders.append(f"{path.relative_to(SRC)}:{line} imports {module}")
    assert offenders == []
    # The scan sees the package's own imports, so an empty offender list
    # means something.
    assert "repro" in seen
