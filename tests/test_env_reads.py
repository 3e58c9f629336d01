"""No global switch hides in the library: the only environment variables
``src/repro`` reads are the three harness settings. Every reference path
is reached by a config value or by its function name, so the one tier-1
run covers all of them."""

import ast
from pathlib import Path

import repro

#: Benchmark-harness settings (scale, seed, perf-record directory). They
#: size and place runs; none of them selects an implementation.
ALLOWED = {"REPRO_SCALE", "REPRO_SEED", "REPRO_BENCH_DIR"}

SRC = Path(repro.__file__).parent


def _env_reads(tree):
    """``(line, key)`` for every use of ``environ`` or ``getenv``; ``key``
    is the variable name when the use is a read of a literal name
    (``environ.get("X")``, ``environ["X"]``, ``getenv("X")``), else None."""
    parents = {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name not in ("environ", "getenv"):
            continue
        parent = parents.get(node)
        args = []
        if name == "environ" and isinstance(parent, ast.Attribute):
            call = parents.get(parent)
            if parent.attr == "get" and isinstance(call, ast.Call):
                args = call.args
        elif name == "environ" and isinstance(parent, ast.Subscript):
            args = [parent.slice]
        elif name == "getenv" and isinstance(parent, ast.Call):
            args = parent.args
        key = None
        if args and isinstance(args[0], ast.Constant):
            key = args[0].value
        yield node.lineno, key


def test_only_harness_settings_read_from_environment():
    found = set()
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, key in _env_reads(tree):
            if key in ALLOWED:
                found.add(key)
            else:
                offenders.append(f"{path.relative_to(SRC)}:{line} reads {key!r}")
    assert offenders == []
    # The scan sees the reads it allows, so an empty offender list means
    # something.
    assert "REPRO_SCALE" in found
