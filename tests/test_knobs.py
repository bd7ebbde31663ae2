"""Inventory of the ``FOAM_*`` environment knobs the library reads.

A knob is an option every reader of the code has to know about, so a new
one must be declared here on purpose (and documented in the README), and
a deleted one must leave this list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNOBS = {
    "FOAM_BACKEND",
    "FOAM_DTYPE",
    "FOAM_WORKSPACE",
    "FOAM_COMM",
    "FOAM_COMM_SHM_MIN",
    "FOAM_BENCH_FAST",
}


def _env_key(node: ast.AST) -> str | None:
    """The constant key of an ``environ.get(...)``/``getenv(...)``/``environ[...]``."""
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        key = node.args[0] if name in ("get", "getenv", "setdefault", "pop") else None
    elif isinstance(node, ast.Subscript):
        value = node.value
        name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", "")
        key = node.slice if name == "environ" else None
    else:
        return None
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return None


def _env_reads() -> set[str]:
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            key = _env_key(node)
            if key and key.startswith("FOAM_"):
                found.add(key)
    return found


def test_env_knobs_are_declared():
    assert _env_reads() == KNOBS


def test_env_knobs_are_documented():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(k for k in KNOBS if f"`{k}" not in readme)
    assert not missing, f"knobs not named in README.md: {missing}"
