"""No module of the package executes code built from data.

Scheduler logic reaches the service only as a ``policy`` tree, which is
validated and compiled, never executed as Python.  This guard keeps it
that way: it parses every module under ``src/repro`` and fails on any
call to the ``exec``, ``eval`` or ``compile`` builtins (``re.compile``
and other attribute calls are not builtin calls).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

_DYNAMIC_BUILTINS = frozenset({"exec", "eval", "compile"})


def _dynamic_calls(tree: ast.AST) -> list[tuple[int, str]]:
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _DYNAMIC_BUILTINS:
            calls.append((node.lineno, func.id))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "builtins"
            and func.attr in _DYNAMIC_BUILTINS
        ):
            calls.append((node.lineno, f"builtins.{func.attr}"))
    return calls


def test_package_calls_no_exec_eval_or_compile():
    root = Path(repro.__file__).resolve().parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 50, "package source tree not found"
    offenders = [
        f"{path.relative_to(root.parent)}:{line}: {name}()"
        for path in modules
        for line, name in _dynamic_calls(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    ]
    assert not offenders, "dynamic code execution in src/repro:\n" + "\n".join(offenders)


def test_guard_sees_builtin_calls_only():
    tree = ast.parse(
        "import re\n"
        "exec(src)\n"
        "x = eval('1')\n"
        "builtins.compile(s, 'f', 'exec')\n"
        "re.compile('a+')\n"
        "policy.compile()\n"
    )
    assert _dynamic_calls(tree) == [
        (2, "exec"), (3, "eval"), (4, "builtins.compile"),
    ]
