"""Resource-safety analysis: the RES rule family.

The parallel executor hands trace payloads to its workers as spill
files, and both cache layers sit on sqlite.  A
``multiprocessing.shared_memory`` segment that leaks on an exception
path is not a theoretical concern: the OS keeps ``/dev/shm`` backing alive
until ``unlink()``, so a crashed process leaves memory pinned until
reboot.  This module tracks acquire/release pairs along
:mod:`repro.analysis.cfg` paths:

``RES001``
    A ``SharedMemory`` segment with a path (normal *or* exceptional) to
    function exit on which neither ``close()``/``unlink()`` runs nor
    ownership transfers (stored on ``self``, appended to a cleanup
    list, returned).
``RES002``
    A sqlite connection not closed on every path, or a cursor
    (``conn.execute(...)`` / ``conn.cursor()``) never closed before the
    function returns.  Cursors are only checked on the normal path —
    an abandoned cursor is a lazy-GC wart, not a crash-path leak.
``RES003``
    A tempfile (``mkstemp``, ``mkdtemp``, ``NamedTemporaryFile(
    delete=False)``) that can be left behind: no ``os.unlink`` /
    ``shutil.rmtree`` and no ownership transfer on some path.

"Ownership transfer" uses :func:`~repro.analysis.dataflow.bare_names`:
the variable appearing in value position (call argument, container
element, return value, right-hand side of an attribute store) escapes
the function's responsibility; a dereference (``seg.buf``,
``cur.lastrowid``) does not.  Context-managed acquisitions (``with
sqlite3.connect(...) as conn:``) are never tracked — the ``with`` is
the sanctioned form.  Like every simlint pass, unresolvable shapes
produce no finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .callgraph import CallGraph, FuncNode, _ModuleIdx
from .cfg import CFG, build_cfg
from .concurrency import _dotted, _local_aliases
from .config import LintConfig
from .dataflow import RawFinding, bare_names, track_acquisition

__all__ = ["ResourceAnalysis", "analyze_resources"]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Acquisition kinds and the rule each reports under.
_KIND_RULES = {
    "shm": "RES001",
    "conn": "RES002",
    "cursor": "RES002",
    "mkstemp": "RES003",
    "mkdtemp": "RES003",
    "ntf": "RES003",
}

_CURSOR_METHODS = frozenset({"execute", "executemany", "executescript", "cursor"})


@dataclass
class _Acquisition:
    kind: str
    var: str
    stmt: ast.Assign
    call: ast.Call


class ResourceAnalysis:
    """Runs the RES001–003 checks over a finalized call graph."""

    def __init__(self, graph: CallGraph, config: LintConfig) -> None:
        self.graph = graph
        self.config = config
        self.findings: list[RawFinding] = []
        #: (module, class) -> attrs assigned from ``sqlite3.connect``.
        self._conn_attrs: dict[tuple[str, str], set[str]] = {}

    def run(self) -> list[RawFinding]:
        self._collect_conn_attrs()
        for mod, fn in self._iter_functions():
            self._check_function(mod, fn)
        self.findings.sort(key=lambda f: f.sort_key)
        return self.findings

    # -- shared facts ----------------------------------------------------- #

    def _iter_functions(self) -> Iterable[tuple[_ModuleIdx, FuncNode]]:
        for mod in self.graph.iter_module_indexes():
            if self.config.is_test_path(mod.path):
                continue
            for qname in sorted(mod.functions):
                fn = mod.functions[qname]
                if fn.node is not None:
                    yield mod, fn

    def _collect_conn_attrs(self) -> None:
        for mod, fn in self._iter_functions():
            if fn.cls_name is None or fn.node is None:
                continue
            aliases = _local_aliases(mod, fn.node)
            for stmt in ast.walk(fn.node):
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(stmt.value, ast.Call)
                    and _dotted(stmt.value.func, aliases) == "sqlite3.connect"
                ):
                    self._conn_attrs.setdefault(
                        (mod.name, fn.cls_name), set()
                    ).add(target.attr)

    # -- per-function pass ------------------------------------------------- #

    def _check_function(self, mod: _ModuleIdx, fn: FuncNode) -> None:
        assert fn.node is not None
        aliases = _local_aliases(mod, fn.node)
        acquisitions = self._find_acquisitions(mod, fn, aliases)
        if not acquisitions:
            return
        cfg = build_cfg(fn.node)
        for acq in acquisitions:
            self._track(cfg, fn, acq)

    def _find_acquisitions(
        self, mod: _ModuleIdx, fn: FuncNode, aliases: dict[str, str]
    ) -> list[_Acquisition]:
        out: list[_Acquisition] = []
        conn_locals: set[str] = set()
        class_conns = (
            self._conn_attrs.get((mod.name, fn.cls_name), set())
            if fn.cls_name is not None
            else set()
        )
        assert fn.node is not None
        for stmt in ast.walk(fn.node):
            # Only plain assignments: `with <acquire>() as v:` is the
            # sanctioned context-managed form and is never tracked.
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            target = stmt.targets[0]
            dotted = _dotted(value.func, aliases)
            if dotted == "multiprocessing.shared_memory.SharedMemory":
                if isinstance(target, ast.Name):
                    out.append(_Acquisition("shm", target.id, stmt, value))
            elif dotted == "sqlite3.connect":
                if isinstance(target, ast.Name):
                    conn_locals.add(target.id)
                    out.append(_Acquisition("conn", target.id, stmt, value))
            elif dotted == "tempfile.mkstemp":
                # `fd, path = mkstemp()`: the *path* is the durable
                # artifact; the fd is consumed by os.fdopen/os.close.
                if (
                    isinstance(target, ast.Tuple)
                    and len(target.elts) == 2
                    and isinstance(target.elts[1], ast.Name)
                ):
                    out.append(
                        _Acquisition("mkstemp", target.elts[1].id, stmt, value)
                    )
            elif dotted == "tempfile.mkdtemp":
                if isinstance(target, ast.Name):
                    out.append(_Acquisition("mkdtemp", target.id, stmt, value))
            elif dotted == "tempfile.NamedTemporaryFile":
                delete_false = any(
                    kw.arg == "delete"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in value.keywords
                )
                if delete_false and isinstance(target, ast.Name):
                    out.append(_Acquisition("ntf", target.id, stmt, value))
            elif (
                isinstance(value.func, ast.Attribute)
                and value.func.attr in _CURSOR_METHODS
                and isinstance(target, ast.Name)
            ):
                recv = value.func.value
                is_conn = (
                    isinstance(recv, ast.Name) and recv.id in conn_locals
                ) or (
                    isinstance(recv, ast.Attribute)
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id == "self"
                    and recv.attr in class_conns
                )
                if is_conn:
                    out.append(_Acquisition("cursor", target.id, stmt, value))
        return out

    def _track(self, cfg: CFG, fn: FuncNode, acq: _Acquisition) -> None:
        acquire_idx = self._node_containing(cfg, acq.stmt)
        if acquire_idx is None:
            return

        kills: set[int] = set()
        escapes: set[int] = set()
        for node in cfg.nodes:
            if node.index == acquire_idx or not node.scan:
                continue
            killed = escaped = False
            for root in node.scan:
                if self._releases(root, acq):
                    killed = True
                if self._reassigns(root, acq.var):
                    killed = True
                if not killed and bare_names(root, acq.var):
                    escaped = True
            if killed:
                kills.add(node.index)
            elif escaped:
                escapes.add(node.index)

        report = track_acquisition(
            cfg,
            acquire_idx,
            lambda i: i in kills,
            lambda i: i in escapes,
        )
        leak_exit = report.held_at_exit
        leak_raise = report.held_at_raise
        if acq.kind == "cursor":
            leak_raise = False  # abandoned cursor on a crash path is GC's job
        if not leak_exit and not leak_raise:
            return

        if leak_raise and report.raise_line:
            detail = f"an exception at line {report.raise_line} can exit first"
        elif leak_raise:
            detail = "an exception path exits first"
        else:
            detail = "no release before return"
        self.findings.append(RawFinding(
            rule_id=_KIND_RULES[acq.kind],
            path=fn.path,
            line=acq.stmt.lineno,
            col=acq.stmt.col_offset + 1,
            message=self._message(acq, detail),
        ))

    def _message(self, acq: _Acquisition, detail: str) -> str:
        v = acq.var
        if acq.kind == "shm":
            return (
                f"SharedMemory segment '{v}' may leak: {detail}; close()/"
                f"unlink() it or register it with its owner before fallible "
                f"writes"
            )
        if acq.kind == "conn":
            return (
                f"sqlite connection '{v}' is not closed on every path "
                f"({detail}); use 'with contextlib.closing(...)' or try/finally"
            )
        if acq.kind == "cursor":
            return (
                f"sqlite cursor '{v}' is never closed ({detail}); call "
                f"{v}.close() once the result is read"
            )
        what = {
            "mkstemp": "file (mkstemp)",
            "mkdtemp": "directory (mkdtemp)",
            "ntf": "file (NamedTemporaryFile(delete=False))",
        }[acq.kind]
        return (
            f"temporary {what} '{v}' may be left behind: {detail}; remove it "
            f"or hand it to a cleanup owner first"
        )

    # -- node classification ---------------------------------------------- #

    @staticmethod
    def _node_containing(cfg: CFG, target: ast.AST) -> Optional[int]:
        for node in cfg.nodes:
            for root in node.scan:
                for sub in ast.walk(root):
                    if sub is target:
                        return node.index
        return None

    def _releases(self, root: ast.AST, acq: _Acquisition) -> bool:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if acq.kind in ("shm", "conn", "cursor"):
                methods = {"close", "unlink"} if acq.kind == "shm" else {"close"}
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in methods
                    and isinstance(func.value, ast.Name)
                    and func.value.id == acq.var
                ):
                    return True
            elif acq.kind in ("mkstemp", "ntf"):
                if self._remover(func, {"os.unlink", "os.remove"}) and any(
                    self._names_var(arg, acq.var) for arg in node.args
                ):
                    return True
            elif acq.kind == "mkdtemp":
                if self._remover(func, {"shutil.rmtree", "os.rmdir"}) and any(
                    self._names_var(arg, acq.var) for arg in node.args
                ):
                    return True
        return False

    @staticmethod
    def _remover(func: ast.AST, dotted_names: set[str]) -> bool:
        # Cleanup helpers are referenced as `os.unlink`/`shutil.rmtree`
        # verbatim throughout this repo; a plain structural match avoids
        # re-resolving aliases inside every candidate node.
        if not (
            isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
        ):
            return False
        return f"{func.value.id}.{func.attr}" in dotted_names

    @staticmethod
    def _names_var(arg: ast.AST, var: str) -> bool:
        """Does ``arg`` denote the tracked variable (``v`` or ``v.name``)?"""
        if isinstance(arg, ast.Name):
            return arg.id == var
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            return arg.value.id == var
        return False

    @staticmethod
    def _reassigns(root: ast.AST, var: str) -> bool:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and node.id == var and isinstance(
                node.ctx, ast.Store
            ):
                return True
        return False


def analyze_resources(graph: CallGraph, config: LintConfig) -> list[RawFinding]:
    """Run the RES family over a finalized call graph."""
    return ResourceAnalysis(graph, config).run()
