"""Scheduler certification: effect-safety verdicts.

``simmr certify <module:Class>`` turns the effect summaries of
:mod:`repro.analysis.effects` into a machine-checkable claim about a
scheduler class.  The certificate is a JSON document carrying the
per-method effect summary, a content digest of the defining module,
and three safety predicates:

* **cache-safe** — no method (transitively) reaches a nondeterministic
  source, I/O, or module-global mutation: a replay's digest is a pure
  function of (trace, scheduler spec, seed), so results may be cached
  by content address.
* **parallel-safe** — no module-global mutation and no I/O: concurrent
  instances in one process (service worker threads, sweep fan-out)
  cannot interfere through shared state.
* **service-safe** — cache-safe *and* parallel-safe *and* the
  ``choose_next_*`` contract methods carry no engine-owned-state
  mutation (the SIM004 contract).

A failed predicate names its witness — the method, the offending
effect atom, and the full call chain down to the sink — so the verdict
is actionable, not just a boolean.

Certification honours no inline ``# simlint: disable=`` suppressions
for the lattice atoms: a safety verdict must not be silenceable from
inside the code under scrutiny.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path
from typing import Any, Optional

from .cache import AnalysisCache, engine_version, program_key, source_digest
from .callgraph import CallGraph, module_name_for_path
from .config import LintConfig
from .effects import IO, MUTATES_GLOBAL, NONDET, effect_witness
from .visitor import CHOOSE_METHODS

__all__ = [
    "CERTIFICATE_VERSION",
    "CertificationError",
    "certificate_for_class",
    "certify_target",
    "failure_message",
]

CERTIFICATE_VERSION = 1

#: Effect atoms that break each predicate.
_CACHE_UNSAFE = frozenset({NONDET, IO, MUTATES_GLOBAL})
_PARALLEL_UNSAFE = frozenset({MUTATES_GLOBAL, IO})

#: Witness-priority order for blocking atoms in reports.
_BLOCKING_ORDER = (NONDET, MUTATES_GLOBAL, IO)


class CertificationError(ValueError):
    """The target cannot be certified (unresolvable, unparsable, unsafe)."""


def certificate_for_class(
    graph: CallGraph,
    module_name: str,
    cls_name: str,
    *,
    target: str,
    src_digest: str,
) -> dict[str, Any]:
    """Build the verdict for one class in a finalized graph."""
    closure = graph.class_closure(module_name, cls_name)
    if not closure:
        raise CertificationError(
            f"class {cls_name!r} not found in module {module_name!r} "
            f"(or it defines no methods the analyzer can see)"
        )
    effects: dict[str, list[str]] = {}
    union: set[str] = set()
    for method in sorted(closure):
        fn = closure[method]
        atoms = sorted(fn.effects.atoms) if fn.effects is not None else []
        effects[method] = atoms
        union.update(atoms)

    witness: Optional[dict[str, Any]] = None

    def _effect_witness_for(atoms: frozenset[str]) -> Optional[dict[str, Any]]:
        for atom in _BLOCKING_ORDER:
            if atom not in atoms:
                continue
            for method in sorted(closure):
                fn = closure[method]
                found = effect_witness(fn, atom)
                if found is None:
                    continue
                chain, sink = found
                return {
                    "atom": atom,
                    "method": method,
                    "chain": chain,
                    "detail": sink.detail,
                    "line": sink.lineno,
                }
        return None

    cache_safe = not (union & _CACHE_UNSAFE)
    parallel_safe = not (union & _PARALLEL_UNSAFE)
    if not (cache_safe and parallel_safe):
        witness = _effect_witness_for(frozenset(union))

    choose_mutation = None
    for method in sorted(CHOOSE_METHODS):
        fn = closure.get(method)
        if fn is not None and "mutation" in fn.taint:
            found = graph.witness(fn, "mutation")
            if found is not None:
                chain, sink = found
                choose_mutation = {
                    "atom": "mutates-engine-state",
                    "method": method,
                    "chain": chain,
                    "detail": sink.detail,
                    "line": sink.lineno,
                }
                break
    service_safe = cache_safe and parallel_safe and choose_mutation is None
    if witness is None and choose_mutation is not None:
        witness = choose_mutation

    return {
        "version": CERTIFICATE_VERSION,
        "target": target,
        "module": module_name,
        "class": cls_name,
        "source_digest": src_digest,
        "engine": engine_version(),
        "effects": effects,
        "summary": sorted(union),
        "cache_safe": cache_safe,
        "parallel_safe": parallel_safe,
        "service_safe": service_safe,
        "certified": service_safe,
        "witness": witness,
    }


def failure_message(doc: dict[str, Any]) -> str:
    """One-line human explanation of a failed certificate."""
    witness = doc.get("witness") or {}
    chain = witness.get("chain") or []
    detail = witness.get("detail", "?")
    atom = witness.get("atom", "effectful")
    head = f"{doc.get('target', '?')} is not service-safe ({atom})"
    if chain:
        return f"{head}: {' -> '.join(chain)} -> {detail}"
    return f"{head}: {detail}"


# --------------------------------------------------------------------------- #
# target resolution (static — nothing outside the stdlib import machinery
# runs; find_spec imports parent *packages* only, never the target module)
# --------------------------------------------------------------------------- #


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _registry_target(name: str) -> tuple[Path, str]:
    from ..schedulers import _REGISTRY

    cls = _REGISTRY.get(name.lower())
    if cls is None:
        raise CertificationError(
            f"unknown certify target {name!r}: not a path, module:Class, "
            f"or registry scheduler (known: {sorted(_REGISTRY)})"
        )
    spec = importlib.util.find_spec(cls.__module__)
    if spec is None or spec.origin is None:
        raise CertificationError(
            f"cannot locate source for {cls.__module__}"
        )
    return Path(spec.origin), cls.__name__


def resolve_target(target: str) -> tuple[Path, str]:
    """``path.py:Class`` / ``pkg.mod:Class`` / registry name -> (file, class)."""
    if ":" not in target:
        return _registry_target(target)
    mod_part, _, cls_name = target.rpartition(":")
    if not cls_name.isidentifier():
        raise CertificationError(f"bad class name in target {target!r}")
    candidate = Path(mod_part)
    if mod_part.endswith(".py") or candidate.exists():
        if not candidate.is_file():
            raise CertificationError(f"no such module file: {mod_part}")
        return candidate, cls_name
    try:
        spec = importlib.util.find_spec(mod_part)
    except (ImportError, ValueError) as exc:
        raise CertificationError(
            f"cannot resolve module {mod_part!r}: {exc}"
        ) from None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        raise CertificationError(f"cannot locate source for module {mod_part!r}")
    return Path(spec.origin), cls_name


# --------------------------------------------------------------------------- #
# whole-tree certification (the CLI path)
# --------------------------------------------------------------------------- #


def certify_target(
    target: str,
    *,
    config: Optional[LintConfig] = None,
    cache: Optional[AnalysisCache] = None,
    root: Optional[Path] = None,
) -> dict[str, Any]:
    """Certify ``target`` against the installed ``repro`` source tree.

    The whole package is analyzed together with the target's module, so
    helpers the scheduler calls into are resolved cross-module exactly
    as ``simmr lint`` resolves them.  With a ``cache``, a warm verdict
    is a digest sweep plus one JSON lookup.
    """
    from .runner import iter_python_files

    config = config if config is not None else LintConfig()
    if root is None:
        root = Path.cwd()
    module_path, cls_name = resolve_target(target)
    files = list(iter_python_files([_package_root()]))
    resolved = module_path.resolve()
    if resolved not in {f.resolve() for f in files}:
        files.append(module_path)

    modules: list[tuple[str, str, str]] = []  # (display, source, digest)
    target_display: Optional[str] = None
    for file_path in files:
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CertificationError(f"cannot read {file_path}: {exc}") from None
        display = _display(file_path, root)
        modules.append((display, source, source_digest(source)))
        if file_path.resolve() == resolved:
            target_display = display
    assert target_display is not None
    module_name = module_name_for_path(target_display)
    label = f"{module_name}:{cls_name}"

    key = ""
    if cache is not None:
        key = program_key(config, [(d, dig) for d, _s, dig in modules])
        hit = cache.lookup_certificate(label, key)
        if hit is not None:
            return hit

    graph = CallGraph(config)
    target_digest = ""
    for display, source, digest in modules:
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            if display == target_display:
                raise CertificationError(
                    f"cannot parse {display}: {exc.msg} (line {exc.lineno})"
                ) from None
            continue
        graph.add_module(display, tree, source)
        if display == target_display:
            target_digest = digest
    graph.finalize()
    doc = certificate_for_class(
        graph, module_name, cls_name, target=label, src_digest=target_digest
    )
    if cache is not None:
        cache.store_certificate(label, key, doc)
        cache.save()
    return doc


def _display(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
