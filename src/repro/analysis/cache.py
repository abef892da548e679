"""Content-addressed incremental cache for whole-program analysis.

Lint starts with an expensive prefix: read + parse every module, build
the call graph and its taint closures, run the CFG/dataflow passes.
On a warm tree none of that can produce a different answer, so the
cache short-circuits it:

* every module is addressed by a BLAKE2b digest of its source;
* a **program key** digests the sorted ``(path, digest)`` pairs plus
  the engine version (package version + rule ids + a salt bumped on
  any behavioural analysis change) and the effective config — any
  drift in any input changes the key;
* a program-key hit replays the stored findings verbatim (identical
  by construction — they were produced by an identical analysis over
  identical sources);
* on a partial hit, unchanged modules replay their cached *local*
  findings (the per-file rules, which depend only on that file) and
  only re-run the whole-program rules — changed modules re-analyze in
  full.  Cross-module findings always recompute: the call graph makes
  their validity a property of the whole tree.

The store is one JSON file, written atomically via rename.  ``simmr
lint`` keeps one only when given ``--analysis-cache PATH``; the local
gate (``scripts/check.sh``) uses ``scripts/.analysis_cache.json``.  A
missing, corrupt, or stale-engine file degrades to an empty cache —
never an error; so does a store of another layout version (version 1
also held scheduler certificates).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional, Sequence

from .config import LintConfig
from .findings import Finding

__all__ = [
    "ANALYSIS_SALT",
    "AnalysisCache",
    "engine_version",
    "source_digest",
    "program_key",
]

#: Bump whenever rule or engine behaviour changes in a way that can
#: alter findings for unchanged sources.
ANALYSIS_SALT = "2"

#: Layout of the JSON store; a file with any other version loads empty.
_STORE_VERSION = 2

#: Keep at most this many program-level entries (insertion-ordered
#: eviction); one per (tree state, config) actually in use.
_MAX_PROGRAM_ENTRIES = 8


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # pragma: no cover - uninstalled checkout
        return "0"


def engine_version() -> str:
    """Version salt invalidating every entry on analyzer changes.

    The interpreter version participates too: a checkout shared across
    Python versions (worktrees, containers, version bumps) must not
    replay findings produced by an interpreter whose ``ast`` grammar or
    analysis behaviour differs.
    """
    from .registry import default_registry

    rules = ",".join(default_registry.known_ids())
    py = "py{}.{}".format(*sys.version_info[:2])
    raw = f"{_package_version()}|{ANALYSIS_SALT}|{py}|{rules}"
    return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()


def source_digest(source: str) -> str:
    """Content address of one module's source text."""
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()


def _config_key(config: LintConfig) -> str:
    raw = json.dumps(
        {
            "select": sorted(config.select) if config.select is not None else None,
            "disable": sorted(config.disable),
            "sim_paths": list(config.sim_paths),
            "test_paths": list(config.test_paths),
            "timing_whitelist": list(config.timing_whitelist),
            "non_test_paths": list(config.non_test_paths),
        },
        sort_keys=True,
    )
    return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()


def program_key(
    config: LintConfig, modules: Sequence[tuple[str, str]]
) -> str:
    """One digest naming the whole analysis input.

    ``modules`` is ``(display_path, source_digest)`` per file; order
    does not matter (pairs are sorted before hashing).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(engine_version().encode())
    h.update(_config_key(config).encode())
    for path, digest in sorted(modules):
        h.update(path.encode())
        h.update(b"\0")
        h.update(digest.encode())
        h.update(b"\n")
    return h.hexdigest()


class AnalysisCache:
    """The on-disk store.  All lookups are tolerant; all writes atomic."""

    def __init__(self, path: Path, data: Optional[dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self._data: dict[str, Any] = data if data is not None else self._empty()
        self._dirty = False

    @staticmethod
    def _empty() -> dict[str, Any]:
        return {
            "version": _STORE_VERSION,
            "engine": engine_version(),
            "program": {},
            "modules": {},
        }

    @classmethod
    def load(cls, path: Path) -> "AnalysisCache":
        """Read the store; degrade to empty on any problem or version skew."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cls(path)
        if (
            not isinstance(data, dict)
            or data.get("version") != _STORE_VERSION
            or data.get("engine") != engine_version()
        ):
            return cls(path)
        for key in ("program", "modules"):
            if not isinstance(data.get(key), dict):
                return cls(path)
        return cls(path, data)

    def save(self) -> None:
        """Write back atomically (tmp file + rename); best-effort."""
        if not self._dirty:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(self._data, handle, sort_keys=True)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:  # pragma: no cover - read-only checkout etc.
            return
        self._dirty = False

    # ------------------------------------------------------------------ #
    # program-level findings
    # ------------------------------------------------------------------ #

    def lookup_findings(self, key: str) -> Optional[list[Finding]]:
        entry = self._data["program"].get(key)
        if entry is None:
            return None
        try:
            return [Finding.from_dict(d) for d in entry["findings"]]
        except (KeyError, TypeError, ValueError):
            return None

    def store_findings(self, key: str, findings: Sequence[Finding]) -> None:
        table: dict[str, Any] = self._data["program"]
        table.pop(key, None)
        table[key] = {"findings": [f.to_dict() for f in findings]}
        while len(table) > _MAX_PROGRAM_ENTRIES:
            table.pop(next(iter(table)))
        self._dirty = True

    # ------------------------------------------------------------------ #
    # per-module local findings (file-scoped rules only)
    # ------------------------------------------------------------------ #

    def lookup_local(self, path: str, digest: str) -> Optional[list[Finding]]:
        entry = self._data["modules"].get(path)
        if entry is None or entry.get("digest") != digest:
            return None
        try:
            return [Finding.from_dict(d) for d in entry["local"]]
        except (KeyError, TypeError, ValueError):
            return None

    def store_local(
        self, path: str, digest: str, findings: Sequence[Finding]
    ) -> None:
        self._data["modules"][path] = {
            "digest": digest,
            "local": [f.to_dict() for f in findings],
        }
        self._dirty = True
