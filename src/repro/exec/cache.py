"""Content-addressed on-disk result cache.

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    <root>/<key[:2]>/<key>.json

where ``key`` is the 64-hex-char fingerprint of the simulation point
(see :mod:`repro.exec.fingerprint`).  Each entry is a JSON document::

    {"key": ..., "version": <code-version token>, "meta": {...},
     "payload": <task-encoded result>}

The code-version token is *part of the key*, so entries written by older
code are simply never hit again; :meth:`ResultCache.prune` deletes them
(that is the "invalidation" the stats report, together with corrupt
entries discarded on read).  :meth:`ResultCache.prune` also enforces a
size bound — ``max_entries``/``max_bytes`` arguments or the
``$REPRO_CACHE_MAX_MB`` environment knob — by evicting the
least-recently-written entries first.  Writes are atomic (tmp file +
rename), so a killed run never leaves a half-written entry that a later
run would trust.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exec.fingerprint import code_version_token

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the cache size, in megabytes.  When
#: set, :meth:`ResultCache.prune` (with no explicit bound) evicts the
#: least-recently-used entries until the cache fits.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def default_tape_dir() -> Path:
    """The tape-cache root: a ``tapes/`` subdirectory of the cache root.

    Nested under the result cache so one ``$REPRO_CACHE_DIR`` override
    relocates both.  The result cache's entry glob (``??/*.json``) never
    descends into ``tapes/``, so the two stores cannot shadow each other.
    """
    return default_cache_dir() / "tapes"


def env_max_bytes() -> int | None:
    """The ``$REPRO_CACHE_MAX_MB`` bound in bytes, or None when unset.

    Unparseable or non-positive values are treated as unset rather than
    raising — a bad environment knob must never break a run.
    """
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


@dataclass
class CacheStats:
    """Hit/miss/store/invalidation counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    evicted: int = 0

    @property
    def lookups(self) -> int:
        """Total ``load`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def render(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"cache: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.stores} stored, "
            f"{self.invalidated} invalidated"
        )
        if self.evicted:
            line += f", {self.evicted} evicted"
        return line


@dataclass
class ResultCache:
    """Content-addressed store of simulation-point payloads.

    Attributes:
        root: cache directory (created lazily on first store).
        stats: counters updated by every operation.
    """

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether an entry file exists under ``key`` (no stats update).

        A pure existence probe: it does not read, validate, or discard
        the entry, so a later :meth:`load` still performs (and counts)
        the real lookup.  Used by callers that want to attribute
        hit/miss accounting before handing the key to a worker process.
        """
        return self._entry_path(key).is_file()

    def load(
        self, key: str, decode: Callable[[Any], Any] | None = None
    ) -> Any | None:
        """Payload stored under ``key``, or None on a miss.

        A stored entry is untrusted input.  With ``decode``, the payload
        is passed through it and the decoded value returned; a decoder
        raises :class:`ValueError` (a stray ``LookupError`` or
        ``TypeError`` is treated alike) when the payload does not hold
        together.  A corrupt, mismatched or undecodable entry is
        deleted, counted as invalidated, and reported as a miss, so the
        caller recomputes it.
        """
        path = self._entry_path(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or "payload" not in entry
        ):
            return self._invalid(path)
        payload = entry["payload"]
        if decode is not None:
            try:
                payload = decode(payload)
            except (ValueError, LookupError, TypeError):
                return self._invalid(path)
        self.stats.hits += 1
        return payload

    def store(self, key: str, payload: Any, *, meta: dict[str, Any] | None = None) -> Path:
        """Write ``payload`` under ``key`` atomically; returns the path."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "version": code_version_token(),
            "meta": meta or {},
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True))
        os.replace(tmp, path)
        self.stats.stores += 1
        return path

    def discard(self, key: str) -> None:
        """Delete the entry under ``key``, counted as invalidated.

        For an entry that loaded but proved wrong in use, such as a tape
        that fails its replay self-check; the next lookup misses.
        """
        self._discard(self._entry_path(key))

    def _invalid(self, path: Path) -> None:
        """Discard an entry that failed to load; the lookup is a miss."""
        self._discard(path)
        self.stats.misses += 1

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.invalidated += 1

    def _entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        yield from sorted(self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            self._discard(path)
            removed += 1
        return removed

    def prune(
        self,
        *,
        current_version: str | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> int:
        """Delete stale entries, then shrink to the configured bounds.

        Two passes:

        1. entries written by a different code version (or unreadable)
           are deleted and counted as *invalidated*;
        2. if the survivors exceed ``max_entries`` or ``max_bytes``, the
           least-recently-used entries (oldest mtime first — ``load``
           does not touch mtimes, so this is least-recently-*written*)
           are deleted and counted as *evicted* until both bounds hold.

        ``max_bytes`` defaults to ``$REPRO_CACHE_MAX_MB`` (converted to
        bytes) when that variable is set.

        Args:
            current_version: token to keep (default: the running code's).
            max_entries: keep at most this many entries (None = no bound).
            max_bytes: keep at most this many payload bytes
                (None = ``$REPRO_CACHE_MAX_MB`` or no bound).

        Returns:
            How many entries were removed in total.
        """
        keep = current_version or code_version_token()
        removed = 0
        survivors: list[tuple[float, int, Path]] = []
        for path in self._entry_paths():
            try:
                entry = json.loads(path.read_text())
                version = entry.get("version")
            except (OSError, json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                version = None
            if version != keep:
                self._discard(path)
                removed += 1
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is None:
            max_bytes = env_max_bytes()
        if max_entries is None and max_bytes is None:
            return removed
        survivors.sort()  # oldest first
        total_bytes = sum(size for _, size, _ in survivors)
        while survivors and (
            (max_entries is not None and len(survivors) > max_entries)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            _, size, path = survivors.pop(0)
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.evicted += 1
            total_bytes -= size
            removed += 1
        return removed


@dataclass
class TapeCache(ResultCache):
    """Content-addressed store of serialized batch-replay tapes.

    Same mechanics as :class:`ResultCache` — atomic writes, corrupt-entry
    invalidation, :meth:`~ResultCache.prune` honoring
    ``max_entries``/``max_bytes``/``$REPRO_CACHE_MAX_MB`` — but rooted at
    :func:`default_tape_dir` and holding
    :func:`repro.sim.batch.tape_to_payload` documents keyed by
    :func:`repro.exec.batch_sweep.tape_key`.  Kept as a separate store
    (not more entries in the result cache) because tapes are an order of
    magnitude larger than point payloads and are evicted on their own
    LRU clock.
    """

    root: Path = field(default_factory=default_tape_dir)
