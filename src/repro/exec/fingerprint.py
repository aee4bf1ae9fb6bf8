"""Stable content fingerprints for cache keys.

A cache key must be equal exactly when the simulation it names would
produce the same result.  That means:

- dict *ordering* must not matter (two configs built in different orders
  are the same config);
- value *types* must matter (``1`` and ``1.0``, or ``True`` and ``1``,
  are different configs — the simulator may branch on them);
- every piece of spec state must be included (clusters and workloads are
  nested frozen dataclasses; workload instances may carry extra
  constructor state such as a NAS problem class);
- the *code* must be included: any edit to the package invalidates every
  entry, because the simulator's output may have changed.  That is the
  :func:`code_version_token`, a hash over the package's source files.

The fingerprint is the SHA-256 of a canonical JSON encoding.  Canonical
means: mappings are flattened to key-sorted pair lists (insertion order
erased, non-string keys kept intact), sequences to lists, enums to
tagged values, dataclasses and plain objects to class-tagged field
mappings.  Tuples and lists encode identically on purpose — a config
round-tripped through JSON must keep its key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections.abc import Mapping
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.util.errors import ConfigurationError

#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"),
#: allow_nan=False)`` without building an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)

_INFINITIES = (float("inf"), float("-inf"))


def jsonable(obj: Any) -> Any:
    """Convert ``obj`` to a canonical JSON-encodable structure.

    The built-in containers and scalars are dispatched on their exact
    type; every other object, subclasses of those included, takes the
    ``isinstance`` chain in :func:`_jsonable_other`.

    Raises:
        ConfigurationError: the object (or something nested in it) has no
            canonical encoding — e.g. a function, a file handle.
    """
    cls = type(obj)
    if cls is str or cls is int or cls is bool or obj is None:
        return obj
    if cls is dict:
        return {"__mapping__": True, "items": _sorted_items(obj)}
    if cls is list or cls is tuple:
        return [jsonable(v) for v in obj]
    if cls is float:
        return _finite(obj)
    return _jsonable_other(obj)


def _jsonable_other(obj: Any) -> Any:
    """:func:`jsonable` of anything that is not an exact built-in type."""
    if isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        return _finite(obj)
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": jsonable(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names, order = _dataclass_layout(type(obj))
        values = [jsonable(getattr(obj, name)) for name in names]
        # The canonical form encodes each field value twice: once into a
        # field mapping, then again as that mapping's sorted items.
        fields = [[names[i], jsonable(values[i])] for i in order]
        return {"__class__": type(obj).__name__, "fields": fields}
    if issubclass(type(obj), Mapping):
        return {"__mapping__": True, "items": _sorted_items(obj)}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        items = sorted((jsonable(v) for v in obj), key=_canonical_text)
        return {"__set__": True, "items": items}
    if callable(obj):
        raise ConfigurationError(
            f"cannot fingerprint callable {obj!r}: behaviour is not content"
        )
    # Plain objects (e.g. GearTable, Workload): class tag + instance state.
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return {
            "__object__": type(obj).__name__,
            "state": _sorted_items(state),
        }
    raise ConfigurationError(
        f"cannot fingerprint a {type(obj).__name__}: no canonical encoding"
    )


def _finite(value: float) -> float:
    """``value`` itself, if it is finite."""
    if value != value or value in _INFINITIES:
        raise ConfigurationError(f"non-finite float {value!r} cannot be fingerprinted")
    return value


@lru_cache(maxsize=1024)
def _dataclass_layout(cls: type) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A dataclass's field names, and their positions in canonical order."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    order = sorted(range(len(names)), key=lambda i: _canonical_text(names[i]))
    return names, tuple(order)


def _sorted_items(mapping: Mapping[Any, Any]) -> list[list[Any]]:
    """Mapping items as ``[key, value]`` pairs, sorted canonically."""
    pairs = [[jsonable(k), jsonable(v)] for k, v in mapping.items()]
    pairs.sort(key=_key_text)
    return pairs


def _key_text(pair: list[Any]) -> str:
    """Sort key of an encoded ``[key, value]`` pair: the key's JSON text."""
    key = pair[0]
    if type(key) is str:
        return _str_text(key)
    return _canonical_text(key)


@lru_cache(maxsize=4096)
def _str_text(key: str) -> str:
    """JSON text of an exact ``str`` (never a subclass: equal is identical)."""
    return _ENCODER.encode(key)


def _canonical_text(encoded: Any) -> str:
    """Deterministic text for an already-canonical structure."""
    return _ENCODER.encode(encoded)


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    text = _canonical_text(jsonable(obj))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_version_token() -> str:
    """Hash of every source file in the installed ``repro`` package.

    Editing any module (even whitespace) yields a new token, which moves
    every cache key: a cache can never serve results computed by old
    code.  Stale entries remain on disk until
    :meth:`repro.exec.cache.ResultCache.prune` removes them.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
