"""Property tests for the cache-key fingerprint and the store/load cycle.

The cache is only safe if the fingerprint is *exactly* as fine-grained
as the simulation's inputs: two equal configs must collide, any real
perturbation must separate, and representation noise (dict insertion
order) must not.

The encoder is also pinned to a reference: a verbatim copy of the
original isinstance-chain encoder.  Every input must give the same
canonical text (hence the same key) and the same error under both.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machines import athlon_cluster
from repro.exec import ResultCache, code_version_token, fingerprint, jsonable
from repro.exec.sweep import cache_key
from repro.exec.tasks import MeasurementTask
from repro.scenarios import REGISTRY, validation_pack
from repro.util.errors import ConfigurationError
from repro.workloads import Jacobi

# ---------------------------------------------------------------------------
# Reference encoder: the original ``jsonable``, ``_sorted_items`` and
# ``_canonical_text``, verbatim but for their names.


def _reference_jsonable(obj: Any) -> Any:
    """Convert ``obj`` to a canonical JSON-encodable structure.

    Raises:
        ConfigurationError: the object (or something nested in it) has no
            canonical encoding — e.g. a function, a file handle.
    """
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ConfigurationError(f"non-finite float {obj!r} cannot be fingerprinted")
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": _reference_jsonable(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _reference_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__name__, "fields": _reference_sorted_items(fields)}
    if isinstance(obj, Mapping):
        return {"__mapping__": True, "items": _reference_sorted_items(obj)}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        items = sorted((_reference_jsonable(v) for v in obj), key=_reference_canonical_text)
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
            "state": _reference_sorted_items(state),
        }
    raise ConfigurationError(
        f"cannot fingerprint a {type(obj).__name__}: no canonical encoding"
    )


def _reference_sorted_items(mapping: Mapping[Any, Any]) -> list[list[Any]]:
    """Mapping items as ``[key, value]`` pairs, sorted canonically."""
    pairs = [[_reference_jsonable(k), _reference_jsonable(v)] for k, v in mapping.items()]
    pairs.sort(key=lambda kv: _reference_canonical_text(kv[0]))
    return pairs


def _reference_canonical_text(encoded: Any) -> str:
    """Deterministic text for an already-canonical structure."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reference_fingerprint(obj: Any) -> str:
    text = _reference_canonical_text(_reference_jsonable(obj))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Config-shaped value strategies


class _Colour(enum.Enum):
    RED = 1
    GREEN = "green"
    PAIR = (2, 0.5)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


# ``bool`` cannot be subclassed; ``_Int`` stands in for it.
class _Str(str):
    pass


class _Float(float):
    pass


class _Int(int):
    pass


_Point = namedtuple("_Point", "x y")


@dataclass(frozen=True)
class _Inner:
    b: Any
    a: Any


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    z_last: Any
    label: str = "outer"


class _Plain:
    """An object encoded through its instance ``__dict__``."""

    def __init__(self, state: dict) -> None:
        self.__dict__.update(state)


class _Slotted:
    """No ``__dict__`` and not callable: no canonical encoding."""

    __slots__ = ()


def _unencodable() -> None:
    """A callable leaf: behaviour is not content."""


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)

hashable_leaves = st.one_of(
    scalars,
    st.sampled_from(list(_Colour) + list(_Level) + list(_Mode)),
    st.text(max_size=6).map(_Str),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.integers(-100, 100).map(_Int),
)

mapping_keys = st.one_of(
    st.text(max_size=8),
    st.integers(-100, 100),
    st.tuples(st.integers(-3, 3), st.text(max_size=3)),
    hashable_leaves,
)


def _containers(children):
    text_dicts = st.dictionaries(st.text(max_size=8), children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        text_dicts,
        st.dictionaries(st.integers(-100, 100), children, max_size=4),
        st.dictionaries(mapping_keys, children, max_size=3),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        text_dicts.map(OrderedDict),
        text_dicts.map(MappingProxyType),
        st.builds(_Point, children, children),
        st.builds(_Inner, children, children),
        st.builds(_Outer, st.builds(_Inner, children, children), children),
        text_dicts.map(_Plain),
    )


configs = st.recursive(hashable_leaves, _containers, max_leaves=12)

#: Configs that may hold a leaf with no canonical encoding.
hostile_configs = st.recursive(
    st.one_of(
        hashable_leaves,
        st.sampled_from(
            [
                float("nan"),
                float("inf"),
                -float("inf"),
                _Float("nan"),
                _unencodable,
                len,
                _Slotted(),
                _Inner,
            ]
        ),
    ),
    _containers,
    max_leaves=12,
)


def _deep_copy_reordered(obj):
    """Equal structure, reversed dict insertion order at every level."""
    if isinstance(obj, dict):
        return {k: _deep_copy_reordered(v) for k, v in reversed(list(obj.items()))}
    if isinstance(obj, list):
        return [_deep_copy_reordered(v) for v in obj]
    return obj


class TestEquality:
    @given(configs)
    def test_equal_configs_hash_equal(self, config):
        assert fingerprint(config) == fingerprint(_deep_copy_reordered(config))

    @given(st.dictionaries(st.text(max_size=8), scalars, min_size=2, max_size=6))
    def test_dict_insertion_order_is_erased(self, config):
        reordered = dict(reversed(list(config.items())))
        assert list(config) != list(reordered) or len(config) < 2
        assert fingerprint(config) == fingerprint(reordered)

    @given(configs)
    def test_fingerprint_is_stable_across_calls(self, config):
        assert fingerprint(config) == fingerprint(config)


class TestSeparation:
    @given(
        st.dictionaries(st.text(max_size=8), scalars, min_size=1, max_size=6),
        st.data(),
    )
    def test_value_perturbation_changes_key(self, config, data):
        key = data.draw(st.sampled_from(sorted(config, key=repr)))
        new_value = data.draw(scalars.filter(lambda v: v != config[key] or type(v) is not type(config[key])))
        perturbed = dict(config)
        perturbed[key] = new_value
        assert fingerprint(perturbed) != fingerprint(config)

    @given(st.dictionaries(st.text(max_size=8), scalars, max_size=4), st.text(max_size=8), scalars)
    def test_added_field_changes_key(self, config, key, value):
        grown = dict(config)
        grown.pop(key, None)
        base = fingerprint(grown)
        grown[key] = value
        assert fingerprint(grown) != base

    @given(st.integers(min_value=-(10**6), max_value=10**6))
    def test_int_and_float_are_distinct(self, n):
        assert fingerprint(n) != fingerprint(float(n))
        assert fingerprint({"x": n}) != fingerprint({"x": float(n)})

    def test_bool_and_int_are_distinct(self):
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(False) != fingerprint(0)

    def test_int_key_and_str_key_are_distinct(self):
        assert fingerprint({1: "a"}) != fingerprint({"1": "a"})

    def test_tuple_and_list_collide_by_design(self):
        # JSON round-trips turn tuples into lists; a config must keep its
        # key across that round trip.
        assert fingerprint((1, 2)) == fingerprint([1, 2])


class TestCanonicalisation:
    def test_dataclass_and_enum_encode(self):
        class Flavour(enum.Enum):
            A = "a"

        @dataclass(frozen=True)
        class Spec:
            x: int
            flavour: Flavour

        a = fingerprint(Spec(1, Flavour.A))
        b = fingerprint(Spec(2, Flavour.A))
        assert a != b
        assert a == fingerprint(Spec(1, Flavour.A))

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ConfigurationError):
            fingerprint(float("nan"))
        with pytest.raises(ConfigurationError):
            fingerprint({"x": float("inf")})

    def test_unfingerprintable_objects_are_rejected(self):
        with pytest.raises(ConfigurationError):
            fingerprint(lambda: None)

    @given(configs)
    def test_jsonable_output_is_json_clean(self, config):
        import json

        json.dumps(jsonable(config), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# The encoder against its reference


def _outcome(encode, obj: Any) -> tuple:
    try:
        return ("ok", encode(obj))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))


class TestReferenceEncoder:
    @settings(max_examples=400)
    @given(hostile_configs)
    def test_same_text_and_errors_as_reference(self, config):
        expected = _outcome(
            lambda c: _reference_canonical_text(_reference_jsonable(c)), config
        )
        got = _outcome(lambda c: _reference_canonical_text(jsonable(c)), config)
        assert got == expected
        if expected[0] == "ok":
            assert jsonable(config) == _reference_jsonable(config)
            digest = hashlib.sha256(expected[1].encode("utf-8")).hexdigest()
            assert fingerprint(config) == digest
        else:
            assert _outcome(fingerprint, config)[1:] == expected[1:]

    def test_scalar_subclasses_encode_as_before(self):
        for value in (_Level.HIGH, _Mode.FAST, _Str("s"), _Float(0.5), _Int(3)):
            assert jsonable(value) is value
        assert jsonable(_Colour.PAIR) == {"__enum__": "_Colour", "value": [2, 0.5]}
        assert jsonable(_Point(1, 2)) == [1, 2]
        with pytest.raises(ConfigurationError, match="non-finite"):
            jsonable(_Float("inf"))

    def test_pack_and_paper_keys_match_reference(self, monkeypatch):
        # Every key the validation sweep and the paper suite compute: the
        # result-cache key of each task and the identity of each spec.
        import repro.exec.tasks as tasks_module
        import repro.scenarios.spec as spec_module

        specs = validation_pack(min_points=600)
        for name in REGISTRY.names(tag="paper"):
            specs += REGISTRY.build(name)
        token = code_version_token()

        def keys() -> list[str]:
            out = []
            for spec in specs:
                out.append(spec_module.fingerprint(spec.identity()))
                out.extend(
                    spec_module.fingerprint({"task": t.describe(), "code_version": token})
                    for t in spec.tasks()
                )
            return out

        got = keys()
        assert got[0] == specs[0].fingerprint()
        monkeypatch.setattr(tasks_module, "jsonable", _reference_jsonable)
        monkeypatch.setattr(spec_module, "jsonable", _reference_jsonable)
        monkeypatch.setattr(spec_module, "fingerprint", _reference_fingerprint)
        assert len(got) > 600
        assert keys() == got


class TestTypeExactTaskKeys:
    def test_equal_clusters_of_different_types_key_apart(self):
        # 0 == 0.0 and hash(0) == hash(0.0), so the two clusters compare
        # and hash equal; a cache keyed by the spec objects would serve
        # one's results for the other.  Their keys must differ.
        base = athlon_cluster()
        clusters = [
            dataclasses.replace(base, link=dataclasses.replace(base.link, latency=latency))
            for latency in (0, 0.0)
        ]
        assert clusters[0] == clusters[1]
        assert hash(clusters[0]) == hash(clusters[1])
        workload = Jacobi(0.2)
        tasks = [MeasurementTask(c, workload, nodes=2, gear=1) for c in clusters]
        assert tasks[0] == tasks[1]
        assert cache_key(tasks[0]) != cache_key(tasks[1])


# ---------------------------------------------------------------------------
# Store -> load round trip

json_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=25)
    @given(payload=json_payloads, config=configs)
    def test_store_then_load_returns_equal_payload(self, tmp_path_factory, payload, config):
        cache = ResultCache(root=tmp_path_factory.mktemp("cache"))
        key = fingerprint(config)
        cache.store(key, payload)
        assert cache.load(key) == payload
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_load_unknown_key_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.load(fingerprint("nothing here")) is None
        assert cache.stats.misses == 1
