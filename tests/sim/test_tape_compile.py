"""Tape compilation and serialization are exact, invertible encodings.

Two representation changes sit between a recording and the vectorized
replay that revalues it: the op tuples are compiled into SoA columns
(:func:`compile_columns`), and — when the tape travels through the
persistent tape cache — the whole tape round-trips JSON
(:func:`tape_to_payload` / :func:`tape_from_payload`).  Neither step is
allowed to lose a bit: the columns must reconstruct the tuple stream
value-for-value, and a deserialized tape must replay bitwise
identically to the one that was recorded.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import (
    _OP_COMPUTE,
    _OP_DISK,
    _OP_DSPEED,
    _OP_ELAPSE,
    _OP_MARK,
    _OP_RECV,
    _OP_SEND,
    _OP_WAIT,
    TAPE_FORMAT_VERSION,
    columns_to_ops,
    compile_columns,
    record_tape,
    replay_grid,
    tape_from_payload,
    tape_to_payload,
)
from repro.workloads import CG, Jacobi

ALL_GEARS = (1, 2, 3, 4, 5, 6)

# Parameter strategies span the lanes' real ranges: rank/tag/slot-like
# ints stay small, byte counts reach well into int64, and float lanes
# take any finite float64 (the columns must not round, clamp, or lose
# sign anywhere).
_small_int = st.integers(min_value=0, max_value=10_000)
_byte_count = st.integers(min_value=0, max_value=2**62)
_seconds = st.floats(allow_nan=False, allow_infinity=False, width=64)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just(_OP_COMPUTE), _small_int),
        st.tuples(
            st.just(_OP_SEND),
            _small_int,
            _small_int,
            _byte_count,
            st.booleans(),
        ),
        st.tuples(st.just(_OP_RECV), _small_int, _small_int, _small_int),
        st.tuples(st.just(_OP_WAIT), _small_int),
        st.tuples(st.just(_OP_ELAPSE), _seconds),
        st.tuples(st.just(_OP_DISK), _seconds),
        st.tuples(st.just(_OP_DSPEED), _seconds, _seconds),
        st.tuples(st.just(_OP_MARK), _small_int, _small_int),
    ),
    max_size=60,
)


# Corruptions of a decoded 2-rank tape payload (op lists, payload).


def _swap_segments(ops, payload):
    first, second = [op for op in ops[0] if op[0] == _OP_COMPUTE][:2]
    first[1], second[1] = second[1], first[1]


def _segment_past_arrays(ops, payload):
    last = [op for op in ops[0] if op[0] == _OP_COMPUTE][-1]
    last[1] = len(payload["seg_uops"][0])


def _wait_past_slots(ops, payload):
    wait = next(op for op in ops[0] if op[0] == _OP_WAIT)
    wait[1] = payload["recv_slots"][0]


def _drop_a_send(ops, payload):
    # Rank 0 waits for every message rank 1 sends it.
    ops[1].remove(next(op for op in ops[1] if op[0] == _OP_SEND))


def _pad_an_op(ops, payload):
    ops[0][0].append(0)


class TestColumnRoundTrip:
    """compile_columns / columns_to_ops are exact inverses."""

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_op_streams_round_trip(self, ops):
        columns = compile_columns(ops)
        assert columns.codes.shape == (len(ops),)
        assert columns.codes.dtype == np.int64
        assert columns.ints.dtype == np.int64
        assert columns.floats.dtype == np.float64
        restored = columns_to_ops(columns)
        assert restored == ops
        # Python's True == 1 makes plain equality too forgiving for the
        # SEND same-node flag; the decoded lane must come back as bool.
        for op in restored:
            if op[0] == _OP_SEND:
                assert isinstance(op[4], bool)

    def test_recorded_tapes_round_trip(self, cluster):
        # Real recordings exercise every opcode interleaving the
        # generator above cannot know about (iteration marks around
        # halo exchanges, reduction fan-ins, ...).
        tape = record_tape(cluster, CG(0.5), nodes=2, gear=1)
        for rank_ops in tape.ops:
            assert columns_to_ops(compile_columns(rank_ops)) == rank_ops


class TestPayloadRoundTrip:
    """Tape JSON serialization is bitwise lossless."""

    def test_payload_survives_json_and_replays_bitwise(self, cluster):
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        wire = json.dumps(tape_to_payload(tape))
        restored = tape_from_payload(cluster, json.loads(wire))
        assert restored.ops == tape.ops
        assert restored.workload_name == tape.workload_name
        assert restored.nodes == tape.nodes
        assert restored.recording_time == tape.recording_time
        assert restored.recording_energy == tape.recording_energy
        for ours, theirs in zip(restored.seg_uops, tape.seg_uops):
            assert np.array_equal(ours, theirs)
        for ours, theirs in zip(restored.seg_weight, tape.seg_weight):
            assert np.array_equal(ours, theirs)
        # The contract the tape cache rests on: not 1e-9-close — every
        # float of every gear's measurement must compare equal.
        original = replay_grid(tape, list(ALL_GEARS))
        replayed = replay_grid(restored, list(ALL_GEARS))
        for ours, theirs in zip(replayed, original):
            assert ours.gear == theirs.gear
            assert ours.time == theirs.time
            assert ours.energy == theirs.energy
            assert ours.active_time == theirs.active_time

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            pytest.param(corrupt, match, id=corrupt.__name__.strip("_"))
            for corrupt, match in (
                (_swap_segments, "segment"),
                (_segment_past_arrays, "segment"),
                (_wait_past_slots, "wait on slot"),
                (_drop_a_send, "no send completes"),
                (_pad_an_op, "malformed"),
            )
        ],
    )
    def test_inconsistent_ops_are_rejected(self, cluster, corrupt, match):
        # An entry that decodes but no longer holds together must fail
        # to load, so the tape cache treats it as a miss and re-records
        # instead of crashing the replay.
        payload = json.loads(
            json.dumps(
                tape_to_payload(record_tape(cluster, Jacobi(0.2), nodes=2, gear=1))
            )
        )
        corrupt(payload["ops"], payload)
        with pytest.raises(ValueError, match=match):
            tape_from_payload(cluster, payload)

    def test_format_mismatch_is_rejected(self, cluster):
        tape = record_tape(cluster, Jacobi(0.2), nodes=2, gear=1)
        payload = tape_to_payload(tape)
        assert payload["format"] == TAPE_FORMAT_VERSION
        payload["format"] = TAPE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="tape format"):
            tape_from_payload(cluster, payload)
