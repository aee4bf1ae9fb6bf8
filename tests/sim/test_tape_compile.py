"""Tape serialization is an exact, validated encoding.

A recording travels through the persistent tape cache as JSON
(:func:`tape_to_payload` / :func:`tape_from_payload`).  The round trip
is not allowed to lose a bit: a deserialized tape must replay bitwise
identically to the one that was recorded.  And a payload that decodes
but no longer holds together must fail to load, so the cache treats it
as a miss instead of crashing the replay.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sim.batch import (
    _OP_COMPUTE,
    _OP_SEND,
    _OP_WAIT,
    TAPE_FORMAT_VERSION,
    record_tape,
    replay_grid,
    tape_from_payload,
    tape_to_payload,
)
from repro.workloads import Jacobi

ALL_GEARS = (1, 2, 3, 4, 5, 6)

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
