"""Request vocabulary validation."""

import pytest

from repro.cluster.memory import ComputeBlock
from repro.mpi.requests import (
    Compute,
    DiskIO,
    Elapse,
    Exchange,
    Handle,
    Irecv,
    Isend,
    IterationMark,
    Now,
    SetDiskSpeed,
    SetGear,
    TraceMark,
    Wait,
)
from repro.util.errors import ConfigurationError

#: One instance of every request type.
REQUESTS = [
    Compute(ComputeBlock(1e6, 1e3)),
    Elapse(0.5),
    SetGear(2),
    Now(),
    DiskIO(4096),
    SetDiskSpeed(1),
    Isend(1, 0, 8, "payload"),
    Irecv(0, 3),
    Wait(Handle("recv", 0, 1, 0)),
    Exchange(1, 0, 3, 8, "payload"),
    IterationMark(2, 10),
    TraceMark("bcast", "begin", 64),
]


class TestIsend:
    def test_rejects_negative_bytes(self):
        with pytest.raises(ConfigurationError):
            Isend(dest=1, tag=0, nbytes=-1)

    def test_rejects_negative_tag(self):
        with pytest.raises(ConfigurationError):
            Isend(dest=1, tag=-2, nbytes=0)

    def test_zero_byte_message_allowed(self):
        Isend(dest=0, tag=0, nbytes=0)

    def test_keyword_construction(self):
        req = Isend(dest=1, tag=0, nbytes=8)
        assert (req.dest, req.tag, req.nbytes, req.payload) == (1, 0, 8, None)
        assert req == Isend(1, 0, 8)


class TestExchange:
    def test_rejects_negative_bytes(self):
        with pytest.raises(ConfigurationError):
            Exchange(dest=1, source=0, tag=0, nbytes=-1)

    def test_rejects_negative_tag(self):
        with pytest.raises(ConfigurationError):
            Exchange(dest=1, source=0, tag=-2, nbytes=0)

    def test_zero_byte_message_allowed(self):
        Exchange(dest=0, source=0, tag=0, nbytes=0)

    def test_keyword_construction(self):
        req = Exchange(dest=1, source=2, tag=0, nbytes=8)
        assert (req.dest, req.source, req.tag, req.nbytes, req.payload) == (
            1,
            2,
            0,
            8,
            None,
        )
        # The default is a collective round's shape.
        assert req.sendrecv is False
        assert req == Exchange(1, 2, 0, 8)


class TestElapse:
    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Elapse(-0.5)

    def test_zero_allowed(self):
        Elapse(0.0)


class TestDiskIO:
    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            DiskIO(-1)

    def test_zero_allowed(self):
        assert DiskIO(0).nbytes == 0


class TestIterationMark:
    @pytest.mark.parametrize("index, total", [(10, 10), (-1, 10), (1, 0), (0, -1)])
    def test_rejects_out_of_range(self, index, total):
        with pytest.raises(ConfigurationError):
            IterationMark(index, total)

    def test_bounds_allowed(self):
        assert IterationMark(index=9, total=10).index == 9
        assert IterationMark(0, 0).total == 0


@pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: type(r).__name__)
class TestImmutable:
    def test_fields_cannot_be_assigned(self, request_):
        for name in request_._fields:
            with pytest.raises(AttributeError):
                setattr(request_, name, None)

    def test_attributes_cannot_be_added(self, request_):
        with pytest.raises(AttributeError):
            request_.extra = 1


class TestHandle:
    def test_incomplete_by_default(self):
        h = Handle(kind="recv", rank=0, peer=1, tag=0)
        assert not h.complete
        h.complete_at = 1.5
        assert h.complete

    def test_uids_unique(self):
        a = Handle(kind="send", rank=0, peer=1, tag=0)
        b = Handle(kind="send", rank=0, peer=1, tag=0)
        assert a.uid != b.uid


def test_trace_mark_fields():
    mark = TraceMark("allreduce", "begin", nbytes=64)
    assert (mark.op, mark.phase, mark.nbytes) == ("allreduce", "begin", 64)
