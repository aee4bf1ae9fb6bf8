"""Interconnect model: latency/bandwidth point-to-point message timing.

The paper's cluster uses 100 Mb/s switched Ethernet.  Two properties of
that fabric matter to the energy model and are reproduced here:

- message time is *independent of the CPU gear* ("the time for
  communication is independent of the energy gear — the computational
  load during MPI communication is quite low", Section 4.1, step 5);
- collective operations built from point-to-point messages scale
  logarithmically (trees), linearly, or quadratically in node count
  depending on the algorithm and volume — the shapes the paper's
  communication classifier distinguishes.

The model is LogP-flavoured: a message of ``n`` bytes between two distinct
nodes costs ``latency + n / bandwidth`` of wire time, plus a fixed
per-message software overhead charged to both endpoints.  Messages a rank
sends to itself cost only a memcpy at memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class LinkSpec:
    """Parameters of the cluster interconnect.

    Attributes:
        bandwidth: sustained point-to-point bandwidth, bytes/second.
        latency: one-way small-message wire latency, seconds.
        software_overhead: per-message CPU-side cost (marshalling, kernel
            crossing), seconds, charged once per send and once per
            receive; independent of the gear in this model because the
            NIC/driver path is I/O-bound.
        memcpy_bandwidth: bandwidth for rank-to-self "messages",
            bytes/second.
        concurrency: how many wire transfers the switch backplane can
            carry simultaneously; further messages queue.  ``None`` means
            a non-blocking switch.  The paper-era commodity 100 Mb/s
            switch blocks under all-pairs traffic — this is what turns
            CG's n*(n-1) message pattern into the *quadratic*
            communication growth the paper measures, while leaving
            nearest-neighbour and tree patterns (Jacobi, EP, MG) nearly
            contention-free.
    """

    bandwidth: float
    latency: float
    software_overhead: float
    memcpy_bandwidth: float
    concurrency: int | None = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.memcpy_bandwidth <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if self.latency < 0 or self.software_overhead < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.concurrency is not None and self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1 or None, got {self.concurrency}"
            )


class NetworkModel:
    """Times messages on a :class:`LinkSpec`, with backplane contention.

    The model is stateful when the spec has finite concurrency: the
    backplane is a pool of ``concurrency`` transfer servers and each wire
    transfer occupies the earliest-free server.  Messages therefore queue
    deterministically in injection order under all-pairs load, while
    sparse patterns pass through unqueued.  ``queued`` counts the wire
    transfers that found every server busy at their injection time.
    """

    def __init__(self, spec: LinkSpec):
        self.spec = spec
        self._servers: list[float] = (
            [0.0] * spec.concurrency if spec.concurrency is not None else []
        )
        self.queued = 0

    def wire_time(self, nbytes: int) -> float:
        """Backplane occupancy of one message (serialization only)."""
        if nbytes < 0:
            raise ConfigurationError(f"message size must be non-negative, got {nbytes}")
        return nbytes / self.spec.bandwidth

    def schedule_transfer(
        self, inject_time: float, nbytes: int, *, same_node: bool = False
    ) -> float:
        """Return the arrival time of a message injected at ``inject_time``.

        For node-local messages only a memcpy is charged.  For wire
        messages the transfer occupies a backplane server for the wire
        time; with finite concurrency the start may be delayed.
        """
        if nbytes < 0:
            raise ConfigurationError(f"message size must be non-negative, got {nbytes}")
        if same_node:
            return inject_time + nbytes / self.spec.memcpy_bandwidth
        occupancy = nbytes / self.spec.bandwidth
        servers = self._servers
        if not servers:
            return inject_time + self.spec.latency + occupancy
        # Earliest-free server, first index on ties; a server freed at
        # the injection time serves the transfer without queueing it.
        free_at = min(servers)
        if free_at > inject_time:
            self.queued += 1
            start = free_at
        else:
            start = inject_time
        servers[servers.index(free_at)] = start + occupancy
        return start + self.spec.latency + occupancy

    def transfer_time(self, nbytes: int, *, same_node: bool = False) -> float:
        """Contention-free time for a message (specs/tests convenience)."""
        if nbytes < 0:
            raise ConfigurationError(f"message size must be non-negative, got {nbytes}")
        if same_node:
            return nbytes / self.spec.memcpy_bandwidth
        return self.spec.latency + nbytes / self.spec.bandwidth

    def endpoint_overhead(self) -> float:
        """Per-endpoint software cost of one message."""
        return self.spec.software_overhead


#: 100 Mb/s switched Ethernet with a 2004-era TCP/MPI software stack and a
#: backplane that blocks beyond 8 simultaneous transfers.
FAST_ETHERNET = LinkSpec(
    bandwidth=11.5e6,  # ~92 Mb/s of goodput out of 100 Mb/s
    latency=85e-6,
    software_overhead=12e-6,
    memcpy_bandwidth=1.2e9,
    concurrency=8,
)

#: The reference (non-power-scalable) cluster's fabric — a faster switched
#: network, used only for cross-validating the model's scalability fits.
REFERENCE_FABRIC = LinkSpec(
    bandwidth=100.0e6,
    latency=25e-6,
    software_overhead=6e-6,
    memcpy_bandwidth=2.0e9,
    concurrency=16,
)
