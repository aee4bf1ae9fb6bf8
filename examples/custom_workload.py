"""Writing your own MPI program against the simulated runtime.

Any generator over the Comm API is a rank program: this example builds
a small ping-pong-plus-stencil code from scratch, runs it at two gears,
and reads the instrumentation the paper's methodology is built on —
per-rank active/idle decomposition, hardware counters (UPM), the MPI
trace, and wall-outlet power samples.

Run:
    python examples/custom_workload.py
"""

from repro import World, athlon_cluster
from repro.obs import RunObserver


def stencil_program(comm):
    """A toy iterative code: compute, exchange halos, reduce a norm."""
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    norm = float(comm.rank + 1)
    for _ in range(20):
        # 50M uops with one L2 miss per 80 uops: mildly memory-bound.
        yield from comm.compute(uops=5e7, l2_misses=5e7 / 80)
        if comm.size > 1:
            yield from comm.sendrecv(right, left, send_bytes=16_384, tag=1)
            norm = yield from comm.allreduce(norm * 0.9, nbytes=8)
    return norm


def main() -> None:
    cluster = athlon_cluster()
    for gear in (1, 4):
        # An attached observer keeps the trace's rows for call_counts().
        result = World(
            cluster, stencil_program, nodes=4, gear=gear, observer=RunObserver()
        ).run()
        print(f"=== gear {gear} ===")
        print(f"time: {result.elapsed * 1e3:9.2f} ms")
        print(f"energy: {result.total_energy:7.2f} J (all 4 nodes)")
        print(f"T^A: {result.active_time * 1e3:.2f} ms, "
              f"T^I: {result.idle_time * 1e3:.2f} ms, "
              f"T^R: {result.reducible_time() * 1e3:.2f} ms")
        print(f"UPM: {result.upm:.1f} uops/miss")
        rank0 = result.ranks[0]
        calls = rank0.trace.call_counts()
        print(f"rank 0 MPI call counts: {calls}")
        samples = rank0.meter.samples(rate_hz=50.0)[:3]
        rendered = ", ".join(f"{s.watts:.0f} W @ {s.time*1e3:.1f} ms" for s in samples)
        print(f"first power samples: {rendered}")
        print(f"returned norms agree: {len(set(result.return_values())) == 1}")
        print()


if __name__ == "__main__":
    main()
