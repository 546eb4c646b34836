"""The shared On-chip Peripheral Bus (OPB) with fixed-priority arbitration.

Single-master-at-a-time: every shared-memory access, peripheral
register access and MPIC configuration access serialises here, which is
exactly the contention the paper measures against the theoretical
simulator.  Masters are granted in fixed priority order (lower cpu id
wins), FIFO among equal priorities.

Two usage styles:

- ``yield from bus.transfer(master, target, words)`` inside a
  :class:`~repro.sim.engine.Process` -- fine-grained, arbitrated.
- ``bus.stats`` exposes utilization counters that the analytic
  contention model (:func:`analytic_txn_waits`, below) is calibrated
  against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.sim.engine import Simulator
from repro.sim.resources import PriorityResource


class BusTarget(Protocol):
    """Anything reachable over the bus: memories, device registers."""

    name: str

    def access_latency(self, words: int = 1) -> int:
        """Cycles the bus is held for a ``words``-beat transaction."""
        ...


@dataclass
class BusStats:
    """Aggregate bus accounting (per master and total)."""

    busy_cycles: int = 0
    transactions: int = 0
    wait_cycles: Dict[int, int] = field(default_factory=dict)
    transfer_cycles: Dict[int, int] = field(default_factory=dict)
    per_target: Dict[str, int] = field(default_factory=dict)
    stalls_injected: int = 0
    stall_cycles: int = 0

    def utilization(self, elapsed: int) -> float:
        """Fraction of elapsed cycles the bus was occupied."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def mean_wait(self, master: int) -> float:
        """Average grant delay in cycles seen by ``master``."""
        waits = self.wait_cycles.get(master, 0)
        count = self.transfer_cycles.get(master, 0)
        return waits / count if count else 0.0


class OPBBus:
    """Fixed-priority arbitrated shared bus.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    name:
        Label for traces.
    """

    def __init__(self, sim: Simulator, name: str = "opb"):
        self.sim = sim
        self.name = name
        self._arbiter = PriorityResource(sim, capacity=1, name=f"{name}-arbiter")
        self.stats = BusStats()

    def transfer(self, master: int, target: BusTarget, words: int = 1):
        """Generator: arbitrate, hold the bus, release.

        Yields inside a Process.  Returns the total cycles spent
        (waiting + transferring) so callers can account time.
        """
        start = self.sim.now
        request = self._arbiter.request(priority=master)
        try:
            yield request
            waited = self.sim.now - start
            latency = target.access_latency(words)
            yield self.sim.timeout(latency)
        finally:
            # An interrupt thrown into the caller mid-transaction must
            # not leave the bus granted forever; the abandoned cycles
            # are charged to the interrupt latency instead.
            self._arbiter.release(request)

        self.stats.busy_cycles += latency
        self.stats.transactions += 1
        self.stats.wait_cycles[master] = self.stats.wait_cycles.get(master, 0) + waited
        self.stats.transfer_cycles[master] = (
            self.stats.transfer_cycles.get(master, 0) + 1
        )
        self.stats.per_target[target.name] = (
            self.stats.per_target.get(target.name, 0) + latency
        )
        return waited + latency

    #: Arbitration priority of injected stalls: beats every real master
    #: (lower wins), modelling a glitching device that hogs grant.
    STALL_PRIORITY = -1

    def stall(self, cycles: int):
        """Generator: transient-fault surface -- occupy the bus.

        Run inside a ``sim.process``; grabs the arbiter at a priority
        above every master and holds it for ``cycles``, so real
        transfers queue behind the burst exactly as behind a misbehaving
        peripheral.  Accounted separately from useful traffic in
        ``stats.stall_cycles``.
        """
        if cycles <= 0:
            raise ValueError("stall cycles must be positive")
        request = self._arbiter.request(priority=self.STALL_PRIORITY)
        try:
            yield request
            yield self.sim.timeout(cycles)
        finally:
            self._arbiter.release(request)
        self.stats.busy_cycles += cycles
        self.stats.stalls_injected += 1
        self.stats.stall_cycles += cycles

    def read_word(self, master: int, target, addr: int):
        """Generator: arbitrated single-word read returning the value."""
        yield from self.transfer(master, target, words=1)
        return target.read_word(addr)

    def write_word(self, master: int, target, addr: int, value: int):
        """Generator: arbitrated single-word write."""
        yield from self.transfer(master, target, words=1)
        target.write_word(addr, value)

    @property
    def queue_length(self) -> int:
        """Masters currently waiting for grant (diagnostic)."""
        return self._arbiter.queue_length

    @property
    def busy(self) -> bool:
        return self._arbiter.busy


def analytic_txn_wait(
    shares: List[float],
    latencies: List[float],
    master: int,
    gain: float = 1.0,
    skew: float = 0.0,
) -> float:
    """Expected arbitration wait per transaction, in cycles.

    Closed-form stand-in for the arbiter above, used by the
    transaction-level simulator (:mod:`repro.simulators.tlm`) where
    individual transfers are folded into timed blocks:

        wait = gain * R * (1 + R) * mean(other latencies),

    where ``R`` is the combined duty cycle (``latency/period`` share)
    of the *other* masters.  The linear term is the classic
    mean-residual collision cost -- the chance some other master
    occupies the bus on arrival times its mean remaining service; the
    quadratic term models queue buildup as the bus approaches and
    passes saturation.  Unlike an M/G/1 ``R/(1-R)`` pole this stays
    finite for R >= 1, which matters here: the automotive profiles
    carry per-core duty cycles of 0.2-0.75, so three concurrent cores
    routinely push combined demand past 1 and the observed effect is a
    graceful slide into bus-limited progress (per-core stretch 1.1-1.8
    in prototype measurements), not a divergence.  ``gain`` is the
    calibration knob fitted against prototype runs
    (``repro-perf calibrate-tlm``); it absorbs burst clustering (cores
    issue their chunk's transactions back to back) and the
    burst clustering of the chunked cores.

    ``skew`` models the fixed-priority order of the real arbiter
    (lower cpu id wins): the wait is tilted linearly across the active
    masters, ``(1 - skew)`` at the highest-priority one through
    ``(1 + skew)`` at the lowest, keeping the mean wait unchanged.
    Prototype measurements show the effect is strong -- per-core
    stretch spans 1.16 to 1.80 on a loaded 4-cpu cell -- and it shapes
    per-task response times directly because promoted tasks execute
    pinned to their home processor.

    ``shares``/``latencies`` carry one entry per master (0.0 for idle
    processors); entries are order-aligned with cpu ids.
    """
    if gain < 0:
        raise ValueError("gain must be non-negative")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    others = [
        (share, latency)
        for cpu, (share, latency) in enumerate(zip(shares, latencies))
        if cpu != master and share > 0.0
    ]
    if not others:
        return 0.0
    load = sum(share for share, _ in others)
    mean_latency = sum(latency for _, latency in others) / len(others)
    wait = gain * load * (1.0 + load) * mean_latency
    if skew:
        active = sorted(
            cpu for cpu, share in enumerate(shares)
            if share > 0.0 or cpu == master
        )
        if len(active) > 1:
            rank = active.index(master)
            wait *= 1.0 + skew * (2.0 * rank / (len(active) - 1) - 1.0)
    return wait


def analytic_txn_waits(
    shares: List[float],
    latencies: List[float],
    gain: float = 1.0,
    skew: float = 0.0,
) -> List[float]:
    """Per-master analytic waits for every master in one pass.

    Semantically :func:`analytic_txn_wait` evaluated at each master,
    but the shared sums are computed once -- this is the TLM hot path
    (one call per distinct running set).  The per-master loads are
    derived by subtracting the master's own contribution from the
    totals, which can differ from the scalar function's direct
    summation by a final-ulp rounding; the calibration is run against
    this function, so the fitted residual covers it.
    """
    if gain < 0:
        raise ValueError("gain must be non-negative")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    n = len(shares)
    active = []
    total_share = 0.0
    total_latency = 0.0
    for cpu in range(n):
        share = shares[cpu]
        if share > 0.0:
            active.append(cpu)
            total_share += share
            total_latency += latencies[cpu]
    waits = [0.0] * n
    for master in range(n):
        if shares[master] > 0.0:
            k_others = len(active) - 1
            load = total_share - shares[master]
            latency_sum = total_latency - latencies[master]
        else:
            k_others = len(active)
            load = total_share
            latency_sum = total_latency
        if k_others <= 0 or load <= 0.0:
            continue
        wait = gain * load * (1.0 + load) * (latency_sum / k_others)
        if skew:
            group = active if shares[master] > 0.0 else sorted(active + [master])
            if len(group) > 1:
                rank = group.index(master)
                wait *= 1.0 + skew * (2.0 * rank / (len(group) - 1) - 1.0)
        waits[master] = wait
    return waits


@dataclass
class RegisterTarget:
    """A simple device register block on the bus (e.g. MPIC registers).

    Register accesses on the OPB cost a few cycles; the paper's MPIC is
    configured and acknowledged through such accesses under mutual
    exclusion ("controller management is sequential").
    """

    name: str
    latency: int = 3

    def access_latency(self, words: int = 1) -> int:
        return self.latency * words
