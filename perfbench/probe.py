"""Outside-in instrumentation of the simulator layers.

A :class:`Probe` patches public methods of the program's classes for
the duration of a pass and restores them afterwards; nothing under
``src/`` knows it is being measured.

- Always (also untraced): the ``run`` method of every simulator rung
  is wrapped to capture the instance, its horizon and its outcome, so
  the benchmark can check outputs and count modelled cycles of runs
  whose objects the public API keeps to itself (``figure4_sweep``,
  ``campaign_cell``).  That costs one Python call per simulation.
- Traced only: spans around each layer call (a
  :class:`repro.obs.spans.SpanRecorder`), call counters and timers on
  the high-frequency layer entry points (MPDP allocation, queue
  operations, resource requests, run-cache reads and writes), the
  public stats of every captured simulator, and sampled self time
  aggregated by module (:class:`Sampler`).
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


#: Reference-loop time that defines one normalised host second.
REF_NOMINAL_S = 0.004


class _Item:
    __slots__ = ("key", "payload", "seen")

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload
        self.seen = None


def _echo():
    value = None
    while True:
        value = yield value


def _arithmetic_loop() -> None:
    table, acc = {}, 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc


def _allocation_loop() -> None:
    """Objects, a heap and generator resumes: the simulator's mix."""
    heap, items = [], []
    echoes = [_echo() for _ in range(32)]
    for echo in echoes:
        next(echo)
    for i in range(4_000):
        item = _Item(i, {"k": i})
        items.append(item)
        heapq.heappush(heap, ((i * 7919) % 1009, i, item))
        echoes[i & 31].send(i)
        if len(heap) > 512:
            heapq.heappop(heap)[2].seen = len(items)


def reference_s() -> float:
    """Host speed now: the geometric mean of two fixed pure-Python loops,
    each the fastest of three runs (about 4 ms on a 2-CPU host; the
    call takes about 25 ms).

    The arithmetic loop tracks interpreter speed; the allocation loop
    tracks the memory-bound slowdowns a busy neighbour causes.
    """
    times = []
    for loop in (_arithmetic_loop, _allocation_loop):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - started)
        times.append(best)
    return math.sqrt(times[0] * times[1])


class HostClock:
    """Host seconds normalised to the speed of fixed reference loops.

    A shared host's CPU speed can drift by up to half over tens of
    seconds, far more than any bound a benchmark can hold.  After a
    timed unit the clock samples :func:`reference_s` (at most every
    ``GAP_S``, so short units do not pay for it each time) and scales
    the unit's seconds by ``REF_NOMINAL_S`` over the mean of the latest
    ``WINDOW`` samples: the time the unit would take on a host where the
    reference takes ``REF_NOMINAL_S``.  The loops are independent of
    the program, so a faster program still reads faster.
    """

    WINDOW = 4
    GAP_S = 0.25

    def __init__(self):
        self._samples = [reference_s()]
        self._sampled_at = time.perf_counter()

    def factor(self) -> float:
        """Scale for the unit timed since the previous call."""
        if time.perf_counter() - self._sampled_at >= self.GAP_S:
            self._samples = (self._samples + [reference_s()])[-self.WINDOW:]
            self._sampled_at = time.perf_counter()
        return REF_NOMINAL_S * len(self._samples) / sum(self._samples)


class SimRecord:
    """One captured simulation: rung, instance, horizon and outcome."""

    __slots__ = ("rung", "instance", "until", "ok", "host_s")

    def __init__(self, rung: str, instance: Any, until: int):
        self.rung = rung
        self.instance = instance
        self.until = until
        self.ok = False
        self.host_s = 0.0

    def clock(self) -> int:
        """Simulated cycles reached: the horizon, or the clock at failure."""
        if self.ok and self.rung != "prototype":
            return self.until
        sim = getattr(self.instance, "sim", None)
        return sim.now if sim is not None else self.instance.now


def _rung_of(instance: Any) -> str:
    policy = getattr(instance, "policy", None)
    kind = type(instance).__name__
    if kind == "MultiprocessorSimulator":
        return "baseline." + policy.name
    return {"TheoreticalSimulator": "theoretical", "TLMSimulator": "tlm",
            "DualPriorityMicrokernel": "prototype"}[kind]


def layer_of(filename: str) -> str:
    """Map a profiled code object's file to a layer name (``sim.engine``)."""
    import repro

    package = Path(repro.__file__).resolve().parent
    path = Path(filename)
    if path.is_absolute():
        path = path.resolve()
        if path.is_relative_to(package):
            return ".".join(path.relative_to(package).with_suffix("").parts)
        if path.parent == Path(__file__).resolve().parent:
            return "perfbench"
    return "other"


_REFERENCE_CODE = {reference_s.__code__, _arithmetic_loop.__code__,
                   _allocation_loop.__code__, _echo.__code__, _Item.__init__.__code__}


class Sampler:
    """Statistical self-time profiler.

    Every ``INTERVAL_S`` of process CPU time (``SIGPROF``) it counts the
    file of the Python frame that is running; time in C code lands on
    the Python frame that called it.  Unlike cProfile it does not charge
    every call, so it neither distorts the shares of call-heavy layers
    nor triples the pass (cProfile made the traced ``fig4-prototype``
    pass about 3.5 times slower than the untraced one).
    """

    INTERVAL_S = 0.001

    def __init__(self):
        self.samples: Counter = Counter()
        self._previous = None

    def _sample(self, _signum, frame) -> None:
        # The host clock's reference loops are measurement, not a layer.
        if frame is not None and frame.f_code not in _REFERENCE_CODE:
            self.samples[frame.f_code.co_filename] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> Dict[str, float]:
        """Stop sampling; returns each layer's share of the samples."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        by_layer: Counter = Counter()
        for filename, n in self.samples.items():
            by_layer[layer_of(filename)] += n
        total = sum(by_layer.values()) or 1
        return {layer: n / total for layer, n in by_layer.items()}


class Probe:
    """Patches layer entry points; use as a context manager around a pass."""

    def __init__(self, traced: bool = False, spans=None):
        self.traced = traced
        self.spans = spans
        self.clock = HostClock()
        #: Simulations of the current run (the workload clears it per run).
        self.sims: List[SimRecord] = []
        self.count: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.injectors: List[Any] = []
        self.host_share: Dict[str, float] = {}
        self._patches: List[tuple] = []
        self._sampler: Optional[Sampler] = None

    # ------------------------------------------------------------ patching
    def _patch(self, owner: Any, name: str,
               make: Callable[[Callable], Callable]) -> None:
        own = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original, own))

    def begin_span(self, name: str, **attrs):
        """Open a span when tracing (returns None otherwise)."""
        return self.spans.begin(name, **attrs) if self.spans is not None else None

    def end_span(self, span, **attrs) -> None:
        if span is not None:
            span.attrs.update(attrs)
            self.spans.end(span)

    def _wrap_run(self, original: Callable) -> Callable:
        probe = self

        def run(sim, *args, **kwargs):
            until = args[0] if args else kwargs["until"]
            record = SimRecord(_rung_of(sim), sim, until)
            probe.sims.append(record)
            span = probe.begin_span(record.rung + ".run", until=until)
            started = time.perf_counter()
            try:
                result = original(sim, *args, **kwargs)
                record.ok = True
                return result
            finally:
                record.host_s = time.perf_counter() - started
                probe.end_span(span, ok=record.ok)
                if probe.traced:
                    probe._collect(record)
        return run

    def _timed(self, key: str, span: bool = False) -> Callable:
        probe = self

        def make(original: Callable) -> Callable:
            def timed(*args, **kwargs):
                opened = probe.begin_span(key) if span else None
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe.seconds[key] += time.perf_counter() - started
                    probe.count[key] += 1
                    probe.end_span(opened)
            return timed
        return make

    def _counted(self, key: str) -> Callable:
        count = self.count

        def make(original: Callable) -> Callable:
            def counted(*args, **kwargs):
                count[key] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _requests(self, original: Callable) -> Callable:
        count = self.count

        def request(resource, *args, **kwargs):
            req = original(resource, *args, **kwargs)
            count["sim.resources.requests"] += 1
            if req.triggered:
                count["sim.resources.immediate_grants"] += 1
            return req
        return request

    def _arm(self, original: Callable) -> Callable:
        injectors = self.injectors

        def arm(injector):
            injectors.append(injector)
            return original(injector)
        return arm

    def __enter__(self) -> "Probe":
        from repro.core import queues
        from repro.core.mpdp import MPDPScheduler
        from repro.experiments import figure4
        from repro.faults.injector import FaultInjector
        from repro.kernel.microkernel import DualPriorityMicrokernel
        from repro.perf.cache import RunCache
        from repro.sim.resources import Resource
        from repro.simulators.baselines import MultiprocessorSimulator
        from repro.simulators.theoretical import TheoreticalSimulator
        from repro.simulators.tlm import TLMSimulator

        for cls in (TheoreticalSimulator, TLMSimulator, MultiprocessorSimulator,
                    DualPriorityMicrokernel):
            self._patch(cls, "run", self._wrap_run)
        if self.traced:
            self._patch(MPDPScheduler, "allocate", self._timed("core.mpdp.allocate"))
            for cls, names in (
                (queues.PeriodicReadyQueue, ("push", "pop", "remove")),
                (queues.HighPriorityLocalQueue, ("push", "pop", "remove")),
                (queues.AperiodicReadyQueue,
                 ("push", "pop", "remove", "requeue_front")),
                (queues.WaitingPeriodicQueue, ("push", "pop_released")),
            ):
                for name in names:
                    self._patch(cls, name, self._counted("core.queues.ops"))
            self._patch(Resource, "request", self._requests)
            self._patch(RunCache, "lookup", self._timed("perf.cache.lookup", span=True))
            self._patch(RunCache, "put", self._timed("perf.cache.put", span=True))
            self._patch(figure4, "pmap", self._timed("perf.executor.pmap", span=True))
            self._patch(figure4, "run_cell", self._timed("experiments.figure4.run_cell"))
            self._patch(FaultInjector, "arm", self._arm)
            self._sampler = Sampler()
            self._sampler.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._sampler is not None:
            self.host_share = self._sampler.stop()
            self._sampler = None
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    # ---------------------------------------------------------- layer stats
    def _collect(self, record: SimRecord) -> None:
        """Fold a finished (or failed) simulation's public stats in."""
        count, sim = self.count, record.instance
        self.seconds[f"simulators.{record.rung}.run"] += record.host_s
        policy = getattr(sim, "policy", None)
        if hasattr(policy, "promotion_count"):
            count["core.mpdp.promotions"] += policy.promotion_count
        if record.rung == "tlm":
            count["sim.engine.events"] += sim.sim._eid
            count["simulators.tlm.transactions"] += sim.stats()["tlm_transactions"]
        if record.rung != "prototype":
            return
        soc = sim.soc
        count["sim.engine.events"] += soc.sim._eid
        bus = soc.bus.stats
        count["hw.bus.transactions"] += bus.transactions
        count["hw.bus.wait_cycles"] += sum(bus.wait_cycles.values())
        count["hw.bus.busy_cycles"] += bus.busy_cycles
        count["hw.bus.stall_cycles"] += bus.stall_cycles
        for core in soc.cores:
            count["hw.microblaze.busy_cycles"] += core.busy_cycles
            count["hw.microblaze.stall_cycles"] += core.stall_cycles
            count["hw.microblaze.nominal_cycles"] += core.nominal_cycles
            count["hw.cache.icache_misses"] += core.icache.misses
        count["hw.intc.delivered"] += soc.intc.delivered
        count["hw.intc.timeouts"] += soc.intc.timeouts
        count["hw.intc.ipis"] += soc.intc.ipis_sent
        stats = sim.stats()
        for key in ("scheduling_cycles", "context_switches", "irqs_serviced",
                    "deadline_misses", "task_retries", "jobs_shed"):
            count[f"kernel.microkernel.{key}"] += stats[key]
