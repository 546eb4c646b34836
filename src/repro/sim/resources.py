"""Queued resources for modelling contention.

:class:`Resource` is a FIFO-granted counted resource;
:class:`PriorityResource` grants by (priority, fifo) order, which is the
shape of the OPB bus arbiter (fixed master priorities).  :class:`Store`
is an unbounded FIFO of items used by mailbox-style hardware (the
crossbar message channels).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.events import PENDING, Event


class Request(Event):
    """The event handed back by ``resource.request()``.

    Fires when the resource is granted.  Must be released via
    ``resource.release(request)`` (or used as a context token).
    ``requested_at`` is the cycle the request was made, from which the
    grant computes the wait.

    A *repeating* request announces ``count`` back-to-back grants of
    ``hold`` cycles each: its requester re-requests the moment it
    releases, until ``count`` grants have run
    (:meth:`PriorityResource.replay` resolves such grant sequences
    without events).  ``count`` 0 marks an ordinary request.  ``tag``
    is an opaque label for the requester's own bookkeeping.

    One request is allocated per arbitrated bus transfer, so, like
    :class:`~repro.sim.events.Timeout`, the class is slotted, inlines
    the :class:`Event` set-up and derives its ``repr`` label lazily.
    """

    __slots__ = ("resource", "priority", "requested_at", "count", "hold", "tag")

    def __init__(self, resource: "Resource", priority: int = 0, count: int = 0,
                 hold: int = 0, tag: Any = None):
        sim = resource.sim
        self.sim = sim
        self.name = None
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self.resource = resource
        self.priority = priority
        self.requested_at = sim.now
        self.count = count
        self.hold = hold
        self.tag = tag

    def __repr__(self) -> str:
        label = self.name or f"Request({self.resource.name})"
        return f"<{label} state={self._state}>"

    def release(self) -> None:
        """Give the resource back."""
        self.resource.release(self)


class Resource:
    """A counted resource granting at most ``capacity`` holders at once."""

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self._waiting: Deque[Request] = deque()
        self.grant_count = 0
        self.wait_cycles_total = 0

    # -- public API -----------------------------------------------------------
    def request(self, priority: int = 0, count: int = 0, hold: int = 0,
                tag: Any = None) -> Request:
        """Ask for the resource; the returned event fires when granted.

        ``count``, ``hold`` and ``tag`` describe a repeating request
        (see :class:`Request`).
        """
        req = Request(self, priority, count, hold, tag)
        self._enqueue(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return the resource and wake the next waiter."""
        try:
            self.users.remove(request)
        except ValueError:
            # Cancelled before grant: drop from the wait queue instead.
            try:
                self._waiting.remove(request)
            except ValueError:
                raise RuntimeError("release of a request this resource never saw")
        self._grant()

    @property
    def queue_length(self) -> int:
        """Number of ungranted requests."""
        return len(self._waiting)

    @property
    def busy(self) -> bool:
        """True when at least one holder is active."""
        return bool(self.users)

    # -- internals --------------------------------------------------------------
    def _enqueue(self, req: Request) -> None:
        self._waiting.append(req)

    def _next(self) -> Optional[Request]:
        if not self._waiting:
            return None
        return self._waiting.popleft()

    def _grant(self) -> None:
        while len(self.users) < self.capacity:
            req = self._next()
            if req is None:
                return
            self.users.append(req)
            self.grant_count += 1
            self.wait_cycles_total += self.sim.now - req.requested_at
            req.succeed(self)


class PriorityResource(Resource):
    """Resource granted in (priority, arrival) order; lower wins.

    This matches a fixed-priority bus arbiter: the pending master with
    the numerically lowest priority value is granted first, FIFO among
    equals.  The wait queue is a heap on ``(priority, arrival)``.
    """

    def __init__(self, sim, capacity: int = 1, name: str = "priority-resource"):
        super().__init__(sim, capacity=capacity, name=name)
        self._counter = 0
        self._pq: List[Tuple[int, int, Request]] = []

    def _enqueue(self, req: Request) -> None:
        self._counter += 1
        heapq.heappush(self._pq, (req.priority, self._counter, req))

    def _next(self) -> Optional[Request]:
        if not self._pq:
            return None
        return heapq.heappop(self._pq)[2]

    @property
    def queue_length(self) -> int:
        return len(self._pq)

    def release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            for i, (_p, _o, r) in enumerate(self._pq):
                if r is request:
                    del self._pq[i]
                    heapq.heapify(self._pq)
                    break
            else:
                raise RuntimeError("release of a request this resource never saw")
        self._grant()

    def replay(self, holder: Request, limit: float):
        """Resolve the grants of repeating requests up to ``limit``, eventless.

        ``holder`` was granted now (capacity 1).  At each release its
        grants reach, the replay runs :meth:`release` then
        :meth:`request`: the heap minimum is granted, then the releaser
        re-enqueues with a fresh arrival (alone, it re-grants itself
        with zero wait).  It stops before a release later than
        ``limit`` and before the release of a holder's last grant.  The
        caller guarantees that nothing else happens up to ``limit``.

        Grants are booked now (``grant_count``, ``wait_cycles_total``,
        each request's ``count`` and ``requested_at``), and ``users``,
        the heap and the arrival counter end as the grant-by-grant run
        leaves them.  After a hand-over, ``holder`` is queued again
        (pending) and the new holder's grant is pushed at its instant,
        the only queue entry there as nothing else is due by ``limit``.

        Returns the last grant's instant and ``(request, count,
        requested_at)`` per request as it was before, from which the
        caller books completed grants; ``None``, resolving nothing,
        when a queued request does not repeat.
        """
        pq = self._pq
        start = [(holder, holder.count, holder.requested_at)]
        for _p, _o, req in pq:
            if req.count < 1:
                return None
            start.append((req, req.count, req.requested_at))
        t = self.sim.now
        counter = self._counter
        held = holder
        grants = waits = 0
        heapreplace = heapq.heapreplace
        while held.count > 1:
            end = t + held.hold
            if end > limit:
                break
            held.count -= 1
            held.requested_at = t = end
            counter += 1
            grants += 1
            if pq:
                # Release then request: the heap minimum is granted
                # before the releaser pushes itself back.
                nxt = heapreplace(pq, (held.priority, counter, held))[2]
                waits += t - nxt.requested_at
                held = nxt
        self._counter = counter
        self.grant_count += grants
        self.wait_cycles_total += waits
        if held is not holder:
            self.users[0] = held
            holder._state = PENDING
            held._value = self
            self.sim._push(t, held)
        return t, start


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is buffered).
    """

    def __init__(self, sim, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item in FIFO order."""
        event = Event(self.sim, name=f"{self.name}.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
