"""Bottleneck buffers and Active Queue Management disciplines.

Figure 23 of the paper evaluates Sage under five queue disciplines: tail
drop (TDrop), head drop (HDrop), CoDel, PIE, and BoDe. Each discipline here
owns the FIFO buffer so that head-dropping variants can reach inside it.
The intelligent-queue subsystem extends the set with :class:`FQCoDel`
(per-flow fair queueing with per-queue CoDel) and :class:`LearnedECN`
(a trained marking predictor over queue telemetry) — the other side of the
CC-vs-queue arms race the ROADMAP's co-evolution league asks about.

Each :class:`~repro.netsim.topo.TopoLink` drives the interface: it calls
:meth:`AQM.enqueue` on packet arrival and :meth:`AQM.dequeue` when the
serializer frees up, and it keeps :attr:`AQM.current_rate_bps` up to date so
delay-estimating disciplines (PIE, BoDe) can convert backlog to latency.
Disciplines that signal with ECN count CE marks in :attr:`AQM.ecn_marks`,
next to :attr:`AQM.drops`.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from typing import Dict, Optional

from repro.netsim.packet import MSS_BYTES, Packet


class AQM:
    """Base buffer: unbounded FIFO bookkeeping plus drop statistics."""

    name = "base"

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.buffer: deque = deque()
        self.bytes_queued = 0
        self.drops = 0
        #: CE marks applied by ECN-capable disciplines (0 for loss-only ones).
        self.ecn_marks = 0
        self.enqueues = 0
        #: Updated by the link before every enqueue/dequeue; lets the AQM
        #: estimate queueing delay as backlog / service rate.
        self.current_rate_bps = 1e6

    # -- interface -----------------------------------------------------
    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Try to admit ``pkt``; return True if accepted."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Pop the next packet to serve, or None if empty."""
        if not self.buffer:
            return None
        pkt = self.buffer.popleft()
        self.bytes_queued -= pkt.size
        return pkt

    # -- helpers -------------------------------------------------------
    def _admit(self, pkt: Packet, now: float) -> None:
        pkt.enqueue_time = now
        self.buffer.append(pkt)
        self.bytes_queued += pkt.size
        self.enqueues += 1

    def queue_delay_estimate(self) -> float:
        """Backlog converted to seconds at the current service rate."""
        return self.bytes_queued * 8.0 / max(self.current_rate_bps, 1e3)

    def params(self) -> Dict[str, object]:
        """Discipline-specific knobs, for ``describe_topology`` pinning."""
        return {}

    def __len__(self) -> int:
        return len(self.buffer)


class TailDrop(AQM):
    """Classic drop-tail: reject arrivals that would overflow the buffer.

    Optionally ECN-capable: with ``ecn_threshold_bytes`` set, arrivals from
    ECT senders are CE-marked (not dropped) once the backlog exceeds the
    threshold — the simple step-marking DCTCP expects from its switches.
    """

    name = "taildrop"

    def __init__(
        self, capacity_bytes: int, ecn_threshold_bytes: Optional[int] = None
    ) -> None:
        super().__init__(capacity_bytes)
        if ecn_threshold_bytes is not None and ecn_threshold_bytes <= 0:
            raise ValueError("ECN threshold must be positive")
        self.ecn_threshold_bytes = ecn_threshold_bytes

    def params(self) -> Dict[str, object]:
        if self.ecn_threshold_bytes is None:
            return {}
        return {"ecn_threshold_bytes": self.ecn_threshold_bytes}

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            self.drops += 1
            return False
        if (
            self.ecn_threshold_bytes is not None
            and pkt.ect
            and self.bytes_queued >= self.ecn_threshold_bytes
        ):
            pkt.ce = True
            self.ecn_marks += 1
        self._admit(pkt, now)
        return True


class HeadDrop(AQM):
    """Drop-from-front: on overflow, evict the *oldest* packet(s).

    Head drop signals congestion to the sender one queue-drain earlier than
    tail drop, which is why Mahimahi-style cellular evaluations often use it.
    """

    name = "headdrop"

    def enqueue(self, pkt: Packet, now: float) -> bool:
        while self.buffer and self.bytes_queued + pkt.size > self.capacity_bytes:
            victim = self.buffer.popleft()
            self.bytes_queued -= victim.size
            self.drops += 1
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            self.drops += 1
            return False
        self._admit(pkt, now)
        return True


class CoDel(AQM):
    """Controlled Delay AQM (Nichols & Jacobson, CACM 2012).

    Tail-drops on hard overflow, and additionally drops at *dequeue* when the
    per-packet sojourn time has stayed above ``target`` for at least
    ``interval``, with the drop spacing shrinking as ``interval/sqrt(count)``.
    """

    name = "codel"

    def __init__(
        self,
        capacity_bytes: int,
        target: float = 0.005,
        interval: float = 0.100,
    ) -> None:
        super().__init__(capacity_bytes)
        self.target = target
        self.interval = interval
        self._first_above_time = 0.0
        self._drop_next = 0.0
        self._count = 0
        self._dropping = False

    def params(self) -> Dict[str, object]:
        return {"target": self.target, "interval": self.interval}

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            self.drops += 1
            return False
        self._admit(pkt, now)
        return True

    def _should_drop(self, pkt: Packet, now: float) -> bool:
        sojourn = now - pkt.enqueue_time
        if sojourn < self.target or self.bytes_queued < 2 * 1500:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time

    def dequeue(self, now: float) -> Optional[Packet]:
        while self.buffer:
            pkt = self.buffer.popleft()
            self.bytes_queued -= pkt.size
            if self._dropping:
                if not self._should_drop(pkt, now):
                    self._dropping = False
                    return pkt
                if now >= self._drop_next:
                    self.drops += 1
                    self._count += 1
                    self._drop_next = now + self.interval / math.sqrt(self._count)
                    continue
                return pkt
            if self._should_drop(pkt, now):
                self.drops += 1
                self._dropping = True
                self._count = max(1, self._count // 2)
                self._drop_next = now + self.interval / math.sqrt(self._count)
                continue
            return pkt
        return None


class PIE(AQM):
    """Proportional Integral controller Enhanced (Pan et al., HPSR 2013).

    Probabilistically drops at enqueue; the drop probability is updated every
    ``t_update`` from the estimated queueing delay and its trend.
    """

    name = "pie"

    def __init__(
        self,
        capacity_bytes: int,
        target: float = 0.015,
        t_update: float = 0.030,
        alpha: float = 0.125,
        beta: float = 1.25,
        seed: int = 7,
    ) -> None:
        super().__init__(capacity_bytes)
        self.target = target
        self.t_update = t_update
        self.alpha = alpha
        self.beta = beta
        self._p = 0.0
        self._qdelay_old = 0.0
        self._last_update = 0.0
        # A tiny deterministic LCG keeps the discipline reproducible without
        # threading a numpy Generator through the hot path.
        self._rng_state = (seed * 2654435761) & 0xFFFFFFFF
        self._seed = seed

    def params(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "t_update": self.t_update,
            "alpha": self.alpha,
            "beta": self.beta,
            "seed": self._seed,
        }

    def _rand(self) -> float:
        self._rng_state = (1103515245 * self._rng_state + 12345) & 0x7FFFFFFF
        return self._rng_state / 0x7FFFFFFF

    def _maybe_update(self, now: float) -> None:
        if now - self._last_update < self.t_update:
            return
        self._last_update = now
        qdelay = self.queue_delay_estimate()
        p = self._p
        p += self.alpha * (qdelay - self.target) + self.beta * (qdelay - self._qdelay_old)
        self._qdelay_old = qdelay
        self._p = min(max(p, 0.0), 1.0)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        self._maybe_update(now)
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            self.drops += 1
            return False
        # PIE never drops when the queue is nearly empty (burst allowance).
        if self.bytes_queued > 3 * 1500 and self._rand() < self._p:
            self.drops += 1
            return False
        self._admit(pkt, now)
        return True


class BoDe(AQM):
    """Bounded-Delay queue (Abbasloo & Chao, 2019).

    Bounds the queueing delay: an arriving packet whose projected sojourn
    time exceeds ``delay_bound`` is rejected, regardless of byte backlog.
    """

    name = "bode"

    def __init__(self, capacity_bytes: int, delay_bound: float = 0.020) -> None:
        super().__init__(capacity_bytes)
        self.delay_bound = delay_bound

    def params(self) -> Dict[str, object]:
        return {"delay_bound": self.delay_bound}

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            self.drops += 1
            return False
        projected = (self.bytes_queued + pkt.size) * 8.0 / max(
            self.current_rate_bps, 1e3
        )
        if projected > self.delay_bound:
            self.drops += 1
            return False
        self._admit(pkt, now)
        return True


class _SubQueue:
    """One FQ-CoDel per-flow bucket: its packets, DRR deficit, CoDel state."""

    __slots__ = (
        "pkts", "bytes", "deficit",
        "first_above", "drop_next", "count", "dropping",
        "active", "is_new",
    )

    def __init__(self) -> None:
        self.pkts: deque = deque()
        self.bytes = 0
        self.deficit = 0
        self.first_above = 0.0
        self.drop_next = 0.0
        self.count = 0
        self.dropping = False
        self.active = False
        self.is_new = False


class FQCoDel(AQM):
    """Fair-Queueing CoDel (RFC 8290).

    Flows hash into ``n_queues`` sub-queues served by deficit round robin
    with a ``quantum`` of credit per turn. Queues that just became active sit
    on a *new* list served ahead of the *old* list, which is the sparse-flow
    priority: a flow sending less than its fair share re-enters the new list
    on every packet and never waits behind a bulk flow's backlog. Each
    sub-queue runs its own CoDel drop law; ECT packets are CE-marked instead
    of dropped. Hard overflow evicts from the head of the fattest sub-queue
    (never the arrival itself unless the buffer cannot hold it at all), so a
    bulk flow's backlog cannot crowd out sparse arrivals.
    """

    name = "fq_codel"

    def __init__(
        self,
        capacity_bytes: int,
        n_queues: int = 32,
        quantum: int = MSS_BYTES + 14,
        target: float = 0.005,
        interval: float = 0.100,
    ) -> None:
        super().__init__(capacity_bytes)
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.n_queues = int(n_queues)
        self.quantum = int(quantum)
        self.target = target
        self.interval = interval
        self._queues = [_SubQueue() for _ in range(self.n_queues)]
        self._new: deque = deque()
        self._old: deque = deque()

    def params(self) -> Dict[str, object]:
        return {
            "n_queues": self.n_queues,
            "quantum": self.quantum,
            "target": self.target,
            "interval": self.interval,
        }

    def _bucket(self, flow_id: int) -> _SubQueue:
        return self._queues[((flow_id * 2654435761) & 0xFFFFFFFF) % self.n_queues]

    def _evict_from_fattest(self) -> bool:
        """Drop one packet from the head of the largest backlog; False if none."""
        fattest = None
        for q in self._queues:
            if q.bytes and (fattest is None or q.bytes > fattest.bytes):
                fattest = q
        if fattest is None:
            return False
        victim = fattest.pkts.popleft()
        fattest.bytes -= victim.size
        self.bytes_queued -= victim.size
        self.drops += 1
        return True

    def enqueue(self, pkt: Packet, now: float) -> bool:
        while self.bytes_queued + pkt.size > self.capacity_bytes:
            if not self._evict_from_fattest():
                self.drops += 1
                return False
        q = self._bucket(pkt.flow_id)
        pkt.enqueue_time = now
        q.pkts.append(pkt)
        q.bytes += pkt.size
        self.bytes_queued += pkt.size
        self.enqueues += 1
        if not q.active:
            q.active = True
            q.is_new = True
            q.deficit = self.quantum
            self._new.append(q)
        return True

    # -- per-queue CoDel law -------------------------------------------
    def _q_over_target(self, q: _SubQueue, pkt: Packet, now: float) -> bool:
        sojourn = now - pkt.enqueue_time
        if sojourn < self.target or q.bytes < 2 * MSS_BYTES:
            q.first_above = 0.0
            return False
        if q.first_above == 0.0:
            q.first_above = now + self.interval
            return False
        return now >= q.first_above

    def _signal(self, q: _SubQueue, pkt: Packet) -> Optional[Packet]:
        """Apply one congestion signal: CE-mark ECT packets, drop the rest.

        Returns the (marked) packet when it survives, None when dropped.
        """
        if pkt.ect:
            pkt.ce = True
            self.ecn_marks += 1
            return pkt
        self.drops += 1
        return None

    def _codel_pop(self, q: _SubQueue, now: float) -> Optional[Packet]:
        while q.pkts:
            pkt = q.pkts.popleft()
            q.bytes -= pkt.size
            self.bytes_queued -= pkt.size
            if q.dropping:
                if not self._q_over_target(q, pkt, now):
                    q.dropping = False
                    return pkt
                if now >= q.drop_next:
                    q.count += 1
                    q.drop_next = now + self.interval / math.sqrt(q.count)
                    survivor = self._signal(q, pkt)
                    if survivor is not None:
                        return survivor
                    continue
                return pkt
            if self._q_over_target(q, pkt, now):
                q.dropping = True
                q.count = max(1, q.count // 2)
                q.drop_next = now + self.interval / math.sqrt(q.count)
                survivor = self._signal(q, pkt)
                if survivor is not None:
                    return survivor
                continue
            return pkt
        return None

    def dequeue(self, now: float) -> Optional[Packet]:
        while True:
            if self._new:
                lst = self._new
            elif self._old:
                lst = self._old
            else:
                return None
            q = lst[0]
            if q.deficit <= 0:
                q.deficit += self.quantum
                lst.popleft()
                q.is_new = False
                self._old.append(q)
                continue
            pkt = self._codel_pop(q, now)
            if pkt is None:
                lst.popleft()
                if q.is_new:
                    # An emptied new queue keeps one turn on the old list so
                    # a quick refill doesn't re-earn sparse credit (RFC 8290).
                    q.is_new = False
                    self._old.append(q)
                else:
                    q.active = False
                continue
            q.deficit -= pkt.size
            return pkt

    def __len__(self) -> int:
        return sum(len(q.pkts) for q in self._queues)


class LearnedECN(AQM):
    """Learned ECN-marking queue: a trained predictor decides when to signal.

    At enqueue the discipline evaluates an
    :class:`~repro.netsim.ecn_model.EcnPredictor` over live queue telemetry
    (occupancy fraction, sojourn EWMA, arrival-rate EWMA, drain rate) and
    fires a congestion signal with the predicted probability: ECT packets
    are CE-marked, non-ECT packets are dropped. Randomness comes from the
    same seeded LCG as PIE, so decision streams are reproducible run to run.

    Without a checkpoint the queue falls back to deterministic step marking
    at ``threshold_frac`` of the buffer (a DCTCP-style switch profile), so
    the discipline is usable — and still seed-deterministic — before
    :mod:`repro.aqm_learn` has produced a model.
    """

    name = "learned_ecn"

    def __init__(
        self,
        capacity_bytes: int,
        predictor: Optional[object] = None,
        checkpoint: Optional[str] = None,
        threshold_frac: float = 0.35,
        target: float = 0.005,
        seed: int = 11,
    ) -> None:
        super().__init__(capacity_bytes)
        if not 0.0 < threshold_frac <= 1.0:
            raise ValueError(
                f"threshold_frac must be in (0, 1], got {threshold_frac}"
            )
        self.load_warning: Optional[str] = None
        if checkpoint is not None and predictor is None:
            from repro.netsim.ecn_model import EcnPredictor

            try:
                predictor = EcnPredictor.load(checkpoint)
            except (ValueError, OSError) as exc:
                # graceful degradation: a corrupt/missing model must not
                # take the queue down — fall back to threshold marking
                # and record why, so setup can surface it
                self.load_warning = (
                    f"ECN predictor {checkpoint} unusable ({exc}); "
                    f"falling back to threshold marking"
                )
                warnings.warn(self.load_warning, RuntimeWarning, stacklevel=2)
        self.predictor = predictor
        self.checkpoint = checkpoint
        self.threshold_frac = threshold_frac
        self.target = target
        self._seed = seed
        self._rng_state = (seed * 2654435761) & 0xFFFFFFFF
        self._sojourn_ewma = 0.0
        self._arrival_rate = 0.0
        self._last_arrival = -1.0

    def params(self) -> Dict[str, object]:
        return {
            "mode": "model" if self.predictor is not None else "threshold",
            "checkpoint": self.checkpoint,
            "threshold_frac": self.threshold_frac,
            "target": self.target,
            "seed": self._seed,
        }

    def _rand(self) -> float:
        self._rng_state = (1103515245 * self._rng_state + 12345) & 0x7FFFFFFF
        return self._rng_state / 0x7FFFFFFF

    def features(self) -> tuple:
        """The live telemetry vector the predictor sees (see FEATURES)."""
        return (
            self.bytes_queued / self.capacity_bytes,
            self._sojourn_ewma,
            self._arrival_rate,
            self.current_rate_bps,
        )

    def mark_probability(self) -> float:
        """Signal probability for a packet arriving *now*."""
        occupancy, sojourn, arrival, drain = self.features()
        if self.predictor is None:
            return 1.0 if occupancy >= self.threshold_frac else 0.0
        return self.predictor.predict_one(occupancy, sojourn, arrival, drain)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if self.bytes_queued + pkt.size > self.capacity_bytes:
            self.drops += 1
            return False
        if self._last_arrival >= 0.0 and now > self._last_arrival:
            inst = pkt.size * 8.0 / (now - self._last_arrival)
            self._arrival_rate += 0.1 * (inst - self._arrival_rate)
        self._last_arrival = now
        p = self.mark_probability()
        if p > 0.0 and self._rand() < p:
            if pkt.ect:
                pkt.ce = True
                self.ecn_marks += 1
            else:
                self.drops += 1
                return False
        self._admit(pkt, now)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        pkt = super().dequeue(now)
        if pkt is not None:
            self._sojourn_ewma += 0.1 * (
                (now - pkt.enqueue_time) - self._sojourn_ewma
            )
        return pkt


_AQM_REGISTRY = {
    "taildrop": TailDrop,
    "tdrop": TailDrop,
    "headdrop": HeadDrop,
    "hdrop": HeadDrop,
    "codel": CoDel,
    "pie": PIE,
    "bode": BoDe,
    "fq_codel": FQCoDel,
    "fqcodel": FQCoDel,
    "learned_ecn": LearnedECN,
}

#: Disciplines that CE-mark ECT traffic on their own (no external threshold).
ECN_CAPABLE_AQMS = frozenset({"fq_codel", "fqcodel", "learned_ecn"})


def make_aqm(name: str, capacity_bytes: int, **kwargs) -> AQM:
    """Build an AQM by name.

    Names are the registry keys (``taildrop``/``headdrop``/``codel``/``pie``/
    ``bode``/``fq_codel``/``learned_ecn``). ``learned_ecn@/path/to/model.npz``
    loads a trained :class:`~repro.netsim.ecn_model.EcnPredictor` checkpoint —
    the suffix form lets string-only configs (env families, CLI flags) carry
    the model.
    """
    key, _, checkpoint = name.partition("@")
    key = key.lower()
    if checkpoint:
        if key != "learned_ecn":
            raise ValueError(
                f"only learned_ecn accepts an @checkpoint suffix, got {name!r}"
            )
        kwargs.setdefault("checkpoint", checkpoint)
    if key not in _AQM_REGISTRY:
        raise ValueError(f"unknown AQM {name!r}; choose from {sorted(set(_AQM_REGISTRY))}")
    return _AQM_REGISTRY[key](capacity_bytes, **kwargs)

