"""Deterministic bulk-synchronous (BSP) message network between parts.

Distributed-mesh operations in this reproduction (migration, ghosting, field
synchronization, ParMA diffusion) are written as *supersteps*: every part
performs local computation and posts messages, then a collective
:meth:`Network.exchange` delivers all posted messages at once.  This mirrors
the neighborhood-exchange communication pattern PUMI's message-passing control
implements on MPI, while remaining single-process and fully deterministic.

The network charges every message to the shared performance counters and,
when built with a :class:`~repro.parallel.topology.MachineTopology`,
classifies traffic as on-node (shared memory: implicit copies in the paper's
architecture-aware representation) versus off-node (explicit, serialized
messages in distributed memory).  Off-node messages are size-accounted by
the binary wire codec of :mod:`repro.parallel.codec`, while on-node messages
are passed by reference and charged zero wire bytes, which is precisely the
memory/communication saving the two-level design targets.  Pre-encoded
``bytes`` payloads (the services' coalesced batches) are charged their own
length and never re-serialized.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.sanitizers import freeze, sanitize_default
from ..obs.tracer import Tracer
from . import codec as _codec
from .perf import PerfCounters, GLOBAL
from .topology import MachineTopology, flat

#: A delivered message: (source part, tag, payload).
Message = Tuple[int, int, Any]


def wire_size(payload: Any) -> int:
    """Number of bytes ``payload`` occupies on the wire.

    Pre-encoded buffers (``bytes``/``bytearray``) are charged their own
    length; other payloads are charged their :mod:`repro.parallel.codec`
    encoding — exactly what :class:`Network` charges off-node.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return len(_codec.dumps(payload))


class Network:
    """A deterministic message exchange fabric between ``nparts`` endpoints.

    Usage is two-phase per superstep: each part calls :meth:`post` any number
    of times, then one caller invokes :meth:`exchange`, which returns the
    complete inbox of every part and resets the posting buffers.  Delivery
    order is deterministic: sorted by (source, posting sequence).

    Parameters
    ----------
    nparts:
        Number of endpoints (parts or ranks).
    topology:
        Machine model used to classify on/off-node traffic.  Defaults to a
        flat machine (every pair of endpoints off-node).
    counters:
        Performance-counter registry; defaults to the module-global one.
    copy_off_node:
        When true (default), off-node payloads are round-tripped through
        the binary codec so that sender and receiver never alias mutable
        state — the distributed-memory semantics real MPI provides.  When
        false (the trusted channel) off-node payloads are still encoded for
        the byte charge but delivered by reference, saving the decode.
        On-node payloads are always shared by reference (the paper's
        implicit shared-memory representation).  Payloads that are already
        ``bytes`` (pre-encoded batches) are charged their own length and
        delivered as-is.
    sanitize:
        Alias-sanitizer mode: payloads that would be delivered by reference
        are wrapped in read-only freeze proxies that raise
        :class:`~repro.analysis.sanitizers.PayloadAliasError` on mutation.
        Defaults to the ``REPRO_SANITIZE`` environment variable.
    tracer:
        Optional :class:`~repro.obs.Tracer`; when attached and enabled,
        every exchange closes one traced superstep and charges each
        delivered message to the per-superstep part-to-part communication
        matrix.  ``None`` (the default) costs one branch per exchange.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector`.  When attached,
        :meth:`post` routes every message through the injector (which may
        drop, duplicate, corrupt or delay it) and :meth:`exchange` gives the
        injector a superstep boundary: scheduled rank crashes raise
        :class:`~repro.resilience.InjectedRankFailure` here, and delayed
        messages whose release superstep arrived are re-enqueued.  ``None``
        (the default) costs one branch per post/exchange.
    """

    def __init__(
        self,
        nparts: int,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        copy_off_node: bool = True,
        sanitize: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        self.nparts = nparts
        self.topology = topology if topology is not None else flat(nparts)
        if self.topology.total_cores < nparts:
            raise ValueError(
                f"topology has {self.topology.total_cores} processing units "
                f"but the network needs {nparts}"
            )
        self.counters = counters if counters is not None else GLOBAL
        self.copy_off_node = copy_off_node
        self.sanitize = sanitize_default() if sanitize is None else bool(sanitize)
        self.tracer = tracer
        self.fault_injector = fault_injector
        # Posting may happen from concurrent rank threads (the Comm ranks of
        # an spmd() job all share one part network), so the outbox and its
        # sequence stamp are guarded by a lock.
        self._lock = threading.Lock()
        self._outbox: List[Tuple[int, int, int, int, Any]] = []  # (src,dst,seq,tag,payload)
        self._seq = 0
        self.rounds = 0

    def post(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Queue one message from part ``src`` to part ``dst``.

        Thread-safe; each message is stamped with a global posting sequence
        number so :meth:`exchange` can deliver in (source, sequence) order.
        With a fault injector attached the message may be dropped,
        duplicated, corrupted, or held back for later supersteps.
        """
        self._check(src)
        self._check(dst)
        injector = self.fault_injector
        if injector is None:
            with self._lock:
                seq = self._seq
                self._seq += 1
                self._outbox.append((src, dst, seq, tag, payload))
            return
        messages = injector.on_post(src, dst, tag, payload)
        with self._lock:
            for m_src, m_dst, m_tag, m_payload in messages:
                seq = self._seq
                self._seq += 1
                self._outbox.append((m_src, m_dst, seq, m_tag, m_payload))

    def pending(self) -> int:
        """Number of messages posted since the last exchange."""
        with self._lock:
            return len(self._outbox)

    def exchange(self) -> Dict[int, List[Message]]:
        """Deliver all posted messages; returns ``{dst: [(src, tag, payload)]}``.

        Every destination part appears in the result (possibly with an empty
        inbox) so BSP loops need no key-existence checks.  Each inbox is
        sorted by (source part, posting sequence): messages from a lower
        source part come first, and messages from the same source arrive in
        the order it posted them — regardless of how posting interleaved
        across threads.

        With a fault injector attached this is the superstep boundary: a
        ``crash`` fault scheduled for the completing superstep raises
        :class:`~repro.resilience.InjectedRankFailure` before anything is
        delivered, and previously delayed messages whose release superstep
        arrived join this delivery.
        """
        injector = self.fault_injector
        if injector is not None:
            released = injector.on_exchange()  # may raise InjectedRankFailure
            if released:
                with self._lock:
                    for m_src, m_dst, m_tag, m_payload in released:
                        seq = self._seq
                        self._seq += 1
                        self._outbox.append(
                            (m_src, m_dst, seq, m_tag, m_payload)
                        )
        with self._lock:
            outbox = self._outbox
            self._outbox = []
        outbox.sort(key=lambda message: (message[0], message[2]))
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        inboxes: Dict[int, List[Message]] = {p: [] for p in range(self.nparts)}
        for src, dst, _seq, tag, payload in outbox:
            on_node = self.topology.same_node(src, dst)
            by_reference = True
            nbytes = 0
            if src == dst:
                self.counters.add("net.messages.self")
            elif on_node:
                self.counters.add("net.messages.on_node")
            else:
                self.counters.add("net.messages.off_node")
                # Serialize once; the same buffer provides the byte charge
                # and (when copying) the isolated delivery object.
                if isinstance(payload, (bytes, bytearray)):
                    # Pre-encoded batch: charged at face value, delivered
                    # as-is (bytes are immutable, so no aliasing hazard).
                    nbytes = len(payload)
                    self.counters.add("net.bytes.off_node", nbytes)
                    if self.copy_off_node:
                        payload = bytes(payload)
                        by_reference = False
                else:
                    blob = _codec.dumps(payload)
                    nbytes = len(blob)
                    self.counters.add("net.bytes.off_node", nbytes)
                    if self.copy_off_node:
                        payload = _codec.loads(blob)
                        by_reference = False
            if tracer is not None:
                tracer.on_message(src, dst, nbytes)
            if self.sanitize and by_reference:
                # Alias sanitizer: by-reference delivery shares the sender's
                # object; hand out a read-only proxy instead.
                payload = freeze(payload)
            inboxes[dst].append((src, tag, payload))
        self.rounds += 1
        self.counters.add("net.exchanges")
        if tracer is not None:
            tracer.end_superstep()
        if injector is not None:
            injector.end_superstep()
        return inboxes

    def neighbor_counts(self) -> Dict[int, int]:
        """Messages currently queued per destination (diagnostics)."""
        counts: Dict[int, int] = {}
        with self._lock:
            outbox = list(self._outbox)
        for _src, dst, _seq, _tag, _payload in outbox:
            counts[dst] = counts.get(dst, 0) + 1
        return counts

    def stats(self) -> Dict[str, int]:
        """Cumulative traffic statistics snapshot."""
        return {
            "exchanges": self.counters.get("net.exchanges"),
            "messages_self": self.counters.get("net.messages.self"),
            "messages_on_node": self.counters.get("net.messages.on_node"),
            "messages_off_node": self.counters.get("net.messages.off_node"),
            "bytes_off_node": self.counters.get("net.bytes.off_node"),
        }

    def _check(self, part: int) -> None:
        if not 0 <= part < self.nparts:
            raise ValueError(f"part {part} out of range [0, {self.nparts})")
