"""Star forest: the one communication primitive behind every exchange.

Knepley, Lange & Gorman (arXiv 1506.06194) observe that the sharing
structure of a distributed mesh — owners with read-only copies scattered
over other processes — is a *star forest*: a disjoint union of stars, each
a root (the owned entity) pointing at its leaves (the copies).  Every
distributed-mesh service then reduces to a handful of collective patterns
over that one map:

* :meth:`StarForest.bcast` — root values travel to their leaves
  (migration's pack/send, ghost-bundle delivery, owner→copy field sync);
* :meth:`StarForest.reduce` — leaf values combine onto their root with a
  pluggable op (field accumulation's copy→owner sums);
* :meth:`StarForest.fetch_and_op` — leaves atomically read-and-update
  their root (global counters, unique-id allocation);
* :meth:`StarForest.compose` — chaining two forests yields the forest of
  depth-2 sharing, which is how arbitrary-depth overlaps are distributed.

The forest maps ``(leaf part, leaf handle) -> (root part, root handle)``
where a handle is any hashable, sortable local designator (an
:class:`~repro.mesh.entity.Ent`, an integer ordinal, a tuple).  Payloads
ride the coalesced binary codec (:mod:`repro.parallel.codec`): one encoded
buffer per communicating part pair per operation, with the wire schema
chosen by an :class:`SFDatatype` (generic values, field-value batches,
element-closure bundles, integer rows).  Every operation is one or two
BSP supersteps, charges ``sf.*`` counters, opens a superstep-aligned span
on the communicator's tracer, and returns a byte-deterministic
:class:`~repro.obs.stats.SFStats` record.

The communicator is duck-typed: anything exposing ``nparts``,
``counters``, ``tracer`` and ``router()`` works —
:class:`~repro.partition.dmesh.DistributedMesh` does, and the standalone
:class:`SFComm` serves forest users with no mesh at all.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.stats import CommProbe, SFStats
from ..obs.tracer import Tracer, current as current_tracer, trace_span
from .codec import (
    CodecError,
    decode_element_batch,
    decode_int_rows,
    decode_value_batch,
    dumps,
    encode_element_batch,
    encode_int_rows,
    encode_value_batch,
    loads,
)
from .network import Network
from .perf import GLOBAL, PerfCounters
from .routing import BufferedRouter
from .topology import MachineTopology, flat

__all__ = [
    "OPS",
    "SFComm",
    "SFDatatype",
    "StarForest",
    "GENERIC",
    "VALUES",
    "BUNDLES",
    "INT_ROWS",
]

#: Reduction operators accepted by :meth:`StarForest.reduce` and
#: :meth:`StarForest.fetch_and_op`.
OPS = ("replace", "sum", "min", "max")

_TAG_SF = 40


def _combine(op: str, a: Any, b: Any) -> Any:
    """Fold ``b`` into ``a`` under ``op`` (elementwise on arrays)."""
    if op == "replace":
        return b
    if op == "sum":
        return a + b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b) if op == "min" else np.maximum(a, b)
    return min(a, b) if op == "min" else max(a, b)


# ---------------------------------------------------------------------------
# wire datatypes
# ---------------------------------------------------------------------------


class SFDatatype:
    """Wire strategy for one SF operation's ``(handle, payload)`` items.

    ``encode`` turns the item list for one part pair into a single codec
    frame; ``decode`` reverses it, pairing payloads back with the
    ``handles`` the receiver expects (sender and receiver traverse the
    forest in the same sorted order, so positional pairing is exact).
    The base class is the generic strategy: payloads of any codec-encodable
    type, shipped positionally via :func:`~repro.parallel.codec.dumps`.
    """

    name = "generic"

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        return dumps([payload for _handle, payload in items])

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        payloads = loads(blob)
        if not isinstance(payloads, list) or len(payloads) != len(handles):
            raise CodecError(
                f"star-forest batch carries {len(payloads)} payload(s) "
                f"where {len(handles)} expected"
            )
        return list(zip(handles, payloads))


class _ValuesDatatype(SFDatatype):
    """Field-value batches: handles are entities, payloads float arrays.

    This is byte-identical to the legacy field-sync wire format — the
    entity handle itself travels in the frame's entity columns — so the
    handle check below doubles as an end-to-end forest/wire consistency
    assertion.
    """

    name = "values"

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        return encode_value_batch(items)

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        pairs = decode_value_batch(blob)
        if len(pairs) != len(handles):
            raise CodecError(
                f"star-forest value batch carries {len(pairs)} value(s) "
                f"where {len(handles)} expected"
            )
        for expected, (ent, _value) in zip(handles, pairs):
            if ent != expected:
                raise CodecError(
                    f"star-forest value batch names {ent} where the forest "
                    f"expects {expected}"
                )
        return pairs


class _BundlesDatatype(SFDatatype):
    """Element-closure bundles (``_pack_element`` dicts), interned batch."""

    name = "bundles"

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        return encode_element_batch([payload for _handle, payload in items])

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        bundles = decode_element_batch(blob)
        if len(bundles) != len(handles):
            raise CodecError(
                f"star-forest element batch carries {len(bundles)} "
                f"bundle(s) where {len(handles)} expected"
            )
        return list(zip(handles, bundles))


class _IntRowsDatatype(SFDatatype):
    """Integer-tuple payloads as one columnar ragged-row frame."""

    name = "int_rows"

    def encode(self, items: List[Tuple[Any, Any]]) -> bytes:
        return encode_int_rows([payload for _handle, payload in items])

    def decode(self, blob: Any, handles: List[Any]) -> List[Tuple[Any, Any]]:
        rows = decode_int_rows(blob)
        if len(rows) != len(handles):
            raise CodecError(
                f"star-forest int-row batch carries {len(rows)} row(s) "
                f"where {len(handles)} expected"
            )
        return list(zip(handles, rows))


#: Generic payloads (any codec-encodable value), shipped positionally.
GENERIC = SFDatatype()
#: ``(entity, float array)`` field values — the legacy field-sync format.
VALUES = _ValuesDatatype()
#: Element-closure bundles — the migration/ghosting wire format.
BUNDLES = _BundlesDatatype()
#: Integer tuples as columnar ragged rows.
INT_ROWS = _IntRowsDatatype()


# ---------------------------------------------------------------------------
# standalone communicator
# ---------------------------------------------------------------------------


class SFComm:
    """Minimal communicator satisfying the :class:`StarForest` contract.

    A :class:`~repro.partition.dmesh.DistributedMesh` already exposes the
    same surface (``nparts``/``counters``/``tracer``/``router``);
    this class serves forest users that have no mesh — tests, generic
    halo-exchange experiments — without dragging the partition layer in.
    """

    def __init__(
        self,
        nparts: int,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        sanitize: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        self.nparts = nparts
        self.topology = topology if topology is not None else flat(nparts)
        self.counters = counters if counters is not None else GLOBAL
        self.sanitize = sanitize
        self.tracer = tracer if tracer is not None else current_tracer()
        self.fault_injector = None
        self._network: Optional[Network] = None

    def router(self, trusted: bool = False) -> BufferedRouter:
        """A coalescing router over the lazily built network.

        ``trusted`` is accepted for interface parity with
        :meth:`~repro.partition.dmesh.DistributedMesh.router`; the
        standalone communicator keeps one (copying) channel.
        """
        if self._network is None:
            self._network = Network(
                self.nparts,
                topology=self.topology,
                counters=self.counters,
                sanitize=self.sanitize,
                tracer=self.tracer,
                fault_injector=self.fault_injector,
            )
        else:
            self._network.tracer = self.tracer
            self._network.fault_injector = self.fault_injector
        return BufferedRouter(self._network)


# ---------------------------------------------------------------------------
# the star forest
# ---------------------------------------------------------------------------


class StarForest:
    """A root↔leaf sharing map over ``(part, local handle)`` pairs.

    Construction is incremental (:meth:`add_leaf`); operations traverse the
    forest in sorted order, so a forest built in any insertion order
    produces byte-identical wire traffic and stats.  One exception is
    load-bearing for parity with the hand-rolled exchanges this primitive
    replaced: within one (root part, leaf part) pair, items are ordered by
    *leaf handle* — callers that mint ordinal leaf handles therefore
    control the exact batch layout on the wire.
    """

    def __init__(self, comm: Any, name: str = "sf") -> None:
        self.comm = comm
        self.name = name
        self._leaves: Dict[Tuple[int, Any], Tuple[int, Any]] = {}

    # -- construction -------------------------------------------------------

    def add_leaf(
        self,
        leaf_pid: int,
        leaf_handle: Any,
        root_pid: int,
        root_handle: Any,
    ) -> None:
        """Register one leaf; idempotent on identical re-adds.

        A leaf has exactly one root: re-adding the same leaf with a
        different root raises ``ValueError`` (that is a two-owner bug in
        the caller's sharing map, not a representable forest).
        """
        nparts = self.comm.nparts
        if not 0 <= leaf_pid < nparts:
            raise ValueError(f"leaf part {leaf_pid} out of range [0, {nparts})")
        if not 0 <= root_pid < nparts:
            raise ValueError(f"root part {root_pid} out of range [0, {nparts})")
        key = (leaf_pid, leaf_handle)
        root = (root_pid, root_handle)
        existing = self._leaves.get(key)
        if existing is not None and existing != root:
            raise ValueError(
                f"leaf {key} already points at root {existing}; "
                f"cannot repoint to {root}"
            )
        self._leaves[key] = root

    @property
    def nleaves(self) -> int:
        return len(self._leaves)

    @property
    def nroots(self) -> int:
        return len(set(self._leaves.values()))

    def leaves(self) -> List[Tuple[Tuple[int, Any], Tuple[int, Any]]]:
        """All ``((leaf part, handle), (root part, handle))`` pairs, sorted."""
        return sorted(self._leaves.items())

    def compose(self, other: "StarForest") -> "StarForest":
        """The forest reaching ``other``'s roots through this forest's.

        A leaf ``L -> R`` of ``self`` whose root ``R`` is itself a leaf
        ``R -> S`` of ``other`` contributes ``L -> S`` to the result: two
        hops of sharing collapsed into one map.  Iterating composition is
        how depth-k overlaps distribute — the k-th ring's forest is the
        (k-1)-ring forest composed with one more ring of sharing.
        """
        if other.comm is not self.comm:
            raise ValueError(
                "cannot compose star forests over different communicators"
            )
        result = StarForest(self.comm, name=f"{self.name}*{other.name}")
        for leaf, root in self._leaves.items():
            target = other._leaves.get(root)
            if target is not None:
                result._leaves[leaf] = target
        return result

    # -- traversal ----------------------------------------------------------

    def _groups(
        self, key: Callable[[Tuple[Any, Any]], Any]
    ) -> Dict[Tuple[int, int], List[Tuple[Any, Any]]]:
        """``{(root part, leaf part): [(root handle, leaf handle), ...]}``.

        Entries within a pair are sorted by ``key``; pairs themselves are
        iterated sorted by every operation, which is what makes the wire
        traffic a pure function of the forest's contents.
        """
        groups: Dict[Tuple[int, int], List[Tuple[Any, Any]]] = {}
        for (lpid, lh), (rpid, rh) in self._leaves.items():
            groups.setdefault((rpid, lpid), []).append((rh, lh))
        for entries in groups.values():
            entries.sort(key=key)
        return groups

    def _post(
        self,
        router: BufferedRouter,
        src: int,
        dst: int,
        items: List[Tuple[Any, Any]],
        datatype: SFDatatype,
    ) -> None:
        blob = datatype.encode(items)
        counters = self.comm.counters
        counters.add("sf.bytes.encoded", len(blob))
        counters.add("net.bytes.encoded", len(blob))
        counters.add("net.messages.coalesced", len(items))
        router.post(src, dst, _TAG_SF, blob)

    def _stats(self, probe: CommProbe, op: str, records: int,
               sf_ops: int) -> SFStats:
        return SFStats(
            op=op,
            forest=self.name,
            nroots=self.nroots,
            nleaves=self.nleaves,
            records=records,
            sf_ops=sf_ops,
            messages=probe.messages(),
            wire_bytes=probe.wire_bytes(),
            supersteps=probe.supersteps(),
            seconds=probe.seconds(),
            encoded_bytes=probe.encoded_bytes(),
            messages_coalesced=probe.messages_coalesced(),
        )

    @staticmethod
    def _deliver(
        lpid: int,
        rpid: int,
        items: List[Tuple[Any, Any]],
        leaf_set: Optional[Callable[[int, Any, Any], None]],
        batch_set: Optional[Callable[[int, int, List[Tuple[Any, Any]]], None]],
    ) -> None:
        if batch_set is not None:
            batch_set(lpid, rpid, items)
        elif leaf_set is not None:
            for handle, payload in items:
                leaf_set(lpid, handle, payload)

    # -- operations ---------------------------------------------------------

    def bcast(
        self,
        root_data: Callable[[int, Any], Any],
        leaf_set: Optional[Callable[[int, Any, Any], None]] = None,
        datatype: SFDatatype = GENERIC,
        batch_set: Optional[
            Callable[[int, int, List[Tuple[Any, Any]]], None]
        ] = None,
    ) -> SFStats:
        """Root values travel to their leaves; one superstep, always.

        ``root_data(root_pid, root_handle)`` produces the payload for each
        leaf of that root (called once per leaf, in wire order).  Delivery
        is either per item — ``leaf_set(leaf_pid, leaf_handle, payload)`` —
        or per batch — ``batch_set(leaf_pid, root_pid, items)`` with the
        full ``(handle, payload)`` list for one part pair, for receivers
        (ghost/migration unpack) that exploit batch-level interning.

        The exchange runs even when the forest is empty, so a fixed call
        sequence costs a fixed superstep count regardless of data.
        """
        comm = self.comm
        probe = CommProbe(comm.counters)
        records = 0
        with trace_span(
            comm.tracer, "sf.bcast", sf=self.name, datatype=datatype.name
        ):
            groups = self._groups(key=lambda entry: entry[1])
            router = comm.router()
            local: List[Tuple[int, int, List[Tuple[Any, Any]]]] = []
            for (rpid, lpid), entries in sorted(groups.items()):
                items = [(lh, root_data(rpid, rh)) for rh, lh in entries]
                records += len(items)
                if rpid == lpid:
                    local.append((lpid, rpid, items))
                    continue
                self._post(router, rpid, lpid, items, datatype)
            inboxes = router.exchange()
            for lpid, rpid, items in local:
                self._deliver(lpid, rpid, items, leaf_set, batch_set)
            for lpid in sorted(inboxes):
                for src, _tag, payload in inboxes[lpid]:
                    expected = [lh for _rh, lh in groups[(src, lpid)]]
                    items = datatype.decode(payload, expected)
                    self._deliver(lpid, src, items, leaf_set, batch_set)
            comm.counters.add("sf.ops.bcast")
            comm.counters.add("sf.records", records)
        return self._stats(probe, "bcast", records, sf_ops=1)

    def _gather(
        self,
        leaf_data: Callable[[int, Any], Any],
        datatype: SFDatatype,
        router: BufferedRouter,
    ) -> Tuple[Dict[int, List[Tuple[Any, int, Any, Any]]], int]:
        """Leaf→root transport shared by reduce and fetch_and_op.

        Returns ``{root_pid: [(root handle, leaf pid, leaf handle, value)]}``
        rows (unordered — callers sort) plus the record count.  One
        superstep: posts, one exchange, decode.
        """
        groups = self._groups(key=lambda entry: (entry[0], entry[1]))
        arrivals: Dict[int, List[Tuple[Any, int, Any, Any]]] = {}
        records = 0
        for (rpid, lpid), entries in sorted(groups.items()):
            items = [(rh, leaf_data(lpid, lh)) for rh, lh in entries]
            records += len(items)
            if rpid == lpid:
                rows = arrivals.setdefault(rpid, [])
                for (rh, lh), (_wire_rh, value) in zip(entries, items):
                    rows.append((rh, lpid, lh, value))
                continue
            self._post(router, lpid, rpid, items, datatype)
        inboxes = router.exchange()
        for rpid in sorted(inboxes):
            rows = arrivals.setdefault(rpid, [])
            for src, _tag, payload in inboxes[rpid]:
                entries = groups[(rpid, src)]
                expected = [rh for rh, _lh in entries]
                items = datatype.decode(payload, expected)
                for (rh, lh), (_wire_rh, value) in zip(entries, items):
                    rows.append((rh, src, lh, value))
        return arrivals, records

    def reduce(
        self,
        leaf_data: Callable[[int, Any], Any],
        root_set: Callable[[int, Any, Any], None],
        op: str = "sum",
        datatype: SFDatatype = GENERIC,
    ) -> SFStats:
        """Leaf values combine onto their root; one superstep, always.

        ``leaf_data(leaf_pid, leaf_handle)`` produces each contribution;
        per root the contributions are folded with ``op`` in the globally
        sorted ``(root handle, leaf pid, leaf handle)`` order — the fold is
        deterministic even for non-associative float addition — and handed
        to ``root_set(root_pid, root_handle, combined)``.  ``combined``
        covers the *leaf* contributions only; a caller wanting the root's
        own value in the fold merges it inside ``root_set``.
        """
        if op not in OPS:
            raise ValueError(f"unknown reduce op {op!r} (expected one of {OPS})")
        comm = self.comm
        probe = CommProbe(comm.counters)
        with trace_span(
            comm.tracer, "sf.reduce", sf=self.name, op=op,
            datatype=datatype.name,
        ):
            router = comm.router()
            arrivals, records = self._gather(leaf_data, datatype, router)
            for rpid in sorted(arrivals):
                rows = sorted(
                    arrivals[rpid], key=lambda row: (row[0], row[1], row[2])
                )
                current_rh: Any = None
                acc: Any = None
                started = False
                for rh, _lpid, _lh, value in rows:
                    if started and rh == current_rh:
                        acc = _combine(op, acc, value)
                    else:
                        if started:
                            root_set(rpid, current_rh, acc)
                        current_rh, acc, started = rh, value, True
                if started:
                    root_set(rpid, current_rh, acc)
            comm.counters.add("sf.ops.reduce")
            comm.counters.add("sf.records", records)
        return self._stats(probe, f"reduce.{op}", records, sf_ops=1)

    def fetch_and_op(
        self,
        leaf_data: Callable[[int, Any], Any],
        root_get: Callable[[int, Any], Any],
        root_set: Callable[[int, Any, Any], None],
        op: str = "sum",
        datatype: SFDatatype = GENERIC,
    ) -> Tuple[Dict[Tuple[int, Any], Any], SFStats]:
        """Atomic leaf read-and-update of roots; two supersteps, always.

        Each leaf's contribution is applied to its root in the globally
        sorted ``(root handle, leaf pid, leaf handle)`` order; the value
        the root held *immediately before* that leaf's own update travels
        back to the leaf.  Returns ``({(leaf_pid, leaf_handle): fetched},
        stats)`` — the classic fetch-and-add when ``op="sum"``, which makes
        disjoint range allocation off a shared counter a one-liner.
        """
        if op not in OPS:
            raise ValueError(f"unknown reduce op {op!r} (expected one of {OPS})")
        comm = self.comm
        probe = CommProbe(comm.counters)
        fetched: Dict[Tuple[int, Any], Any] = {}
        with trace_span(
            comm.tracer, "sf.fetch_and_op", sf=self.name, op=op,
            datatype=datatype.name,
        ):
            router = comm.router()
            arrivals, records = self._gather(leaf_data, datatype, router)
            returns: Dict[Tuple[int, int], List[Tuple[Any, Any]]] = {}
            for rpid in sorted(arrivals):
                rows = sorted(
                    arrivals[rpid], key=lambda row: (row[0], row[1], row[2])
                )
                current_rh: Any = None
                acc: Any = None
                started = False
                for rh, lpid, lh, value in rows:
                    if not started or rh != current_rh:
                        if started:
                            root_set(rpid, current_rh, acc)
                        current_rh, started = rh, True
                        acc = root_get(rpid, rh)
                    returns.setdefault((rpid, lpid), []).append((lh, acc))
                    acc = _combine(op, acc, value)
                if started:
                    root_set(rpid, current_rh, acc)
            # Second superstep: fetched values travel back to the leaves.
            router = comm.router()
            for (rpid, lpid), items in sorted(returns.items()):
                items.sort(key=lambda item: item[0])
                records += len(items)
                if rpid == lpid:
                    for lh, value in items:
                        fetched[(lpid, lh)] = value
                    continue
                self._post(router, rpid, lpid, items, datatype)
            groups = self._groups(key=lambda entry: entry[1])
            inboxes = router.exchange()
            for lpid in sorted(inboxes):
                for src, _tag, payload in inboxes[lpid]:
                    expected = [lh for _rh, lh in groups[(src, lpid)]]
                    items = datatype.decode(payload, expected)
                    for lh, value in items:
                        fetched[(lpid, lh)] = value
            comm.counters.add("sf.ops.fetch_and_op")
            comm.counters.add("sf.records", records)
        return fetched, self._stats(
            probe, f"fetch_and_op.{op}", records, sf_ops=2
        )

    def __repr__(self) -> str:
        return (
            f"StarForest({self.name!r}, roots={self.nroots}, "
            f"leaves={self.nleaves})"
        )
