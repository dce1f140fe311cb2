"""Frozen pre-star-forest exchange paths, kept for the parity gate.

When ghosting and field synchronization were re-expressed over
:class:`~repro.parallel.sf.StarForest`, the hand-rolled implementations
they replaced were copied here verbatim.  They are **not public API** and
must not grow features: their sole job is to anchor the CI ``sf-parity``
gate (``benchmarks/bench_sf_parity.py``), which A/Bs the star-forest path
against these references and fails if the SF path ever costs more
supersteps or more encoded wire bytes for the same workload.

``legacy_ghost_layer`` carries the pre-SF limitation by construction:
layers beyond the first pull only from each ghost's home part, so rings
wrapping a third part are truncated there.  The star-forest path with
``Overlap(include_closure=True)`` does not have this limitation, which is
why the parity bench compares depth-1 regions only.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..mesh.entity import Ent
from ..obs.stats import AccumulateStats, CommProbe, GhostStats, SyncStats
from ..obs.tracer import trace_span
from ..parallel.codec import (
    decode_element_batch,
    decode_value_batch,
    encode_element_batch,
    encode_value_batch,
)
from .dmesh import DistributedMesh
from .fieldsync import DistributedField
from .ghosting import _unpack_ghost_batch
from .migration import _pack_element

_TAG_REQUEST = 10
_TAG_GHOST = 11
_TAG_SYNC = 21
_TAG_ACCUM = 22


def legacy_ghost_layer(
    dmesh: DistributedMesh,
    bridge_dim: int = 0,
    layers: int = 1,
    tags=(),
) -> GhostStats:
    """The pre-SF pull-protocol ghosting, frozen for the parity gate."""
    dim = dmesh.element_dim()
    if not 0 <= bridge_dim < dim:
        raise ValueError(
            f"bridge dimension must be below the element dimension {dim}"
        )
    probe = CommProbe(dmesh.counters)
    total = 0
    per_dim = [0, 0, 0, 0]
    with trace_span(dmesh.tracer, "ghost_layer", bridge_dim=bridge_dim):
        for layer in range(layers):
            with trace_span(dmesh.tracer, f"ghost_layer.layer{layer}"):
                created, created_per_dim = _one_layer(
                    dmesh, bridge_dim, tags, first=(layer == 0)
                )
            total += created
            for d in range(4):
                per_dim[d] += created_per_dim[d]
    return GhostStats(
        ghosts_created=total,
        layers=layers,
        per_dimension=tuple(per_dim),
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def _one_layer(
    dmesh: DistributedMesh, bridge_dim: int, tags, first: bool
) -> Tuple[int, List[int]]:
    dim = dmesh.element_dim()
    router = dmesh.router()

    # Phase 1: requests.  First layer: "send me the elements adjacent to the
    # entity we share".  Later layers: "send me the neighbors of the element
    # my ghost mirrors".
    for part in dmesh:
        if first:
            for ent in sorted(part.remotes):
                if ent.dim != bridge_dim:
                    continue
                for dest, dest_ent in sorted(part.remotes[ent].items()):
                    router.post(
                        part.pid, dest, _TAG_REQUEST, ("bridge", dest_ent)
                    )
        else:
            for ghost in sorted(part.ghosts):
                if ghost.dim != dim:
                    continue
                home_pid, home_ent = part.ghost_home[ghost]
                router.post(
                    part.pid, home_pid, _TAG_REQUEST, ("ring", home_ent)
                )

    requests = router.exchange()

    # Phase 2: responses with element bundles (deduplicated per requester).
    router = dmesh.router()
    for pid in sorted(requests):
        part = dmesh.part(pid)
        queued: Dict[int, Set[Ent]] = {}
        batches: Dict[int, List[dict]] = {}
        for src, _tag, (kind, ent) in requests[pid]:
            if not part.mesh.has(ent):
                continue
            if kind == "bridge":
                elements = part.mesh.adjacent(ent, dim)
            else:
                elements = part.mesh.second_adjacent(ent, bridge_dim, dim)
            bucket = queued.setdefault(src, set())
            for element in elements:
                if part.is_ghost(element) or element in bucket:
                    continue
                bucket.add(element)
                bundle = _pack_element(part, element)
                bundle["tags"] = {
                    name: part.mesh.tag(name).get(element)
                    for name in tags
                    if part.mesh.tags.find(name) is not None
                }
                bundle["home"] = (part.pid, element)
                batches.setdefault(src, []).append(bundle)
        for src, bundles in sorted(batches.items()):
            blob = encode_element_batch(bundles)
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(bundles))
            router.post(part.pid, src, _TAG_GHOST, blob)

    inboxes = router.exchange()
    created = 0
    per_dim = [0, 0, 0, 0]
    for pid in sorted(inboxes):
        part = dmesh.part(pid)
        for _src, _tag, payload in inboxes[pid]:
            n, _fresh = _unpack_ghost_batch(
                part, decode_element_batch(payload), per_dim
            )
            created += n
    dmesh.counters.add("ghosting.elements", created)
    return created, per_dim


def legacy_synchronize(dfield: DistributedField) -> SyncStats:
    """The pre-SF owner→copy sync, frozen for the parity gate."""
    dmesh = dfield.dmesh
    probe = CommProbe(dmesh.counters)
    sent = 0
    with trace_span(dmesh.tracer, "synchronize", field=dfield.name):
        router = dmesh.router()
        outbound: Dict[Tuple[int, int], list] = {}
        for part in dmesh:
            field = dfield.on(part.pid)
            for ent in sorted(part.remotes):
                if ent.dim != dfield.entity_dim or not part.owns(ent):
                    continue
                if not field.has(ent):
                    continue
                value = field.get(ent)
                for other_pid, other_ent in sorted(part.remotes[ent].items()):
                    outbound.setdefault((part.pid, other_pid), []).append(
                        (other_ent, value)
                    )
                    sent += 1
        for (src, dst), items in sorted(outbound.items()):
            blob = encode_value_batch(items)
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(items))
            router.post(src, dst, _TAG_SYNC, blob)
        inboxes = router.exchange()
        for pid in sorted(inboxes):
            field = dfield.on(pid)
            for _src, _tag, payload in inboxes[pid]:
                for ent, value in decode_value_batch(payload):
                    field.set(ent, value)
    dmesh.counters.add("fieldsync.values", sent)
    return SyncStats(
        values_sent=sent,
        entity_dim=dfield.entity_dim,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def legacy_accumulate(dfield: DistributedField) -> AccumulateStats:
    """The pre-SF copy→owner accumulation, frozen for the parity gate."""
    dmesh = dfield.dmesh
    probe = CommProbe(dmesh.counters)
    with trace_span(dmesh.tracer, "accumulate", field=dfield.name):
        router = dmesh.router()
        sent = 0
        outbound: Dict[Tuple[int, int], list] = {}
        for part in dmesh:
            field = dfield.on(part.pid)
            for ent in sorted(part.remotes):
                if ent.dim != dfield.entity_dim or part.owns(ent):
                    continue
                if not field.has(ent):
                    continue
                owner = part.owner(ent)
                owner_ent = part.remotes[ent][owner]
                outbound.setdefault((part.pid, owner), []).append(
                    (owner_ent, field.get(ent))
                )
                sent += 1
        for (src, dst), items in sorted(outbound.items()):
            blob = encode_value_batch(items)
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(items))
            router.post(src, dst, _TAG_ACCUM, blob)
        inboxes = router.exchange()
        for pid in sorted(inboxes):
            field = dfield.on(pid)
            for _src, _tag, payload in inboxes[pid]:
                for ent, value in decode_value_batch(payload):
                    field.set(ent, field.get(ent) + value)
        sync = legacy_synchronize(dfield)
    return AccumulateStats(
        contributions=sent,
        synced=sync.values_sent,
        entity_dim=dfield.entity_dim,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )
