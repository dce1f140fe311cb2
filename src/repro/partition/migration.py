"""Mesh migration: moving elements between parts.

"Mesh migration: a procedure that moves mesh entities from part to part to
support (i) mesh distribution to parts, (ii) mesh load balancing, or (iii)
obtaining mesh entities needed for mesh modification operations" (paper,
Section II-C).  ParMA's diffusion is implemented entirely on top of this
operation.

:func:`migrate` executes a migration plan in four bulk-synchronous phases:

1. **pack** — each source part packages every migrated element's
   downward closure (vertices with coordinates, intermediate entities, the
   element itself, all with global ids, types and geometric classification)
   and registers the destination as a leaf of a
   :class:`~repro.parallel.sf.StarForest` rooted at the element;
2. **unpack** — one forest ``bcast`` ships the bundles (coalesced per part
   pair by the element-batch codec) and destinations find-or-create the
   received entities, matching vertices by global id and higher entities by
   local vertices, so entities arriving from several sources (or already
   present on the part boundary) are created exactly once;
3. **remove** — sources destroy the moved elements and any boundary entities
   left bounding nothing (their copies may live on, on other parts);
4. **relink** — remote-copy links are rebuilt from scratch by a rendezvous
   over each part's surface entities (:func:`rebuild_links`), restoring the
   symmetric partition-boundary structure the partition model derives from.

The rebuild-from-scratch choice trades some traffic for simplicity and is
what keeps this implementation verifiably correct under arbitrary plans;
PUMI's incremental update is an optimization of the same result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..mesh.entity import Ent
from ..mesh.topology import type_info
from ..obs.stats import CommProbe, MigrateStats
from ..obs.tracer import trace_span
from ..parallel.codec import decode_int_rows, encode_int_rows
from ..parallel.sf import BUNDLES, StarForest
from .dmesh import DistributedMesh
from .part import Part

#: A migration plan: for each source part, the elements it sends away.
MigrationPlan = Dict[int, Dict[Ent, int]]

_TAG_CANDIDATE = 2
_TAG_LINKS = 3


def migrate(dmesh: DistributedMesh, plan: MigrationPlan) -> MigrateStats:
    """Execute a migration plan; returns a :class:`MigrateStats` record.

    Requirements: no ghosts anywhere (delete them first — ghost copies do
    not survive repartitioning), every planned element alive and of the
    mesh's element dimension.

    The stats carry the elements moved (``stats.elements_moved``), the
    closure entities packed per dimension, and the communication cost of
    the whole operation (pack/send, unpack, remove, relink) measured from
    the mesh's counter registry.
    """
    for part in dmesh:
        if part.ghosts:
            raise ValueError(
                f"part {part.pid} has ghosts; delete ghosts before migrating"
            )
    probe = CommProbe(dmesh.counters)
    tracer = dmesh.tracer
    dim = dmesh.element_dim()
    moved = 0
    packed = [0, 0, 0, 0]

    with trace_span(tracer, "migrate"):
        outgoing: List[Tuple[int, Ent, int]] = []
        bundles: Dict[Tuple[int, Ent], dict] = {}
        forest = StarForest(dmesh, name="migrate")
        with trace_span(tracer, "migrate.pack"):
            # Leaf handles are per-(source, dest) ordinals minted in sorted
            # element order, which pins the exact bundle layout of each
            # coalesced wire buffer (element batches intern by first use).
            ordinals: Dict[Tuple[int, int], int] = {}
            for pid in sorted(plan):
                part = dmesh.part(pid)
                for element in sorted(plan[pid]):
                    dest = plan[pid][element]
                    if dest == pid:
                        continue
                    if not 0 <= dest < dmesh.nparts:
                        raise ValueError(
                            f"migration destination {dest} out of range"
                        )
                    if element.dim != dim or not part.mesh.has(element):
                        raise ValueError(
                            f"part {pid}: {element} is not a live element"
                        )
                    bundle = _pack_element(part, element)
                    packed[0] += len(bundle["verts"])
                    for mid in bundle["mids"]:
                        packed[mid[0]] += 1
                    packed[dim] += 1
                    bundles[(pid, element)] = bundle
                    ordinal = ordinals.get((pid, dest), 0)
                    ordinals[(pid, dest)] = ordinal + 1
                    forest.add_leaf(dest, (pid, ordinal), pid, element)
                    outgoing.append((pid, element, dest))
                    moved += 1

        # Only parts that send/receive elements — plus every part that
        # shares anything with them — can see their links change.  The
        # neighbor sets must be snapshotted NOW, before removal drops the
        # dying links.
        affected = set()
        for pid, _element, dest in outgoing:
            affected.add(pid)
            affected.add(dest)
        for pid in list(affected):
            affected.update(dmesh.part(pid).neighbors())

        with trace_span(tracer, "migrate.unpack"):
            forest.bcast(
                lambda rpid, element: bundles[(rpid, element)],
                batch_set=lambda lpid, rpid, items: _unpack_batch(
                    dmesh.part(lpid), [b for _handle, b in items]
                ),
                datatype=BUNDLES,
            )

        with trace_span(tracer, "migrate.remove"):
            for pid, element, _dest in outgoing:
                _remove_element(dmesh.part(pid), element)

        with trace_span(tracer, "migrate.relink"):
            rebuild_links(dmesh, only_parts=affected if outgoing else [])
    dmesh.counters.add("migration.elements", moved)
    return MigrateStats(
        elements_moved=moved,
        per_dimension=tuple(packed),
        sf_ops=1,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def _pack_element(part: Part, element: Ent) -> dict:
    """Closure bundle of one element, self-contained for reconstruction."""
    mesh = part.mesh
    verts = []
    for v in mesh.adjacent(element, 0):
        gent = mesh.classification(v)
        verts.append(
            (
                part.gid(v),
                tuple(mesh.coords(v)),
                (gent.dim, gent.tag) if gent is not None else None,
            )
        )
    mids = []
    for d in range(1, element.dim):
        for ent in mesh.adjacent(element, d):
            gent = mesh.classification(ent)
            mids.append(
                (
                    d,
                    part.gid(ent) if part.has_gid(ent) else None,
                    mesh.etype(ent),
                    tuple(part.gid(v) for v in mesh.verts_of(ent)),
                    (gent.dim, gent.tag) if gent is not None else None,
                )
            )
    gent = mesh.classification(element)
    return {
        "verts": verts,
        "mids": mids,
        "element": (
            element.dim,
            part.gid(element),
            mesh.etype(element),
            tuple(part.gid(v) for v in mesh.verts_of(element)),
            (gent.dim, gent.tag) if gent is not None else None,
        ),
    }


def _model_entity(part: Part, ref):
    if ref is None:
        return None
    from ..gmodel.model import ModelEntity

    return ModelEntity(ref[0], ref[1])


def _ensure_entity(part: Part, d: int, gid, etype: int, vert_gids,
                   gclass) -> Ent:
    """Find-or-create one non-vertex entity from its bundle row."""
    mesh = part.mesh
    local_verts = []
    for vg in vert_gids:
        lv = part.by_gid(0, vg)
        assert lv is not None, f"bundle vertex gid {vg} missing"
        local_verts.append(lv)
    existing = mesh.find(d, local_verts)
    if existing is not None:
        # Identity is the vertex-gid tuple (already matched by find);
        # intermediate-entity gids are advisory bookkeeping, so adopt
        # the bundle's gid only when the local entity lacks one and the
        # gid is still free.
        if (
            gid is not None
            and not part.has_gid(existing)
            and part.by_gid(d, gid) is None
        ):
            part.set_gid(existing, gid)
        return existing
    created = mesh.create(etype, local_verts, _model_entity(part, gclass))
    if gid is not None and part.by_gid(d, gid) is None:
        part.set_gid(created, gid)
    return created


def _unpack_batch(part: Part, bundles) -> List[Ent]:
    """Apply one decoded element batch; returns the elements, bundle order.

    Decoded batches intern shared closure rows (the codec ships each unique
    vertex/edge/face once per buffer), so this path finds-or-creates each
    unique row once per batch instead of once per element bundle — the
    find/create surgery dominates unpack cost, and neighboring elements
    migrated together share most of their closure.
    """
    mesh = part.mesh
    seen_gids = set()
    for bundle in bundles:
        for gid, coords, gclass in bundle["verts"]:
            if gid in seen_gids:
                continue
            seen_gids.add(gid)
            if part.by_gid(0, gid) is None:
                v = mesh.create_vertex(coords, _model_entity(part, gclass))
                part.set_gid(v, gid)
    seen_rows = set()
    mids = []
    for bundle in bundles:
        for row in bundle["mids"]:
            if row not in seen_rows:
                seen_rows.add(row)
                mids.append(row)
    mids.sort(key=lambda m: (m[0], m[3]))
    for d, gid, etype, vert_gids, gclass in mids:
        _ensure_entity(part, d, gid, etype, vert_gids, gclass)
    return [
        _ensure_entity(part, *bundle["element"]) for bundle in bundles
    ]


def _remove_element(part: Part, element: Ent) -> None:
    """Destroy a migrated element and now-unused boundary entities."""
    mesh = part.mesh
    closure: List[Ent] = []
    for d in range(element.dim - 1, -1, -1):
        closure.extend(mesh.adjacent(element, d))

    _drop_bookkeeping(part, element)
    mesh.destroy(element)
    for ent in closure:  # dims descending by construction
        if mesh.has(ent) and not mesh.up(ent):
            _drop_bookkeeping(part, ent)
            mesh.destroy(ent)


def _drop_bookkeeping(part: Part, ent: Ent) -> None:
    part.drop_gid(ent)
    part.remotes.pop(ent, None)
    part.ghosts.discard(ent)
    part.ghost_home.pop(ent, None)


def surface_closure(part: Part) -> List[Ent]:
    """All entities on the part's topological surface (any dimension < D).

    An entity shared with another part necessarily lies on this part's
    surface, so this is a complete (and cheap) candidate set for remote-link
    discovery.  The surface consists of the facets (dimension D-1 entities)
    with exactly one upward element, plus their closures.
    """
    mesh = part.mesh
    dim = mesh.dim()
    if dim == 0:
        return list(mesh.entities(0))
    result: List[Ent] = []
    seen = set()
    for facet in mesh.entities(dim - 1):
        if len(mesh.up(facet)) != 1:
            continue
        for ent in [facet] + [
            e for d in range(facet.dim - 1, -1, -1)
            for e in mesh.adjacent(facet, d)
        ]:
            if ent not in seen:
                seen.add(ent)
                result.append(ent)
    return result


def entity_key(part: Part, ent: Ent) -> Tuple[int, ...]:
    """Global identity of an entity: its sorted bounding-vertex gids.

    Vertices carry authoritative gids; every higher entity is identified by
    the gids of its vertices, so entities created independently on several
    parts (e.g. by coordinated refinement of a shared edge) match without
    any global id coordination.
    """
    if ent.dim == 0:
        return (part.gid(ent),)
    return tuple(
        sorted(part.gid(v) for v in part.mesh.verts_of(ent))
    )


def _surface_entity_ids(part: Part) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Fast raw-id surface scan: ``(dim, idx, sorted vertex-gid key)``.

    Equivalent to :func:`surface_closure` + :func:`entity_key`, written
    against the entity stores directly — this runs once per part per
    migration and dominates the link-rebuild cost.
    """
    mesh = part.mesh
    dim = mesh.dim()
    if dim == 0:
        return []
    core = mesh.core
    fdim = dim - 1
    facets = core.live_ids(fdim)
    surf = facets[core.nup[fdim][facets] == 1]
    gid0 = part.gid_array(0).tolist()
    out: List[Tuple[int, int, Tuple[int, ...]]] = []
    seen = [set() for _ in range(dim)]
    ghost_idx = [
        {g.idx for g in part.ghosts if g.dim == d} for d in range(dim)
    ]
    # Bulk row extraction: one tolist per array instead of per-entity calls.
    surf_list = surf.tolist()
    fvert_counts = core.nverts[fdim][surf].tolist()
    fvert_rows = core.verts[fdim][surf].tolist()
    if fdim == 2:
        fdown_counts = core.ndown[2][surf].tolist()
        fdown_rows = core.down[2][surf].tolist()
        edge_verts = core.verts[1][: core.top[1], :2].tolist()

    def emit(d: int, idx: int, verts) -> None:
        if idx in seen[d] or idx in ghost_idx[d]:
            return
        seen[d].add(idx)
        key = tuple(sorted(gid0[v] for v in verts))
        out.append((d, idx, key))

    for i, fidx in enumerate(surf_list):
        fverts = fvert_rows[i][: fvert_counts[i]]
        emit(fdim, fidx, fverts)
        if fdim >= 1:
            for v in fverts:
                emit(0, v, (v,))
        if fdim == 2:
            for eidx in fdown_rows[i][: fdown_counts[i]]:
                emit(1, eidx, edge_verts[eidx])
    return out


def rebuild_links(
    dmesh: DistributedMesh, only_parts: Optional[Iterable[int]] = None
) -> None:
    """Recompute remote-copy links from vertex global ids.

    Rendezvous algorithm: each participating part posts (dim, key, local
    handle) for all of its surface entities — where ``key`` is the sorted
    vertex-gid tuple — to the key's home part (sum of the key modulo
    nparts); home parts group arrivals and answer every holder of a
    multiply-held key with the full holder list.  Links of participating
    parts are then rewritten wholesale.  Payloads are pure integers shipped
    as columnar int-row buffers, so the trusted (no-copy) channel carries
    them.

    ``only_parts`` restricts the rebuild to a set of parts that is *closed
    under sharing* — every part that might share an entity with a member
    must itself be a member (migration passes the moved parts plus all
    their neighbors, which has that property).  ``None`` rebuilds all.
    """
    nparts = dmesh.nparts
    if only_parts is None:
        participants = list(range(nparts))
    else:
        participants = sorted(set(only_parts))
    router = dmesh.router(trusted=True)
    for pid in participants:
        part = dmesh.part(pid)
        batches: Dict[int, List[Tuple[int, Tuple[int, ...], int]]] = {}
        for d, idx, key in _surface_entity_ids(part):
            batches.setdefault(sum(key) % nparts, []).append((d, key, idx))
        for home, batch in batches.items():
            # Columnar int rows: (dim, local idx, *vertex-gid key).
            blob = encode_int_rows([(d, idx) + key for d, key, idx in batch])
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(batch))
            router.post(part.pid, home, _TAG_CANDIDATE, blob)

    inboxes = router.exchange()
    router = dmesh.router(trusted=True)
    for home in sorted(inboxes):
        groups: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, int]]] = {}
        for src, _tag, batch in inboxes[home]:
            for row in decode_int_rows(batch):
                groups.setdefault((row[0], row[2:]), []).append((src, row[1]))
        answers: Dict[int, List[Tuple[int, int, List[Tuple[int, int]]]]] = {}
        for (d, _key), holders in sorted(groups.items()):
            if len(holders) < 2:
                continue
            for pid, idx in holders:
                others = [(q, j) for q, j in holders if q != pid]
                answers.setdefault(pid, []).append((d, idx, others))
        for pid, batch in answers.items():
            # Rows: (dim, local idx, holder pid/idx pairs flattened).
            blob = encode_int_rows(
                [
                    (d, idx) + tuple(v for pair in others for v in pair)
                    for d, idx, others in batch
                ]
            )
            dmesh.counters.add("net.bytes.encoded", len(blob))
            dmesh.counters.add("net.messages.coalesced", len(batch))
            router.post(home, pid, _TAG_LINKS, blob)

    responses = router.exchange()
    participant_set = set(participants)
    full_rebuild = len(participants) == nparts
    for pid in participants:
        part = dmesh.part(pid)
        if full_rebuild:
            part.remotes.clear()
            continue
        # Partial rebuild: recompute only links *among* participants; a
        # participant's links to outside parts cannot have changed (no
        # elements moved on either side of those boundaries) and outside
        # parts do not post, so their entries must be preserved.
        for ent in list(part.remotes):
            copies = part.remotes[ent]
            for q in [q for q in copies if q in participant_set]:
                del copies[q]
            if not copies:
                del part.remotes[ent]
    for pid in sorted(responses):
        part = dmesh.part(pid)
        for _src, _tag, batch in responses[pid]:
            for row in decode_int_rows(batch):
                d, idx = row[0], row[1]
                entry = part.remotes.setdefault(Ent(d, idx), {})
                for i in range(2, len(row), 2):
                    entry[row[i]] = Ent(d, row[i + 1])
    dmesh.counters.add("migration.relinks")
