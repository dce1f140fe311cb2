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
4. **relink** — remote-copy links are updated for the *dirty* keys only:
   the sorted vertex-gid keys of the moved closures' entities below the
   element dimension (:func:`_relink`).  Only sources and destinations
   create or destroy entities, so every other link is still valid.

The relink is a rendezvous on the key's home part in two exchanges, the
same supersteps the full rescan (:func:`rebuild_links`) costs: sources
report the holders each dirty entity linked to before the move, every
source and destination reports its own handle (or that the entity is
gone), and the home answers each remaining holder with the new holder
list.  Its traffic scales with the moved closures, not with the surfaces
of every part the move touches (PUMI's incremental update; Knepley, Lange
& Gorman's "migration as a star-forest delta").  The full rescan remains
for operations that change entities everywhere — distributed adaptation,
snapshot loads, and migrations whose moved closures cover more than half
of all entity copies (whole parts moving), where posting every surface
once is cheaper than the delta's reports — and as the oracle the delta is
tested against.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Tuple

from ..gmodel.model import ModelEntity
from ..mesh.entity import Ent
from ..obs.stats import CommProbe, MigrateStats
from ..obs.tracer import trace_span
from ..parallel.codec import CodecError, decode_int_rows, encode_int_rows
from ..parallel.sf import BUNDLES, StarForest
from .dmesh import DistributedMesh
# ``entity_key`` is re-exported: it is public under this module's name.
from .part import Part, entity_by_key, entity_key

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
        # Per part: (dim, key) of each dirty entity -> the flattened
        # (pid, handle) links it had before the move (empty on parts
        # that only receive it).
        dirty: Dict[int, Dict[Tuple[int, Tuple[int, ...]], tuple]] = {}
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
                    _note_closure(
                        part, element, bundle, dirty.setdefault(pid, {})
                    )
                    ordinal = ordinals.get((pid, dest), 0)
                    ordinals[(pid, dest)] = ordinal + 1
                    forest.add_leaf(dest, (pid, ordinal), pid, element)
                    outgoing.append((pid, element, dest))
                    moved += 1

        def unpack(lpid: int, _rpid: int, items) -> None:
            received = [bundle for _handle, bundle in items]
            _unpack_batch(dmesh.part(lpid), received)
            keys = dirty.setdefault(lpid, {})
            for bundle in received:
                for ident in _bundle_keys(bundle):
                    keys.setdefault(ident, ())

        with trace_span(tracer, "migrate.unpack"):
            forest.bcast(
                lambda rpid, element: bundles[(rpid, element)],
                batch_set=unpack,
                datatype=BUNDLES,
            )

        with trace_span(tracer, "migrate.remove"):
            for pid, element, _dest in outgoing:
                _remove_element(dmesh.part(pid), element)

        with trace_span(tracer, "migrate.relink"):
            # A delta row carries its key, the reporter's handle and the
            # old holders: about twice a rescan row.  The rescan posts at
            # most every entity copy below the element dimension once, so
            # once the dirty keys outnumber half those copies (whole parts
            # moving) the rescan is the cheaper way to the same links.  Both
            # counts are global sums: one small allreduce under MPI.
            dirty_rows = sum(len(keys) for keys in dirty.values())
            copies = sum(
                part.mesh.count(d) for part in dmesh for d in range(dim)
            )
            if 2 * dirty_rows > copies:
                rebuild_links(dmesh)
            else:
                _relink(dmesh, dirty)
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
    """Closure bundle of one element, self-contained for reconstruction.

    Rows are read straight off the core arrays; every closure entity's
    vertices are among the element's, so vertex gids resolve through one
    per-element map.
    """
    mesh = part.mesh
    core = mesh.core
    core.check(element.dim, element.idx)
    vids = core.verts_row(element.dim, element.idx)
    vgids = part.gids_of(0, vids).tolist()
    if min(vgids) < 0:
        raise KeyError(f"part {part.pid}: a vertex of {element} has no global id")
    gid_of = dict(zip(vids, vgids))
    xyz = mesh.coords_view()[list(vids)].tolist()
    verts = [
        (gid, tuple(point), _class_ref(mesh, Ent(0, v)))
        for v, gid, point in zip(vids, vgids, xyz)
    ]
    mids = []
    for d in range(1, element.dim):
        ents = mesh.adjacent(element, d)
        gids = part.gids_of(d, [e.idx for e in ents]).tolist()
        for ent, gid in zip(ents, gids):
            mids.append(
                (
                    d,
                    gid if gid >= 0 else None,
                    int(core.etype[d][ent.idx]),
                    tuple(gid_of[v] for v in core.verts_row(d, ent.idx)),
                    _class_ref(mesh, ent),
                )
            )
    return {
        "verts": verts,
        "mids": mids,
        "element": (
            element.dim,
            part.gid(element),
            mesh.etype(element),
            tuple(vgids),
            _class_ref(mesh, element),
        ),
    }


def _class_ref(mesh, ent: Ent):
    gent = mesh.classification(ent)
    return (gent.dim, gent.tag) if gent is not None else None


def _unpack_batch(part: Part, bundles) -> Tuple[List[Ent], List[List[int]]]:
    """Apply one decoded element batch in bulk.

    Returns the elements in bundle order and, per dimension, the handles
    the batch created.  The batch's unique rows are built a block at a
    time: the new vertices, then one :meth:`~repro.mesh.mesh.Mesh.ensure_block`
    per dimension over the intermediate rows (in ``(dim, vertex gids)``
    order), then the elements; shipped gids are adopted afterwards by
    :meth:`~repro.partition.part.Part.adopt_gids`.  Decoded batches intern
    shared closure rows (the codec ships each unique vertex/edge/face once
    per buffer), so each row is found-or-created once per batch.

    A bundle naming a vertex gid it does not carry, or a malformed row
    (wrong vertex count for its type, repeated vertices, a type of the
    wrong dimension, a missing boundary entity), raises
    :class:`~repro.parallel.codec.CodecError`: bundles come off the wire.
    """
    mesh = part.mesh
    created: List[List[int]] = [[], [], [], []]
    by_gid = part.handles_by_gid(0)
    fresh = {}
    for bundle in bundles:
        for gid, coords, gclass in bundle["verts"]:
            if gid not in fresh and gid not in by_gid:
                fresh[gid] = (coords, gclass)
    try:
        ids = mesh.create_vertices(
            [coords for coords, _gclass in fresh.values()],
            [None if gclass is None else ModelEntity(*gclass)
             for _coords, gclass in fresh.values()],
        ).tolist()
        part.adopt_gids(0, ids, list(fresh))
        created[0].extend(ids)

        mids = sorted(
            dict.fromkeys(row for bundle in bundles for row in bundle["mids"]),
            key=lambda m: (m[0], m[3]),
        )
        for d, rows in groupby(mids, key=itemgetter(0)):
            _ensure_rows(part, d, list(rows), created)
        elements: List[Ent] = [None] * len(bundles)
        rows = [bundle["element"] for bundle in bundles]
        for d in sorted({row[0] for row in rows}):
            at = [k for k, row in enumerate(rows) if row[0] == d]
            handles = _ensure_rows(part, d, [rows[k] for k in at], created)
            for k, idx in zip(at, handles):
                elements[k] = Ent(d, idx)
    except CodecError:
        raise
    except ValueError as exc:
        raise CodecError(
            f"part {part.pid}: malformed element bundle: {exc}"
        ) from exc
    return elements, created


def _ensure_rows(part: Part, d: int, rows, created: List[List[int]]) -> List[int]:
    """Find-or-create bundle rows ``(d, gid, etype, vertex gids, class)``
    of one dimension; returns their handles, recording the new ones."""
    by_gid = part.handles_by_gid(0)
    try:
        local = [[by_gid[g] for g in row[3]] for row in rows]
    except KeyError as exc:
        raise CodecError(
            f"part {part.pid}: bundle vertex gid {exc.args[0]} missing"
        ) from None
    handles, new = part.mesh.ensure_block(
        d,
        [row[2] for row in rows],
        local,
        [None if row[4] is None else ModelEntity(*row[4]) for row in rows],
    )
    handles = handles.tolist()
    part.adopt_gids(d, handles, [row[1] for row in rows])
    created[d].extend(h for h, is_new in zip(handles, new.tolist()) if is_new)
    return handles


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


def _surface_entity_ids(part: Part) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Fast raw-id surface scan: ``(dim, idx, sorted vertex-gid key)``.

    Equivalent to :func:`surface_closure` + :func:`entity_key`, written
    against the entity stores directly — this runs once per part per full
    rebuild and dominates its cost.
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


def rebuild_links(dmesh: DistributedMesh) -> None:
    """Recompute every remote-copy link from vertex global ids.

    Rendezvous algorithm: each part posts (dim, key, local handle) for all
    of its surface entities — where ``key`` is the sorted vertex-gid tuple
    — to the key's home part (sum of the key modulo nparts); home parts
    group arrivals and answer every holder of a multiply-held key with the
    full holder list.  Every part's links are then rewritten wholesale.
    Payloads are pure integers shipped as columnar int-row buffers, so the
    trusted (no-copy) channel carries them.

    This is the full rescan for operations that change entities on every
    part (distributed adaptation, snapshot loads).  :func:`migrate` knows
    exactly which keys it touched and updates only those (:func:`_relink`),
    in the same two exchanges, unless the move is so large that this
    rescan costs fewer bytes.
    """
    nparts = dmesh.nparts
    router = dmesh.router(trusted=True)
    for part in dmesh:
        batches: Dict[int, List[Tuple[int, Tuple[int, ...], int]]] = {}
        for d, idx, key in _surface_entity_ids(part):
            batches.setdefault(sum(key) % nparts, []).append((d, key, idx))
        for home, batch in batches.items():
            # Columnar int rows: (dim, local idx, *vertex-gid key).
            blob = encode_int_rows([(d, idx) + key for d, key, idx in batch])
            _post(dmesh, router, part.pid, home, _TAG_CANDIDATE, blob,
                  len(batch))

    inboxes = router.exchange()
    router = dmesh.router(trusted=True)
    for home in sorted(inboxes):
        groups: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, int]]] = {}
        for src, _tag, batch in inboxes[home]:
            for row in decode_int_rows(batch):
                groups.setdefault((row[0], row[2:]), []).append((src, row[1]))
        answers: Dict[int, List[Tuple[int, ...]]] = {}
        for (d, _key), holders in sorted(groups.items()):
            if len(holders) >= 2:
                _answer(answers, d, holders)
        _post_answers(dmesh, router, home, answers)

    responses = router.exchange()
    for part in dmesh:
        part.remotes.clear()
    _apply_answers(dmesh, responses)
    dmesh.counters.add("migration.relinks")


def _bundle_keys(bundle: dict):
    """``(dim, entity key)`` of a closure bundle's entities below the
    element, in closure order (vertices, then edges and faces)."""
    for gid, _coords, _gclass in bundle["verts"]:
        yield (0, (gid,))
    for d, _gid, _etype, vert_gids, _gclass in bundle["mids"]:
        yield (d, tuple(sorted(vert_gids)))


def _note_closure(part: Part, element: Ent, bundle: dict,
                  dirty: dict) -> None:
    """Record an outgoing element's dirty keys with their current links.

    The links (flattened ``(pid, handle)`` pairs) must be read before
    removal drops them.
    """
    mesh = part.mesh
    closure = [
        ent for d in range(element.dim) for ent in mesh.adjacent(element, d)
    ]
    for ident, ent in zip(_bundle_keys(bundle), closure):
        if ident not in dirty:
            dirty[ident] = tuple(
                v
                for q, other in sorted(part.remotes.get(ent, {}).items())
                for v in (q, other.idx)
            )


def _relink(
    dmesh: DistributedMesh,
    dirty: Dict[int, Dict[Tuple[int, Tuple[int, ...]], tuple]],
) -> None:
    """Update remote-copy links for a migration's dirty keys only.

    ``dirty`` maps each source and destination part to its dirty keys and,
    on sources, the holders each key linked to before the move.  Every
    such part reports, to the key's home, its own handle for the key after
    the move (-1 when gone) and those old holders.  The home merges the
    reports — a part's report about itself overrides what others said
    about it — and answers every remaining holder with the others, an
    empty answer dropping the holder's link.  Parts that neither sent nor
    received hold the same handles as before, so the sources' old links
    name them correctly and they learn of the change from the answers.
    """
    nparts = dmesh.nparts
    router = dmesh.router(trusted=True)
    for pid in sorted(dirty):
        part = dmesh.part(pid)
        batches: Dict[int, List[Tuple[int, ...]]] = {}
        for (d, key), links in dirty[pid].items():
            ent = entity_by_key(part, d, key)
            own = ent.idx if ent is not None else -1
            # Rows: (dim, key length, *key, own handle, *old holder pairs).
            batches.setdefault(sum(key) % nparts, []).append(
                (d, len(key)) + key + (own,) + links
            )
        for home, rows in batches.items():
            _post(dmesh, router, pid, home, _TAG_CANDIDATE,
                  encode_int_rows(rows), len(rows))

    inboxes = router.exchange()
    router = dmesh.router(trusted=True)
    for home in sorted(inboxes):
        heard: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}
        told: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}
        for src, _tag, batch in inboxes[home]:
            for row in decode_int_rows(batch):
                n = row[1]
                ident = (row[0], row[2:2 + n])
                told.setdefault(ident, {})[src] = row[2 + n]
                holders = heard.setdefault(ident, {})
                for i in range(3 + n, len(row), 2):
                    holders[row[i]] = row[i + 1]
        answers: Dict[int, List[Tuple[int, ...]]] = {}
        for ident in sorted(told):
            holders = heard[ident]
            holders.update(told[ident])
            _answer(
                answers,
                ident[0],
                sorted((q, h) for q, h in holders.items() if h >= 0),
            )
        _post_answers(dmesh, router, home, answers)

    _apply_answers(dmesh, router.exchange())
    dmesh.counters.add("migration.relinks")


def _post(dmesh, router, src: int, dest: int, tag: int, blob: bytes,
          rows: int) -> None:
    dmesh.counters.add("net.bytes.encoded", len(blob))
    dmesh.counters.add("net.messages.coalesced", rows)
    router.post(src, dest, tag, blob)


def _answer(answers: Dict[int, List[Tuple[int, ...]]], d: int,
            holders: List[Tuple[int, int]]) -> None:
    """Queue, for every holder, a row naming all the other holders."""
    for pid, idx in holders:
        answers.setdefault(pid, []).append(
            (d, idx)
            + tuple(v for pair in holders if pair[0] != pid for v in pair)
        )


def _post_answers(dmesh, router, home: int,
                  answers: Dict[int, List[Tuple[int, ...]]]) -> None:
    # Rows: (dim, local idx, holder pid/idx pairs flattened).
    for pid, rows in answers.items():
        _post(dmesh, router, home, pid, _TAG_LINKS, encode_int_rows(rows),
              len(rows))


def _apply_answers(dmesh: DistributedMesh, responses) -> None:
    """Set each answered entity's links, or drop them on an empty answer."""
    for pid in sorted(responses):
        part = dmesh.part(pid)
        for _src, _tag, batch in responses[pid]:
            for row in decode_int_rows(batch):
                d, ent = row[0], Ent(row[0], row[1])
                if len(row) == 2:
                    part.remotes.pop(ent, None)
                else:
                    part.remotes[ent] = {
                        row[i]: Ent(d, row[i + 1])
                        for i in range(2, len(row), 2)
                    }
