"""Ghosting: read-only off-part element copies in a depth-k overlap.

"Ghosting: a procedure to localize off-part mesh entities to avoid off-node
communications for computations.  A ghost is a read-only, duplicated,
off-part internal entity copy including tag data" (paper, Section II-C).

:func:`ghost_layer` gives every part a copy of the off-part elements within
``depth`` rings of its boundary, where one ring is adjacency through a
chosen bridge dimension.  The whole procedure is expressed over the
:class:`~repro.parallel.sf.StarForest` primitive: each ring, a discovery
pass builds the forest whose roots are owned elements and whose leaves are
the parts that need copies of them, and one ``bcast`` of element-closure
bundles materializes the ring.  Iterating discovery over the previous
ring's new elements is star-forest composition in action — the depth-k
overlap forest is the product of k one-ring forests.

Ring discovery, in supersteps:

1. **ring 0** — each part asks every co-holder of a shared bridge entity
   for the elements adjacent to it (1 exchange), then the bundles arrive
   via ``bcast`` (1 exchange);
2. **rings ≥ 1** — the *front* is the set of bridge entities in the
   closure of the previous ring's new ghost elements.  A ghost front
   entity is queried at its home part by global id; a real shared front
   entity at every co-holder (1 exchange).  With
   ``Overlap(include_closure=True)`` (the default) a home part also
   *refers* the request to every other real holder of the entity
   (1 exchange) — that referral is what makes the depth-k region exact
   when a ring wraps around a part corner onto a third part.  Bundles
   again arrive via one ``bcast``.

With ``include_closure=False`` the referral pass is skipped: each ring
costs one less superstep and pulls only from parts the requester already
knows, truncating rings that wrap corners — the locality approximation
the pre-SF implementation always made (see
:mod:`repro.partition.legacy`).

Ghost elements and the closure entities created for them are marked on the
receiving part: they are excluded from load accounting, never own
anything, and are stripped wholesale by :func:`delete_ghosts` (required
before any migration).  Requested tag values travel with the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..mesh.entity import Ent
from ..obs.stats import CommProbe, GhostDeleteStats, GhostStats
from ..obs.tracer import trace_span
from ..parallel.sf import BUNDLES, StarForest
from .dmesh import DistributedMesh
from .migration import _pack_element, _unpack_batch
from .part import Part

_TAG_REQUEST = 10
_TAG_REFER = 12


@dataclass(frozen=True)
class Overlap:
    """Configuration of a depth-k ghost overlap.

    ``depth`` rings of elements are ghosted, each ring being adjacency
    through ``bridge_dim`` (vertices give the widest ring, faces the
    narrowest).  ``include_closure`` keeps the region exact across part
    corners via the referral pass; switching it off trades exactness at
    corners for one fewer superstep per ring beyond the first.
    """

    depth: int = 1
    bridge_dim: int = 0
    include_closure: bool = True

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"overlap depth must be >= 0, got {self.depth}")
        if not 0 <= self.bridge_dim <= 2:
            raise ValueError(
                f"bridge dimension must be in [0, 2], got {self.bridge_dim}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "depth": self.depth,
            "bridge_dim": self.bridge_dim,
            "include_closure": self.include_closure,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Overlap":
        return cls(
            depth=int(payload.get("depth", 1)),
            bridge_dim=int(payload.get("bridge_dim", 0)),
            include_closure=bool(payload.get("include_closure", True)),
        )

    @classmethod
    def coerce(cls, value: Any) -> "Overlap":
        """Accept an :class:`Overlap` or its dict form."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(
            f"expected an Overlap or a dict, got {type(value).__name__}"
        )


def _resolve_overlap(overlap: Optional[Any], depth: Optional[int]) -> Overlap:
    """Map the accepted argument spellings onto one :class:`Overlap`."""
    if overlap is not None:
        if depth is not None:
            raise ValueError("pass either overlap= or depth=, not both")
        return Overlap.coerce(overlap)
    return Overlap() if depth is None else Overlap(depth=depth)


def ghost_layer(
    dmesh: DistributedMesh,
    *,
    overlap: Optional[Any] = None,
    depth: Optional[int] = None,
    tags: Sequence[str] = (),
) -> GhostStats:
    """Create a depth-k ghost overlap; returns a :class:`GhostStats` record.

    The overlap is configured with ``overlap=Overlap(...)`` (or the
    ``depth=k`` shortcut for ``Overlap(depth=k)``; the default is
    ``Overlap()``).  ``tags`` lists tag names whose element values are
    copied along.

    ``stats.ghosts_created`` counts ghost *elements*; ``per_dimension``
    additionally counts the closure entities (vertices, edges, faces) the
    copies brought along; ``stats.layers`` echoes the overlap depth and
    ``stats.sf_ops`` the star-forest broadcasts executed (one per ring).
    """
    ov = _resolve_overlap(overlap, depth)
    dim = dmesh.element_dim()
    if not 0 <= ov.bridge_dim < dim:
        raise ValueError(
            f"bridge dimension must be below the element dimension {dim}"
        )
    probe = CommProbe(dmesh.counters)
    total = 0
    per_dim = [0, 0, 0, 0]
    sf_ops = 0
    with trace_span(
        dmesh.tracer, "ghost_layer",
        depth=ov.depth, bridge_dim=ov.bridge_dim,
        include_closure=ov.include_closure,
    ):
        prev_new: Dict[int, List[Ent]] = {}
        for ring in range(ov.depth):
            with trace_span(dmesh.tracer, f"ghost_layer.layer{ring}"):
                forest = _ring_forest(
                    dmesh, ov, ring, first=(ring == 0), prev_new=prev_new
                )
                created, created_per_dim, prev_new = _fill_ring(
                    dmesh, forest, tags
                )
            sf_ops += 1
            total += created
            for d in range(4):
                per_dim[d] += created_per_dim[d]
    return GhostStats(
        ghosts_created=total,
        layers=ov.depth,
        per_dimension=tuple(per_dim),
        sf_ops=sf_ops,
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
        encoded_bytes=probe.encoded_bytes(),
        messages_coalesced=probe.messages_coalesced(),
    )


def _ring_front(
    part: Part, new_elems: List[Ent], bridge_dim: int, dim: int
) -> List[Ent]:
    """Bridge entities in the closure of the previous ring's new elements."""
    front: Set[Ent] = set()
    for element in new_elems:
        if element.dim != dim:
            continue
        front.update(part.mesh.adjacent(element, bridge_dim))
    return sorted(front)


def _queue_adjacent(
    part: Part,
    ent: Ent,
    dim: int,
    requester: int,
    have: frozenset,
    queues: Dict[Tuple[int, int], List[Ent]],
    seen: Dict[Tuple[int, int], Set[Ent]],
) -> None:
    """Queue ``ent``'s adjacent owned elements for ``requester``.

    ``have`` is the requester's set of already-held element gids — those
    are marked seen without queueing, so repeat rings do not re-ship what
    the requester materialized earlier.
    """
    key = (part.pid, requester)
    bucket = seen.setdefault(key, set())
    queue = queues.setdefault(key, [])
    for element in part.mesh.adjacent(ent, dim):
        if part.is_ghost(element) or element in bucket:
            continue
        bucket.add(element)
        if part.gid(element) in have:
            continue
        queue.append(element)


def _ring_forest(
    dmesh: DistributedMesh,
    ov: Overlap,
    ring: int,
    first: bool,
    prev_new: Dict[int, List[Ent]],
) -> StarForest:
    """Discovery pass: build the star forest of one overlap ring.

    Roots are ``(owner part, element)``; leaves are
    ``(requester part, (owner part, ordinal))`` where the ordinal is the
    element's position in the owner→requester queue — which makes the
    ``bcast`` batch layout bundle-for-bundle identical to the pre-SF
    pull protocol's on ring 0.
    """
    dim = dmesh.element_dim()
    bdim = ov.bridge_dim
    router = dmesh.router()

    if first:
        # Ring 0: ask every co-holder of a shared bridge entity for the
        # elements adjacent to it (all holders are known: remote-copy
        # links are complete among real copies).
        for part in dmesh:
            for ent in sorted(part.remotes):
                if ent.dim != bdim:
                    continue
                for dest, dest_ent in sorted(part.remotes[ent].items()):
                    router.post(
                        part.pid, dest, _TAG_REQUEST,
                        ("bridge", dest_ent, ()),
                    )
    else:
        # Rings >= 1: query the front.  Ghost front entities are resolved
        # at their home part by gid; real shared ones at every co-holder.
        # Interior front entities need no query — every element adjacent
        # to them is already local.
        for part in dmesh:
            mesh = part.mesh
            for b in _ring_front(part, prev_new.get(part.pid, []), bdim, dim):
                have = tuple(sorted(
                    part.gid(e) for e in mesh.adjacent(b, dim)
                ))
                if part.is_ghost(b):
                    home_pid = part.ghost_home[b][0]
                    router.post(
                        part.pid, home_pid, _TAG_REQUEST,
                        ("front", part.gid(b), have),
                    )
                elif part.remotes.get(b):
                    for dest, dest_ent in sorted(part.remotes[b].items()):
                        router.post(
                            part.pid, dest, _TAG_REQUEST,
                            ("bridge", dest_ent, have),
                        )

    requests = router.exchange()

    queues: Dict[Tuple[int, int], List[Ent]] = {}
    seen: Dict[Tuple[int, int], Set[Ent]] = {}
    refer = ov.include_closure and not first
    if refer:
        router = dmesh.router()
    for pid in sorted(requests):
        part = dmesh.part(pid)
        for src, _tag, (kind, ref, have) in requests[pid]:
            have_set = frozenset(have)
            if kind == "bridge":
                ent = ref
                if not part.mesh.has(ent):
                    continue
            else:  # "front": resolve the requester's ghost by gid
                ent = part.by_gid(bdim, ref)
                if ent is None or not part.mesh.has(ent):
                    continue
                if refer:
                    for q_pid, q_ent in sorted(
                        part.remotes.get(ent, {}).items()
                    ):
                        if q_pid == src:
                            continue
                        router.post(
                            part.pid, q_pid, _TAG_REFER,
                            ("refer", q_ent, src, have),
                        )
            _queue_adjacent(part, ent, dim, src, have_set, queues, seen)

    if refer:
        # Referral pass: home parts forwarded corner-wrapping requests to
        # the other real holders; those holders queue their elements for
        # the *original* requester.
        referrals = router.exchange()
        for pid in sorted(referrals):
            part = dmesh.part(pid)
            for _src, _tag, (_kind, ent, requester, have) in referrals[pid]:
                if not part.mesh.has(ent) or part.is_ghost(ent):
                    continue
                _queue_adjacent(
                    part, ent, dim, requester, frozenset(have), queues, seen
                )

    forest = StarForest(dmesh, name=f"ghost.ring{ring}")
    for (owner, requester) in sorted(queues):
        for ordinal, element in enumerate(queues[(owner, requester)]):
            forest.add_leaf(requester, (owner, ordinal), owner, element)
    return forest


def _fill_ring(
    dmesh: DistributedMesh, forest: StarForest, tags: Sequence[str]
) -> Tuple[int, List[int], Dict[int, List[Ent]]]:
    """One ``bcast`` of element-closure bundles materializes the ring."""
    per_dim = [0, 0, 0, 0]
    created_total = 0
    new_elements: Dict[int, List[Ent]] = {}

    def pack(owner: int, element: Ent) -> dict:
        part = dmesh.part(owner)
        bundle = _pack_element(part, element)
        bundle["tags"] = {
            name: part.mesh.tag(name).get(element)
            for name in tags
            if part.mesh.tags.find(name) is not None
        }
        bundle["home"] = (owner, element)
        return bundle

    def unpack(requester: int, _owner: int, items) -> None:
        nonlocal created_total
        part = dmesh.part(requester)
        bundles = [bundle for _handle, bundle in items]
        created, fresh = _unpack_ghost_batch(part, bundles, per_dim)
        created_total += created
        new_elements.setdefault(requester, []).extend(fresh)

    forest.bcast(pack, batch_set=unpack, datatype=BUNDLES)
    dmesh.counters.add("ghosting.elements", created_total)
    return created_total, per_dim, new_elements


def _unpack_ghost_batch(
    part: Part, bundles, per_dim: List[int]
) -> Tuple[int, List[Ent]]:
    """Create one decoded ghost batch.

    Returns ``(ghost elements created, their local handles)``; ``per_dim``
    accumulates every created entity (elements plus closure) per dimension.
    All bundles in a coalesced buffer come from the same owner part, so the
    before/after ghost classification runs once for the whole batch and the
    mesh surgery goes through the deduplicating
    :func:`~repro.partition.migration._unpack_batch`.
    """
    fresh = [
        b for b in bundles
        if part.by_gid(b["element"][0], b["element"][1]) is None
    ]
    if not fresh:
        return 0, []
    before = [part.gid_index_set(d) for d in range(4)]
    elements = _unpack_batch(part, fresh)
    element_home = {
        element: bundle["home"]
        for bundle, element in zip(fresh, elements)
    }
    home_pid = fresh[0]["home"][0]
    for d in range(4):
        for idx in part.gid_index_set(d) - before[d]:
            ghost = Ent(d, idx)
            per_dim[d] += 1
            part.ghosts.add(ghost)
            part.ghost_home[ghost] = element_home.get(
                ghost, (home_pid, None)
            )
    mesh = part.mesh
    for bundle, element in zip(fresh, elements):
        for name, value in bundle.get("tags", {}).items():
            if value is not None:
                mesh.tag(name).set(element, value)
    return len(fresh), elements


def delete_ghosts(dmesh: DistributedMesh) -> GhostDeleteStats:
    """Remove every ghost entity from every part.

    Returns a :class:`GhostDeleteStats` record; deletion is purely local,
    so its communication fields are always zero.
    """
    probe = CommProbe(dmesh.counters)
    removed = 0
    per_dim = [0, 0, 0, 0]
    with trace_span(dmesh.tracer, "delete_ghosts"):
        for part in dmesh:
            mesh = part.mesh
            for d in range(3, -1, -1):
                for ghost in sorted(
                    (g for g in part.ghosts if g.dim == d), reverse=True
                ):
                    if not mesh.has(ghost):
                        continue
                    if mesh.up(ghost):
                        # Still bounds a surviving entity: it was promoted to
                        # a real boundary entity of this part and must stay.
                        continue
                    part.drop_gid(ghost)
                    part.remotes.pop(ghost, None)
                    mesh.destroy(ghost)
                    removed += 1
                    per_dim[d] += 1
            part.ghosts.clear()
            part.ghost_home.clear()
    dmesh.counters.add("ghosting.deleted", removed)
    return GhostDeleteStats(
        entities_removed=removed,
        per_dimension=tuple(per_dim),
        messages=probe.messages(),
        wire_bytes=probe.wire_bytes(),
        supersteps=probe.supersteps(),
        seconds=probe.seconds(),
    )
