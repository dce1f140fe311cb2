"""Point-to-model-entity classification.

Each mesh entity "maintains its association to the highest level geometric
model entity that it partly represents, referred to as geometric
classification" (paper, Section II).  Classification of a point picks the
*lowest-dimension* model entity whose shape contains the point: a corner
point classifies on the model vertex, not on the three faces meeting there.
Mesh construction uses :func:`classify_point` for vertices and
:func:`classify_from_closure` for higher entities (an entity classifies on
the highest-dimension classification among its bounding vertices' model
entities — the standard rule for meshes of b-rep domains with convex/flat
boundary entities, which all our generated domains satisfy).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .model import Model, ModelEntity


def classify_point(
    model: Model, x: Sequence[float], tol: float = 1e-9
) -> Optional[ModelEntity]:
    """Lowest-dimension model entity containing point ``x``.

    Returns ``None`` when no shape contains ``x`` (point outside the domain).
    Ties within one dimension resolve to the lowest tag, which is fine
    because distinct same-dimension entities overlap only on their shared
    boundary, already claimed by a lower dimension.
    """
    for dim in range(4):
        for ent in model.entities(dim):
            shape = model.shape(ent)
            if shape is not None and shape.contains(x, tol):
                return ent
    return None


def classify_from_closure(
    model: Model, vertex_classifications: Iterable[ModelEntity]
) -> ModelEntity:
    """Classification of a mesh entity from its vertices' classifications.

    The correct classification is the unique model entity of *highest*
    dimension among (and adjacent to all of) the vertex classifications:
    an edge between a face-classified vertex and an edge-classified vertex
    lies on the face; an edge between two vertices of different model edges
    of one face also lies on the face.

    The rule implemented: take the highest-dimension classification ``g``;
    if every other classification is in the closure of ``g``, the entity is
    on ``g``; otherwise it is interior to the lowest-dimension model entity
    whose closure covers all of them (found by walking upward).

    The rule depends only on the *set* of classifications, so results are
    memoized per set in the model's classification table
    (:attr:`Model.classify_memo`), emptied whenever the topology changes.
    """
    key = frozenset(vertex_classifications)
    found = model.classify_memo.get(key)
    if found is None:
        found = model.classify_memo[key] = _cover(model, key)
    return found


def _cover(model: Model, gents: frozenset) -> ModelEntity:
    """The closure rule on a set of classifications (order-free)."""
    if not gents:
        raise ValueError("need at least one vertex classification")
    best = max(gents, key=lambda g: (g.dim, -g.tag))
    if gents <= model.closure_set(best):
        return best
    # Walk up from `best` looking for a covering entity, lowest dim first.
    for dim in range(best.dim + 1, 4):
        for cand in model.adjacent(best, dim):
            if gents <= model.closure_set(cand):
                return cand
    raise ValueError(
        f"no model entity covers classifications {sorted(gents)}; "
        "is the mesh consistent with the model?"
    )
