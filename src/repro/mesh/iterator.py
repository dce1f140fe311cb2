"""Iterator component: filtered traversal over ranges of mesh entities.

The first of the paper's three common utilities: "(i) Iterator: component for
iterating over a range of data".  These are thin, composable generators over
a mesh's per-dimension stores, with the filters the rest of the repository
needs: by entity type, by geometric classification, by predicate.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..gmodel.model import ModelEntity
from .entity import Ent
from .mesh import Mesh


def iterate(
    mesh: Mesh,
    dim: int,
    etype: Optional[int] = None,
    where: Optional[Callable[[Ent], bool]] = None,
) -> Iterator[Ent]:
    """Live entities of ``dim``, optionally filtered by type and predicate."""
    for ent in mesh.entities(dim):
        if etype is not None and mesh.etype(ent) != etype:
            continue
        if where is not None and not where(ent):
            continue
        yield ent


def classified_on(
    mesh: Mesh, dim: int, gent: ModelEntity, closure: bool = False
) -> Iterator[Ent]:
    """Entities of ``dim`` classified on model entity ``gent``.

    With ``closure`` also yields entities classified on any model entity in
    ``gent``'s closure (e.g. all boundary vertices of a model face including
    its edges and corners).
    """
    if closure:
        if mesh.model is None:
            raise ValueError("closure filtering requires the mesh's model")
        allowed = mesh.model.closure_set(gent)
    else:
        allowed = {gent}
    for ent in mesh.entities(dim):
        if mesh.classification(ent) in allowed:
            yield ent


def boundary_entities(mesh: Mesh, dim: int) -> Iterator[Ent]:
    """Entities of ``dim`` classified on a model entity of lower dimension
    than the mesh (i.e. on the domain boundary)."""
    mesh_dim = mesh.dim()
    for ent in mesh.entities(dim):
        gent = mesh.classification(ent)
        if gent is not None and gent.dim < mesh_dim:
            yield ent


def count(iterator: Iterator[Ent]) -> int:
    """Number of entities an iterator yields (consumes it)."""
    return sum(1 for _ in iterator)
