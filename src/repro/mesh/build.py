"""Vectorized bulk mesh construction from element connectivity.

Creating entities one at a time through :meth:`repro.mesh.mesh.Mesh.create`
is the right interface for mesh *modification*, but constructing a
multi-hundred-thousand-element mesh that way is dominated by per-entity
Python overhead.  :func:`from_connectivity` instead derives all intermediate
entities (unique edges, unique faces) with NumPy ``sort``/``unique`` passes —
the guide-recommended vectorization — and block-appends them into the SoA
core (:class:`repro.mesh.core.MeshCore`), producing a mesh identical to the
incremental path (verified by the test suite).

Orientation note: the canonical vertex order of each auto-derived edge/face
is taken from its first occurrence in element order, matching what the
incremental path produces when elements are created in the same order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..gmodel.model import Model
from .entity import Ent
from .mesh import Mesh
from .topology import EDGE, TRI, type_info


def from_connectivity(
    coords: np.ndarray,
    elements: np.ndarray,
    etype: int,
    model: Optional[Model] = None,
    classify: bool = False,
) -> Mesh:
    """Build a mesh of one element type from vertex coords + connectivity.

    Parameters
    ----------
    coords:
        ``(nverts, 2 or 3)`` float array of vertex locations.
    elements:
        ``(nelems, nverts_per_elem)`` int array of vertex indices in the
        canonical order of ``etype``.
    etype:
        The element type code (``TRI``, ``QUAD``, ``TET``, ``HEX``, ...).
    model, classify:
        Optional geometric model; with ``classify=True`` every entity is
        geometrically classified (vertices by location, the rest by closure).
    """
    info = type_info(etype)
    coords = np.asarray(coords, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 2 or elements.shape[1] != info.nverts:
        raise ValueError(
            f"{info.name} connectivity must be (ne, {info.nverts}), "
            f"got {elements.shape}"
        )
    if elements.size and (elements.min() < 0 or elements.max() >= len(coords)):
        raise ValueError("element connectivity references unknown vertices")

    mesh = Mesh(model)
    core = mesh.core
    mesh.create_vertices(coords)

    if len(elements) == 0:
        return mesh

    # Unique edges across all elements.
    edge_locals = np.asarray(info.edges, dtype=np.int64)  # (ne_per, 2)
    elem_edge_verts = elements[:, edge_locals]  # (ne, ne_per, 2)
    flat_edges = elem_edge_verts.reshape(-1, 2)
    edge_keys = np.sort(flat_edges, axis=1)
    unique_edge_keys, first_occurrence, edge_inverse = np.unique(
        edge_keys, axis=0, return_index=True, return_inverse=True
    )
    edge_canonical = flat_edges[first_occurrence]  # orientation of first use

    edge_ids = core.append_block(
        1,
        np.full(len(unique_edge_keys), EDGE, dtype=np.int16),
        edge_canonical,
        edge_canonical,
    )
    lookup_edges = mesh._lookup[0]
    for eid, key in enumerate(map(tuple, unique_edge_keys.tolist())):
        lookup_edges[key] = eid
    core.bulk_add_up(0, edge_canonical.reshape(-1), np.repeat(edge_ids, 2))

    if info.dim == 2:
        # Elements are the faces; their downward entities are the edges.
        elem_edges = edge_inverse.reshape(len(elements), -1)
        face_ids = core.append_block(
            2,
            np.full(len(elements), etype, dtype=np.int16),
            elements,
            elem_edges,
        )
        lookup_faces = mesh._lookup[1]
        face_keys = np.sort(elements, axis=1)
        for fid, key in enumerate(map(tuple, face_keys.tolist())):
            lookup_faces[key] = fid
        core.bulk_add_up(
            1, elem_edges.reshape(-1), np.repeat(face_ids, elem_edges.shape[1])
        )
    else:
        # Unique faces across all elements (tets: all faces are triangles;
        # mixed-face cells like prisms use a per-face-type pass).
        face_specs = info.faces
        face_sizes = {len(locals_) for _ftype, locals_ in face_specs}
        if len(face_sizes) != 1:
            return _from_connectivity_mixed_faces(mesh, info, etype, elements)
        (face_size,) = face_sizes
        ftype = face_specs[0][0]
        face_locals = np.asarray(
            [locals_ for _ft, locals_ in face_specs], dtype=np.int64
        )
        elem_face_verts = elements[:, face_locals]  # (ne, nf_per, fs)
        flat_faces = elem_face_verts.reshape(-1, face_size)
        face_keys = np.sort(flat_faces, axis=1)
        unique_face_keys, first_face, face_inverse = np.unique(
            face_keys, axis=0, return_index=True, return_inverse=True
        )
        face_canonical = flat_faces[first_face]

        # Each unique face's downward edges: a sorted join against the
        # lexicographically-sorted unique edge keys (no per-key dict walk).
        finfo = type_info(ftype)
        face_edge_locals = np.asarray(finfo.edges, dtype=np.int64)
        face_edge_verts = face_canonical[:, face_edge_locals]  # (nf, fe, 2)
        fe_keys = np.sort(face_edge_verts, axis=2).reshape(-1, 2)
        span = np.int64(len(coords))
        edge_codes = unique_edge_keys[:, 0] * span + unique_edge_keys[:, 1]
        face_edge_ids = np.searchsorted(
            edge_codes, fe_keys[:, 0] * span + fe_keys[:, 1]
        ).reshape(len(face_canonical), -1)

        face_ids = core.append_block(
            2,
            np.full(len(unique_face_keys), ftype, dtype=np.int16),
            face_canonical,
            face_edge_ids,
        )
        lookup_faces = mesh._lookup[1]
        for fid, key in enumerate(map(tuple, unique_face_keys.tolist())):
            lookup_faces[key] = fid
        core.bulk_add_up(
            1,
            face_edge_ids.reshape(-1),
            np.repeat(face_ids, face_edge_ids.shape[1]),
        )

        elem_faces = face_inverse.reshape(len(elements), -1)
        region_ids = core.append_block(
            3,
            np.full(len(elements), etype, dtype=np.int16),
            elements,
            elem_faces,
        )
        lookup_regions = mesh._lookup[2]
        region_keys = np.sort(elements, axis=1)
        for rid, key in enumerate(map(tuple, region_keys.tolist())):
            lookup_regions[key] = rid
        core.bulk_add_up(
            2, elem_faces.reshape(-1), np.repeat(region_ids, elem_faces.shape[1])
        )

    if classify:
        if model is None:
            raise ValueError("classify=True requires a geometric model")
        classify_cheap(mesh, model)
    return mesh


def _from_connectivity_mixed_faces(mesh, info, etype, elements):
    """Fallback for cell types with mixed face shapes (prism, pyramid)."""
    for row in elements.tolist():
        mesh.create(etype, [Ent(0, v) for v in row])
    return mesh


def classify_cheap(mesh: Mesh, model: Model, tol: float = 1e-9) -> None:
    """Classify all entities against ``model``: vertices by point location,
    the rest in bulk by :meth:`~repro.mesh.mesh.Mesh.classify_missing`.

    The closure rule runs once per distinct set of vertex classifications
    (a few dozen per mesh), so interior and boundary entities alike cost a
    table lookup, not a rule evaluation each.
    """
    from ..gmodel.classify import classify_point

    mesh.model = model
    for v in mesh.entities(0):
        gent = classify_point(model, mesh.coords(v), tol)
        if gent is None:
            raise ValueError(f"vertex {v} lies outside the model")
        mesh.set_classification(v, gent)
    mesh.classify_missing()
