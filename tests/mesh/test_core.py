"""Unit tests for the SoA/CSR mesh core and its handle free-list.

The facade tests exercise the core through ``Mesh``; these pin the core's
own contracts — handle recycling order, padded-row accessors, sorted upward
rows, CSR exports, and the vectorized gathers — plus the find-after-destroy
regression where a recycled handle must not resurrect stale lookups.
"""

import copy

import numpy as np
import pytest

from repro.mesh import EDGE, TRI, Ent, Mesh, rect_tri
from repro.mesh.core import MeshCore, first_occurrence_unique
from repro.mesh.topology import VERTEX


def test_first_occurrence_unique_orders_by_first_hit():
    ids = np.array([7, 3, 7, 1, 3, 9, 1])
    assert first_occurrence_unique(ids).tolist() == [7, 3, 1, 9]
    assert first_occurrence_unique(np.array([], dtype=np.int64)).tolist() == []


def test_create_and_row_accessors():
    core = MeshCore()
    v = [core.create(0, VERTEX, (), ()) for _ in range(3)]
    e01 = core.create(1, EDGE, (v[0], v[1]), ())
    tri = core.create(2, TRI, (v[0], v[1], v[2]), (e01,))
    assert core.verts_row(0, v[0]) == (v[0],)
    assert core.verts_row(2, tri) == (v[0], v[1], v[2])
    assert core.down_row(2, tri) == (e01,)
    core.add_up(1, e01, tri)
    assert core.up_row(1, e01) == [tri]


def test_handles_recycle_lifo():
    core = MeshCore()
    ids = [core.create(0, VERTEX, (), ()) for _ in range(4)]
    core.destroy(0, ids[1])
    core.destroy(0, ids[3])
    assert core.create(0, VERTEX, (), ()) == ids[3]
    assert core.create(0, VERTEX, (), ()) == ids[1]
    # Exhausted free-list: back to high-water appends.
    assert core.create(0, VERTEX, (), ()) == 4
    assert core.top[0] == 5


def test_upward_rows_stay_sorted():
    core = MeshCore()
    v = core.create(0, VERTEX, (), ())
    for upper in (5, 1, 9, 3):
        core.add_up(0, v, upper)
    assert core.up_row(0, v) == [1, 3, 5, 9]
    core.remove_up(0, v, 5)
    assert core.up_row(0, v) == [1, 3, 9]
    with pytest.raises(ValueError, match="does not bound 5"):
        core.remove_up(0, v, 5)


def test_live_ids_cache_invalidates():
    core = MeshCore()
    ids = [core.create(0, VERTEX, (), ()) for _ in range(3)]
    assert core.live_ids(0).tolist() == ids
    core.destroy(0, ids[1])
    assert core.live_ids(0).tolist() == [ids[0], ids[2]]


def test_csr_exports_match_rows():
    mesh = rect_tri(2)
    core = mesh.core
    ids, indptr, indices = core.downward_csr(2)
    for k, idx in enumerate(ids.tolist()):
        row = indices[indptr[k]:indptr[k + 1]].tolist()
        assert tuple(row) == core.down_row(2, idx)
    ids, indptr, indices = core.upward_csr(1)
    for k, idx in enumerate(ids.tolist()):
        row = indices[indptr[k]:indptr[k + 1]].tolist()
        assert row == core.up_row(1, idx)


def test_verts_matrix_matches_rows():
    mesh = rect_tri(2)
    core = mesh.core
    ids = core.live_ids(2)
    vmat = core.verts_matrix(2, ids)
    for k, idx in enumerate(ids.tolist()):
        assert tuple(vmat[k].tolist()) == core.verts_row(2, idx)


def test_append_block_matches_incremental():
    core = MeshCore()
    n = 5
    block = core.append_block(0, np.full(n, VERTEX), np.empty((n, 0), int),
                              np.empty((n, 0), int))
    assert block.tolist() == list(range(n))
    assert all(core.is_alive(0, i) for i in range(n))


# -- find-after-destroy regression ------------------------------------------


def test_find_after_destroy_with_recycled_handle():
    """A recycled handle must not resurrect the destroyed entity's lookup."""
    mesh = Mesh()
    v = [mesh.create_vertex([float(i), 0.0, 0.0]) for i in range(4)]
    edge_a = mesh.create(EDGE, [v[0], v[1]])
    assert mesh.find(1, [v[0], v[1]]) == edge_a

    mesh.destroy(edge_a)
    assert mesh.find(1, [v[0], v[1]]) is None

    # The freed handle is recycled for a *different* edge: lookups must
    # resolve the new identity only.
    edge_b = mesh.create(EDGE, [v[2], v[3]])
    assert edge_b.idx == edge_a.idx
    assert mesh.find(1, [v[2], v[3]]) == edge_b
    assert mesh.find(1, [v[0], v[1]]) is None


def test_find_region_is_indexed():
    # Regions ride the same sorted-vertex lookup as edges and faces (the
    # former O(n) scan); destroying must unindex them.
    from repro.mesh import box_tet

    mesh = box_tet(2)
    region = next(iter(mesh.entities(3)))
    verts = mesh.verts_of(region)
    assert mesh.find(3, verts) == region
    mesh.destroy(region, cascade=True)
    assert mesh.find(3, verts) is None


def test_create_existing_returns_same_entity():
    mesh = Mesh()
    v = [mesh.create_vertex([float(i), 0.0, 0.0]) for i in range(2)]
    edge_a = mesh.create(EDGE, [v[0], v[1]])
    assert mesh.create(EDGE, [v[1], v[0]]) == edge_a


# -- ensure_block: bulk find-or-create parity --------------------------------


def _punched_box():
    """box_tet(2) with a few tets and their orphaned faces/edges destroyed,
    so every dimension above vertices has a non-empty free-list."""
    from repro.mesh import box_tet

    mesh = box_tet(2)
    removed = []
    for tet in sorted(mesh.entities(3))[3:40:5]:
        verts = mesh.verts_of(tet)
        closure = mesh.adjacent(tet, 2) + mesh.adjacent(tet, 1)
        removed.append((mesh.etype(tet), verts, mesh.classification(tet)))
        mesh.destroy(tet)
        for ent in closure:
            if mesh.has(ent) and not mesh.up(ent):
                mesh.destroy(ent)
    return mesh, removed


def _block_rows(removed):
    """Per dimension ``(etypes, vertex rows, classes)`` rebuilding the
    removed tets' closures, with duplicates (reversed, re-classified) and
    rows that already exist (every other tet's faces share the mesh)."""
    from repro.gmodel import ModelEntity
    from repro.mesh import TET
    from repro.mesh.topology import type_info

    info = type_info(TET)
    other = ModelEntity(3, 0)
    blocks = {1: ([], [], []), 2: ([], [], []), 3: ([], [], [])}
    for etype, verts, gclass in removed:
        ids = [v.idx for v in verts]
        for a, b in info.edges:
            blocks[1][0].extend([EDGE, EDGE])
            blocks[1][1].extend([(ids[a], ids[b]), (ids[b], ids[a])])
            blocks[1][2].extend([gclass, other])
        for ftype, local in info.faces:
            blocks[2][0].append(ftype)
            blocks[2][1].append(tuple(ids[i] for i in local))
            blocks[2][2].append(gclass)
        blocks[3][0].extend([etype, etype])
        blocks[3][1].extend([tuple(ids), tuple(reversed(ids))])
        blocks[3][2].extend([gclass, other])
    return blocks


def _state(mesh):
    core = mesh.core
    rows = {
        d: [
            (idx, core.etype[d][idx].item(), core.verts_row(d, idx),
             core.down_row(d, idx), core.up_row(d, idx))
            for idx in core.live_ids(d).tolist()
        ]
        for d in range(4)
    }
    return copy.deepcopy(
        (rows, mesh._lookup, mesh._gclass, core.free, core.top)
    )


def test_ensure_block_matches_create_sequence():
    from repro.mesh import verify

    by_create, removed = _punched_box()
    by_block, _ = _punched_box()
    assert all(by_block.core.free[d] for d in (1, 2, 3))
    blocks = _block_rows(removed)
    for dim in (1, 2, 3):
        etypes, rows, classes = blocks[dim]
        expected = [
            by_create.create(
                etype, [Ent(0, v) for v in row], gclass
            ).idx
            for etype, row, gclass in zip(etypes, rows, classes)
        ]
        live = set(by_block.core.live_ids(dim).tolist())
        handles, created = by_block.ensure_block(dim, etypes, rows, classes)
        assert handles.tolist() == expected
        # The first row naming an entity the mesh lacked creates it.
        first_new = []
        for idx in expected:
            first_new.append(idx not in live)
            live.add(idx)
        assert created.tolist() == first_new
        assert any(first_new) and not all(first_new)
    assert _state(by_block) == _state(by_create)
    verify(by_block)
    verify(by_create)


def test_ensure_block_rejects_malformed_rows_unchanged():
    from repro.mesh import TET, box_tet

    mesh = box_tet(1)
    v = [e.idx for e in mesh.entities(0)]
    before = _state(mesh)
    bad = [
        (2, [TRI], [(v[0], v[0], v[1])], "repeated vertices"),
        (2, [TRI], [(v[0], v[1], v[2], v[3])], "needs 3 vertices"),
        (2, [TET], [(v[0], v[1], v[2], v[3])], "has dim 3"),
        (1, [EDGE], [(v[0], 10_000)], "does not exist"),
    ]
    for dim, etypes, rows, message in bad:
        with pytest.raises(ValueError, match=message):
            mesh.ensure_block(dim, etypes, rows)
    # A face whose edges were never created is refused, not auto-built.
    fresh = Mesh()
    a, b, c = (fresh.create_vertex([float(i), 0.0, 0.0]) for i in range(3))
    with pytest.raises(ValueError, match="boundary entity does not exist"):
        fresh.ensure_block(2, [TRI], [(a.idx, b.idx, c.idx)])
    assert fresh.count(1) == 0 and fresh.count(2) == 0
    assert _state(mesh) == before
