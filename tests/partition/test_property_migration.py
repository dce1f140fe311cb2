"""Property-based tests: migration and distribution invariants under
randomized inputs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mesh import box_tet, rect_tri
from repro.mesh.quality import measure
from repro.partition import distribute, migrate
from repro.partition.migration import surface_closure

NPARTS = 4

_BASE_MESH = rect_tri(4)
_NELEMS = _BASE_MESH.count(2)


def fresh_dmesh(assignment):
    # Meshes are immutable inputs here; distribution builds fresh parts.
    return distribute(_BASE_MESH, assignment, nparts=NPARTS)


assignments = st.lists(
    st.integers(0, NPARTS - 1), min_size=_NELEMS, max_size=_NELEMS
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(assignment=assignments)
def test_any_assignment_distributes_validly(assignment):
    """Every element→part map yields a consistent distributed mesh."""
    dm = fresh_dmesh(assignment)
    dm.verify()
    counts = dm.entity_counts()
    assert counts[:, 2].sum() == _NELEMS
    expected = np.bincount(np.asarray(assignment), minlength=NPARTS)
    assert np.array_equal(counts[:, 2], expected)
    owned = dm.owned_counts()
    for dim in range(3):
        assert owned[:, dim].sum() == _BASE_MESH.count(dim)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    assignment=assignments,
    moves=st.lists(
        st.tuples(st.integers(0, NPARTS - 1), st.integers(0, 200),
                  st.integers(0, NPARTS - 1)),
        max_size=12,
    ),
)
def test_random_migrations_preserve_invariants(assignment, moves):
    """Arbitrary (valid) migration plans keep all invariants intact."""
    dm = fresh_dmesh(assignment)
    area_before = sum(
        measure(p.mesh, f) for p in dm for f in p.mesh.entities(2)
    )
    plan = {}
    for src, nth, dest in moves:
        part = dm.part(src)
        elements = sorted(part.mesh.entities(2))
        if not elements:
            continue
        element = elements[nth % len(elements)]
        already = plan.setdefault(src, {})
        already.setdefault(element, dest)
    migrate(dm, plan)
    dm.verify()
    assert dm.entity_counts()[:, 2].sum() == _NELEMS
    area_after = sum(
        measure(p.mesh, f) for p in dm for f in p.mesh.entities(2)
    )
    assert area_after == pytest.approx(area_before)
    owned = dm.owned_counts()
    for dim in range(3):
        assert owned[:, dim].sum() == _BASE_MESH.count(dim)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(assignment=assignments)
def test_shared_entities_subset_of_surface(assignment):
    """Every shared entity lies on its part's topological surface."""
    dm = fresh_dmesh(assignment)
    for part in dm:
        surface = set(surface_closure(part))
        for ent in part.remotes:
            assert ent in surface


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(assignment=assignments, seed=st.integers(0, 100))
def test_round_trip_migration_is_identity_on_counts(assignment, seed):
    """Moving elements out and straight back restores all counts."""
    dm = fresh_dmesh(assignment)
    before = dm.entity_counts().copy()
    rng = np.random.default_rng(seed)
    src = int(rng.integers(NPARTS))
    part = dm.part(src)
    elements = sorted(part.mesh.entities(2))
    if not elements:
        return
    element = elements[int(rng.integers(len(elements)))]
    gid = part.gid(element)
    dest = (src + 1) % NPARTS
    migrate(dm, {src: {element: dest}})
    landed = dm.part(dest).by_gid(2, gid)
    assert landed is not None
    migrate(dm, {dest: {landed: src}})
    dm.verify()
    assert np.array_equal(dm.entity_counts(), before)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50))
def test_3d_random_migration(seed):
    mesh = box_tet(2)
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 3, mesh.count(3))
    dm = distribute(mesh, assignment, nparts=3)
    dm.verify()
    # Move a random batch from the fullest part.
    counts = dm.entity_counts()[:, 3]
    src = int(np.argmax(counts))
    part = dm.part(src)
    elements = sorted(part.mesh.entities(3))[:5]
    migrate(dm, {src: {e: (src + 1) % 3 for e in elements}})
    dm.verify()
    volume = sum(
        measure(p.mesh, r) for p in dm for r in p.mesh.entities(3)
    )
    assert volume == pytest.approx(1.0)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=st.lists(
        st.tuples(st.integers(0, NPARTS - 1), st.integers(0, 200),
                  st.integers(0, NPARTS - 1), st.integers(1, 6)),
        min_size=2,
        max_size=6,
    )
)
def test_sequential_migrations_keep_links_consistent(steps):
    """Chained migrations (each relinking only its dirty keys) never desync.

    Regression guard for the delta relink: a source's links must be read
    before removal drops them, or a later migration starts from stale
    links.
    """
    dm = fresh_dmesh([i % NPARTS for i in range(_NELEMS)])
    for src, nth, dest, batch in steps:
        part = dm.part(src)
        elements = sorted(part.mesh.entities(2))
        if not elements:
            continue
        start = nth % len(elements)
        moves = {e: dest for e in elements[start:start + batch]}
        migrate(dm, {src: moves})
        dm.verify()
    assert dm.entity_counts()[:, 2].sum() == _NELEMS


def test_emptying_and_refilling_part_through_chain():
    """Merge a part away, then split back into it, verifying each step."""
    from repro.partition import merge_parts, migrate as do_migrate

    dm = fresh_dmesh([i % NPARTS for i in range(_NELEMS)])
    merge_parts(dm, 1, 0)
    dm.verify()
    assert dm.part(1).mesh.count(2) == 0
    # Refill part 1 from part 0 in two waves.
    for _wave in range(2):
        part0 = dm.part(0)
        elements = sorted(part0.mesh.entities(2))[:4]
        do_migrate(dm, {0: {e: 1 for e in elements}})
        dm.verify()
    assert dm.part(1).mesh.count(2) == 8


# -- delta relink vs the full rescan ------------------------------------------
#
# ``migrate`` re-links only the keys its moved closures touch.  The oracle
# is the full ``rebuild_links`` rescan: after every migration — random
# multi-source plans, sends to non-neighbour parts, a part emptied and
# refilled, and every migration ParMA makes — each part's links must equal
# what the rescan produces.

from unittest import mock

from repro.core import improve as improve_module
from repro.core.balancer import ParMA
from repro.mesh import box_hex, extrude_to_prisms, rect_quad
from repro.partition import migration as migration_module
from repro.partition import rebuild_links

_ORACLE_MESHES = {
    "tet": box_tet(2),
    "tri": rect_tri(6),
    "quad": rect_quad(6),
    "hex": box_hex(3),
    "prism": extrude_to_prisms(rect_tri(3), layers=2),
}


def _assert_links_match_full_rebuild(dm):
    delta = [dict(part.remotes) for part in dm]
    rebuild_links(dm)
    assert [dict(part.remotes) for part in dm] == delta
    dm.verify()


def _checked_migrate(dm, plan):
    stats = migrate(dm, plan)
    _assert_links_match_full_rebuild(dm)
    return stats


def _delta_migrate(dm, plan):
    """A checked migration that must have taken the delta relink."""
    with mock.patch.object(
        migration_module, "_relink", wraps=migration_module._relink
    ) as delta:
        _checked_migrate(dm, plan)
    assert delta.call_count == 1


def _elements(part):
    return sorted(part.mesh.entities(part.mesh.dim()))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(_ORACLE_MESHES)),
    seed=st.integers(0, 10_000),
    steps=st.lists(
        st.lists(
            st.tuples(st.integers(0, NPARTS - 1), st.integers(0, 500),
                      st.integers(0, NPARTS - 1)),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_delta_relink_matches_full_rebuild(kind, seed, steps):
    mesh = _ORACLE_MESHES[kind]
    rng = np.random.default_rng(seed)
    dm = distribute(
        mesh, rng.integers(0, NPARTS, mesh.count(mesh.dim())).tolist(),
        nparts=NPARTS,
    )
    # Random plans: several sources, each element to any part.
    for moves in steps:
        plan = {}
        for src, nth, dest in moves:
            elements = _elements(dm.part(src))
            if elements:
                element = elements[nth % len(elements)]
                plan.setdefault(src, {}).setdefault(element, dest)
        _checked_migrate(dm, plan)

    # A send to a part that shares nothing with the source.
    for part in dm:
        strangers = set(range(NPARTS)) - part.neighbors() - {part.pid}
        if strangers and _elements(part):
            _delta_migrate(
                dm, {part.pid: {_elements(part)[0]: min(strangers)}}
            )
            break

    # Empty the smallest part, an element at a time to every other part,
    # then refill it from two sources at once.
    counts = dm.entity_counts()[:, dm.element_dim()]
    emptied = min(
        (pid for pid in range(NPARTS) if counts[pid]),
        key=lambda pid: (counts[pid], pid),
    )
    others = [pid for pid in range(NPARTS) if pid != emptied]
    turn = 0
    while _elements(dm.part(emptied)):
        element = _elements(dm.part(emptied))[0]
        _delta_migrate(dm, {emptied: {element: others[turn % 3]}})
        turn += 1
    sources = [pid for pid in others if _elements(dm.part(pid))][:2]
    _delta_migrate(
        dm, {pid: {_elements(dm.part(pid))[-1]: emptied} for pid in sources}
    )
    assert len(_elements(dm.part(emptied))) == len(sources)

    # ParMA: check after each of its migrations.
    with mock.patch.object(improve_module, "migrate", _checked_migrate):
        ParMA(dm).improve("Vtx > Rgn")
    assert sum(dm.entity_counts()[:, dm.element_dim()]) == (
        mesh.count(mesh.dim())
    )


def test_whole_part_moves_fall_back_to_the_rescan():
    """Rotating every part's elements to the next part relinks through the
    full rescan: its relink bytes equal a ``rebuild_links`` of the result."""
    from repro.obs import Tracer
    from repro.obs.stats import CommProbe
    from repro.parallel import PerfCounters

    counters = PerfCounters()
    dm = distribute(
        _BASE_MESH, [i % NPARTS for i in range(_NELEMS)], nparts=NPARTS,
        counters=counters,
    )
    dm.tracer = Tracer(counters=counters)
    plan = {
        part.pid: {e: (part.pid + 1) % NPARTS for e in _elements(part)}
        for part in dm
    }
    with mock.patch.object(
        migration_module, "_relink", wraps=migration_module._relink
    ) as delta:
        migrate(dm, plan)
    assert delta.call_count == 0
    relink = dm.tracer.roots[-1].find("migrate.relink")
    probe = CommProbe(counters)
    _assert_links_match_full_rebuild(dm)
    assert relink.counter_deltas["net.bytes.encoded"] == probe.encoded_bytes()


# -- randomized op-sequence differential vs serial replay -------------------
#
# Each seed draws one sequence of mesh-service operations — element destroy
# (with cascade of its unused closure), re-create of a destroyed element,
# migration, ghost layering, field synchronization — and replays it at 1, 2
# and 4 parts.  Operations are phrased in global ids, so the same sequence
# is meaningful at every part count; after the run the distributed states
# must agree with the 1-part replay on the owned gid sets (vertices and
# elements) and on a field checksum over owned vertices, and must pass
# ``verify`` after every step.  This is the behavioral lock on the SoA core:
# handle recycling, destroy listeners, lookup maintenance and batch sync all
# sit under these ops.

from repro.partition import DistributedField, delete_ghosts, ghost_layer
from repro.partition import synchronize as sync_field
from repro.partition.migration import _remove_element, rebuild_links

OPS_MESH_N = 3
OPS_PER_SEQ = 6
N_SEEDS = 34  # x3 part counts = 102 sequences


def _field_fn(xyz):
    return float(xyz[0] + 2.0 * xyz[1] + 0.5)


def _ops_dmesh(nparts):
    mesh = rect_tri(OPS_MESH_N)
    nelems = mesh.count(2)
    assignment = [i % nparts for i in range(nelems)]
    dm = distribute(mesh, assignment, nparts=nparts)
    dfield = DistributedField(dm, "u", entity_dim=0)
    dfield.set_from_coords(_field_fn)
    return dm, dfield


def _fill_missing_values(dm, dfield):
    # Migration and re-creation make vertex copies with no field value yet;
    # values are coordinate-determined, so refilling keeps replicas aligned.
    for part in dm:
        field = dfield.on(part.pid)
        mesh = part.mesh
        for v in mesh.entities(0):
            if not field.has(v):
                field.set(v, _field_fn(mesh.coords(v)))


def _global_element_gids(dm):
    dim = dm.element_dim()
    gids = set()
    for part in dm:
        for e in part.mesh.entities(dim):
            if not part.is_ghost(e):
                gids.add(part.gid(e))
    return sorted(gids)


def _holder_of(dm, gid):
    dim = dm.element_dim()
    for part in dm:
        ent = part.by_gid(dim, gid)
        if ent is not None and not part.is_ghost(ent):
            return part, ent
    raise AssertionError(f"element gid {gid} held nowhere")


def _apply_ops(nparts, seed):
    """Replay seed's op sequence at ``nparts``; return the final signature."""
    rng = np.random.default_rng(seed)
    dm, dfield = _ops_dmesh(nparts)
    graveyard = []  # records of destroyed elements, most recent last

    for _step in range(OPS_PER_SEQ):
        # All draws happen unconditionally and identically at every part
        # count, so the sequences stay comparable.
        op = ["destroy", "create", "migrate", "ghost", "sync"][
            int(rng.integers(5))
        ]
        pick = int(rng.integers(1_000_000))
        dest_draw = int(rng.integers(4))

        if op == "destroy":
            delete_ghosts(dm)
            gids = _global_element_gids(dm)
            if len(gids) <= 2:  # keep the mesh alive
                continue
            part, element = _holder_of(dm, gids[pick % len(gids)])
            verts = part.mesh.verts_of(element)
            edge_gids = {}
            for edge in part.mesh.down(element):
                key = tuple(sorted(
                    part.gid(v) for v in part.mesh.verts_of(edge)
                ))
                edge_gids[key] = part.gid(edge)
            graveyard.append({
                "etype": part.mesh.etype(element),
                "gid": part.gid(element),
                "vgids": [part.gid(v) for v in verts],
                "coords": [part.mesh.coords(v).tolist() for v in verts],
                "edge_gids": edge_gids,
            })
            _remove_element(part, element)
            rebuild_links(dm)
        elif op == "create":
            if not graveyard:
                continue
            delete_ghosts(dm)
            record = graveyard.pop()
            target = None
            for part in dm:
                if any(
                    part.by_gid(0, g) is not None for g in record["vgids"]
                ):
                    target = part
                    break
            if target is None:
                target = dm.part(sum(record["vgids"]) % dm.nparts)
            field = dfield.on(target.pid)
            local = []
            for g, xyz in zip(record["vgids"], record["coords"]):
                v = target.by_gid(0, g)
                if v is None:
                    v = target.mesh.create_vertex(xyz)
                    target.set_gid(v, g)
                    field.set(v, _field_fn(np.asarray(xyz)))
                local.append(v)
            element = target.mesh.create(record["etype"], local)
            target.set_gid(element, record["gid"])
            # Implicitly created boundary edges need their recorded gids
            # back, or the gid-keyed ghost registry won't track them.
            for edge in target.mesh.down(element):
                if not target.has_gid(edge):
                    key = tuple(sorted(
                        target.gid(v) for v in target.mesh.verts_of(edge)
                    ))
                    target.set_gid(edge, record["edge_gids"][key])
            rebuild_links(dm)
        elif op == "migrate":
            delete_ghosts(dm)
            gids = _global_element_gids(dm)
            part, element = _holder_of(dm, gids[pick % len(gids)])
            dest = dest_draw % dm.nparts
            if dest != part.pid:
                migrate(dm, {part.pid: {element: dest}})
                _fill_missing_values(dm, dfield)
        elif op == "ghost":
            if not any(part.ghosts for part in dm):
                ghost_layer(dm)
                _fill_missing_values(dm, dfield)
        elif op == "sync":
            sync_field(dfield)
            assert dfield.max_copy_disagreement() == 0.0
        dm.verify()

    owned = {}
    for dim in (0, dm.element_dim()):
        owned[dim] = set()
        for part in dm:
            for ent in part.mesh.entities(dim):
                if part.owns(ent):
                    gid = part.gid(ent)
                    assert gid not in owned[dim], (
                        f"gid {gid} owned twice (dim {dim})"
                    )
                    owned[dim].add(gid)
    checksum = 0.0
    for part in dm:
        field = dfield.on(part.pid)
        for v in part.mesh.entities(0):
            if part.owns(v) and field.has(v):
                checksum += float(field.get_scalar(v)) * (
                    1 + part.gid(v) % 5
                )
    return owned, checksum


_SERIAL_REPLAYS = {}


def _serial_replay(seed):
    if seed not in _SERIAL_REPLAYS:
        _SERIAL_REPLAYS[seed] = _apply_ops(1, seed)
    return _SERIAL_REPLAYS[seed]


@pytest.mark.parametrize("nparts", [1, 2, 4])
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_op_sequence_matches_serial_replay(nparts, seed):
    owned, checksum = _apply_ops(nparts, seed)
    serial_owned, serial_checksum = _serial_replay(seed)
    assert owned == serial_owned
    assert checksum == pytest.approx(serial_checksum, rel=1e-12)
