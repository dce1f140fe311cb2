"""Tests for `SnapshotStore`: epochs, parallel load, compaction, cache."""

import numpy as np
import pytest

from repro.mesh import rect_tri
from repro.obs import Tracer
from repro.parallel.perf import PerfCounters
from repro.partition import DistributedField, distribute, migrate
from repro.store import (
    CorruptSnapshotError,
    SnapshotCache,
    SnapshotStore,
    current_cache,
    field_checksum,
    install_cache,
    owned_gid_set,
    uninstall_cache,
)


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def make_dmesh(nparts=4, n=4):
    mesh = rect_tri(n)
    return distribute(mesh, strips(mesh, nparts)), mesh


def coord_field(dm, name="temp"):
    f = DistributedField(dm, name, 0, 1)
    for part in dm:
        local = f.on(part.pid)
        for v in part.mesh.entities(0):
            local.set(v, np.array([float(part.gid(v))]))
    return f


def parity(dm, fields):
    return (
        owned_gid_set(dm, dm.element_dim()),
        {
            name: round(field_checksum(dm, f), 9)
            for name, f in sorted(fields.items())
        },
    )


@pytest.mark.parametrize("target", [1, 2, 8])
def test_parallel_load_any_part_count(tmp_path, target):
    dm, mesh = make_dmesh(nparts=4, n=4)
    f = coord_field(dm)
    store = SnapshotStore(tmp_path / "st", chunk_records=16)
    store.save(dm, [f])
    expect = (owned_gid_set(dm, 2), round(field_checksum(dm, f), 9))
    dm2, fields, stats = store.load_at(nparts=target, model=mesh.model)
    dm2.verify()
    assert dm2.nparts == target
    assert owned_gid_set(dm2, 2) == expect[0]
    assert round(field_checksum(dm2, fields["temp"]), 9) == expect[1]
    assert stats.op == "load" and stats.nparts == target
    assert stats.chunks > 0 and stats.records > 0


def test_load_defaults_to_saved_nparts(tmp_path):
    dm, mesh = make_dmesh(nparts=3)
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    dm2, _, _ = store.load_at(model=mesh.model)
    assert dm2.nparts == 3


def test_delta_chain_save_and_load(tmp_path):
    dm, mesh = make_dmesh(nparts=4, n=6)
    f = coord_field(dm)
    store = SnapshotStore(tmp_path / "st", chunk_records=16)
    e0 = store.save(dm, [f])
    assert e0.kind == "full"

    part0 = dm.part(0)
    elems = list(part0.mesh.entities(2))[:2]
    migrate(dm, {0: {e: 1 for e in elems}})
    e1 = store.save(dm, [f])
    assert e1.kind == "delta"
    # A pure migration changes nothing canonical: the delta is empty.
    assert e1.records == 0

    local = f.on(1)
    part1 = dm.part(1)
    dirtied = 0
    for v in part1.mesh.entities(0):
        if part1.owns(v) and not part1.is_ghost(v):
            local.set(v, np.array([999.0]))
            dirtied += 1
            if dirtied == 4:
                break
    e2 = store.save(dm, [f])
    assert e2.kind == "delta" and 0 < e2.records <= dirtied
    assert e2.payload_bytes < 0.25 * e0.payload_bytes

    want = parity(dm, {"temp": f})
    for target in (1, 3, 8):
        dm2, fields, stats = store.load_at(nparts=target, model=mesh.model)
        dm2.verify()
        assert parity(dm2, fields) == want
        assert stats.chain_length == 3


def test_full_every_caps_chain_length(tmp_path):
    dm, _ = make_dmesh(nparts=2, n=3)
    store = SnapshotStore(tmp_path / "st", full_every=2)
    kinds = [store.save(dm).kind for _ in range(5)]
    assert kinds == ["full", "delta", "full", "delta", "full"]


def test_compact_is_deterministic_and_equivalent(tmp_path):
    dm, mesh = make_dmesh(nparts=3, n=4)
    f = coord_field(dm)
    for root in ("a", "b"):
        store = SnapshotStore(tmp_path / root, chunk_records=16)
        store.save(dm, [f])
        local = f.on(0)
        part0 = dm.part(0)
        v = next(
            v for v in part0.mesh.entities(0)
            if part0.owns(v) and not part0.is_ghost(v)
        )
        local.set(v, np.array([5.5])) if root == "a" else None
        # both stores get the same final state: re-set deterministically
        local.set(v, np.array([5.5]))
        store.save(dm, [f])
        store.compact()
    tip_a = SnapshotStore(tmp_path / "a").tip()
    tip_b = SnapshotStore(tmp_path / "b").tip()
    assert tip_a.kind == tip_b.kind == "full"
    for chunk in sorted(p.name for p in tip_a.path.iterdir()):
        assert (tip_a.path / chunk).read_bytes() == (
            tip_b.path / chunk
        ).read_bytes()
    want = parity(dm, {"temp": f})
    dm2, fields, _ = SnapshotStore(tmp_path / "a").load_at(
        nparts=2, model=mesh.model
    )
    assert parity(dm2, fields) == want


def test_prune_compacts_surviving_delta(tmp_path):
    dm, mesh = make_dmesh(nparts=2, n=3)
    store = SnapshotStore(tmp_path / "st")
    for _ in range(4):
        store.save(dm)
    assert [e.kind for e in store.epochs()] == [
        "full", "delta", "delta", "delta"
    ]
    pruned = store.prune(2)
    assert pruned == [0, 1]
    kinds = {e.index: e.kind for e in store.epochs()}
    assert kinds == {2: "full", 3: "delta"}
    dm2, _, _ = store.load_at(model=mesh.model)
    assert owned_gid_set(dm2, 2) == owned_gid_set(dm, 2)
    assert store.prune(0) == []  # unlimited sentinel


def test_broken_chain_raises(tmp_path):
    import shutil

    dm, _ = make_dmesh(nparts=2, n=3)
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    store.save(dm)
    shutil.rmtree(store.epochs()[0].path)
    with pytest.raises(CorruptSnapshotError):
        store.load_at(nparts=2)
    # ...but a fresh save recovers with a full epoch (corrupt parent).
    info = store.save(dm)
    assert info.kind == "full"


def test_counters_and_spans(tmp_path):
    dm, mesh = make_dmesh(nparts=2, n=3)
    counters = PerfCounters()
    tracer = Tracer(counters=counters)
    tracer.bind(pid=0, tid=0)
    store = SnapshotStore(tmp_path / "st", counters=counters, tracer=tracer)
    store.save(dm)
    assert counters.get("store.epochs.full") == 1
    assert counters.get("store.chunks.written") > 0
    assert counters.get("store.bytes.written") > 0
    dm2, _, stats = store.load_at(nparts=2, model=mesh.model, counters=counters)
    assert counters.get("store.chunks.read") >= stats.chunks > 0
    assert counters.get("store.records.loaded") > 0
    names = [s.name for root in tracer.roots for s in root.walk()]
    assert "store.save" in names and "store.load" in names
    assert "sf.bcast" in names  # the redistribution rides the star forest


def test_cache_hit_miss_and_warm_start(tmp_path):
    dm, _ = make_dmesh(nparts=4, n=4)
    counters = PerfCounters()
    cache = SnapshotCache(tmp_path / "cache", counters=counters)
    params = {"n": 4}
    assert cache.fetch("w", params, nparts=2) is None
    assert counters.get("store.cache.misses") == 1
    cache.put("w", params, dm)
    got = cache.fetch("w", params, nparts=2)
    assert got is not None
    assert counters.get("store.cache.hits") == 1
    dm2, _, _ = got
    assert owned_gid_set(dm2, 2) == owned_gid_set(dm, 2)

    calls = []

    def build():
        calls.append(1)
        return make_dmesh(nparts=2, n=5)[0], ()

    m1, _, warm1 = cache.warm_start("x", {"n": 5}, 2, build)
    m2, _, warm2 = cache.warm_start("x", {"n": 5}, 2, build)
    assert (warm1, warm2) == (False, True)
    assert len(calls) == 1  # geometry generation skipped on the hit
    assert owned_gid_set(m1, 2) == owned_gid_set(m2, 2)


def test_install_current_uninstall():
    assert current_cache() is None
    cache = SnapshotCache("/tmp/unused-cache-root")
    try:
        assert install_cache(cache) is cache
        assert current_cache() is cache
    finally:
        uninstall_cache()
    assert current_cache() is None


# -- bulk classification on load --------------------------------------------


def _cylinder_mesh(ring=8, layers=3):
    """A tet mesh of the unit cylinder classified against ``cylinder_model``.

    Each layer is a fan of wedges around the axis, every wedge split into
    three tets that all touch the axis, so no element lies flat on the
    curved wall.
    """
    from repro.gmodel import cylinder_model
    from repro.mesh import TET, from_connectivity

    angles = 2 * np.pi * np.arange(ring) / ring
    xyz, tets = [], []
    for k in range(layers + 1):
        z = k / layers
        xyz.append((0.0, 0.0, z))
        xyz.extend((np.cos(a), np.sin(a), z) for a in angles)
    stride = ring + 1
    for k in range(layers):
        c0, c1 = k * stride, (k + 1) * stride
        for j in range(ring):
            a0, b0 = c0 + 1 + j, c0 + 1 + (j + 1) % ring
            a1, b1 = a0 + stride, b0 + stride
            tets += [(c0, a0, b0, c1), (a0, b0, a1, c1), (b0, b1, a1, c1)]
    return from_connectivity(
        np.array(xyz), np.array(tets), TET, model=cylinder_model(),
        classify=True,
    )


def _box_mesh():
    from repro.mesh import box_tet

    return box_tet(3)


def _classify_per_element(mesh):
    """The per-element loop load used to run: every element's closure,
    element by element, through the closure rule."""
    for element in mesh.entities(mesh.dim()):
        mesh.classify_closure_missing(element)


@pytest.mark.parametrize("make", [_box_mesh, _cylinder_mesh])
def test_load_classification_matches_per_element_loop(tmp_path, make):
    mesh = make()
    count = mesh.count(3)
    dm = distribute(mesh, [4 * i // count for i in range(count)])
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    loaded, _, _ = store.load_at(nparts=3, model=mesh.model)
    loaded.verify()
    for part in loaded:
        got = [dict(part.mesh._gclass[d]) for d in range(4)]
        assert all(got[d] for d in range(4))
        for d in (1, 2, 3):
            part.mesh._gclass[d].clear()
        mesh.model.classify_memo.clear()
        _classify_per_element(part.mesh)
        assert got == [dict(part.mesh._gclass[d]) for d in range(4)]
