"""End-to-end integration tests: the full simulation-workflow loop.

Each test strings several subsystems together the way an application would,
mirroring the workflow the paper's introduction describes: mesh generation →
partitioning → distribution → fields/ghosts for analysis → adaptation →
dynamic load balancing → (checkpoint) → repeat.
"""

import numpy as np
import pytest

from repro.adapt import adapt, seed_ancestry
from repro.core import ParMA, imbalance_of, imbalances
from repro.field import ShockPlaneSize, UniformSize
from repro.mesh import box_tet, rect_tri
from repro.mesh.quality import measure
from repro.mesh.verify import verify
from repro.partition import (
    DistributedField,
    Overlap,
    accumulate,
    adapt_distributed,
    build_partition_model,
    delete_ghosts,
    distribute,
    ghost_layer,
    refine_distributed,
    synchronize,
)
from repro.partitioners import partition
from repro.store import SnapshotStore


def total_measure(dm):
    dim = dm.element_dim()
    return sum(measure(p.mesh, e) for p in dm for e in p.mesh.entities(dim))


def check_all(dm):
    dm.verify()
    for part in dm:
        if part.mesh.count(0):
            verify(part.mesh, check_classification=False, check_volumes=True)


def test_analysis_step_workflow_2d():
    """Generate → partition → distribute → ghost → FE-style assembly."""
    mesh = rect_tri(8)
    assignment = partition(mesh, 4, method="hypergraph", seed=2)
    dm = distribute(mesh, assignment)
    pmodel = build_partition_model(dm)
    assert pmodel.count() > 0

    # One ghost layer for element loops, a dof field, an assembly pass.
    ghost_layer(dm, overlap=Overlap(depth=1, bridge_dim=0))
    dm.verify()
    dof = DistributedField(dm, "u")
    for part in dm:
        field = dof.on(part.pid)
        for v in part.mesh.entities(0):
            field.set(v, 0.0)
    # Each part adds 1 per adjacent local (non-ghost) element to each
    # vertex — a mass-lumping-style assembly.
    for part in dm:
        field = dof.on(part.pid)
        for element in part.mesh.entities(2):
            if part.is_ghost(element):
                continue
            for v in part.mesh.verts_of(element):
                field.set(v, field.get_scalar(v) + 1.0)
    delete_ghosts(dm)
    accumulate(dof)

    # Every vertex's assembled value equals its global element valence.
    for part in dm:
        field = dof.on(part.pid)
        for v in part.mesh.entities(0):
            gid = part.gid(v)
            from repro.mesh import Ent

            expected = len(mesh.adjacent(Ent(0, gid), 2))
            assert field.get_scalar(v) == pytest.approx(expected)
    assert dof.max_copy_disagreement() == 0


def test_adaptive_loop_with_balancing_2d():
    """Distribute → distributed adapt → ParMA → verify, twice."""
    mesh = rect_tri(6)
    dm = distribute(mesh, partition(mesh, 3, method="rcb"))
    for offset in (0.3, 0.7):
        shock = ShockPlaneSize(
            [1, 0], offset, h_fine=0.05, h_coarse=0.35, width=0.07
        )
        adapt_distributed(dm, shock, max_passes=5)
        check_all(dm)
        balancer = ParMA(dm)
        balancer.rebalance_spikes("Face", tol=0.08)
        check_all(dm)
        assert total_measure(dm) == pytest.approx(1.0)
    final = imbalance_of(dm.entity_counts(), 2)
    assert final <= 1.30


def test_checkpoint_restart_mid_workflow(tmp_path):
    """Adapt, checkpoint, restart, keep adapting: results stay valid."""
    mesh = rect_tri(4)
    dm = distribute(mesh, partition(mesh, 2, method="rcb"))
    refine_distributed(dm, UniformSize(0.15))
    store = SnapshotStore(tmp_path / "ckpt")
    store.save(dm)

    restarted, _fields, _stats = store.load_at(model=mesh.model)
    refine_distributed(restarted, UniformSize(0.08))
    check_all(restarted)
    assert total_measure(restarted) == pytest.approx(1.0)
    # The restarted run refined beyond the checkpoint.
    assert (
        restarted.entity_counts()[:, 2].sum()
        > dm.entity_counts()[:, 2].sum()
    )


def test_multicriteria_after_serial_adaptation_3d():
    """The Table-II flow on a 3D mesh that went through serial adaptation."""
    mesh = box_tet(3)
    seed_ancestry(mesh, "part", lambda e: 0)
    shock = ShockPlaneSize(
        [1, 0, 0], 0.5, h_fine=0.18, h_coarse=0.4, width=0.1
    )
    adapt(mesh, shock, max_passes=3, do_coarsen=False)
    verify(mesh, check_volumes=True)

    dm = distribute(mesh, partition(mesh, 6, method="hypergraph", seed=4))
    before = imbalances(dm.entity_counts())
    stats = ParMA(dm).improve("Vtx = Edge > Rgn", tol=0.08)
    after = imbalances(dm.entity_counts())
    check_all(dm)
    assert after[0] <= max(before[0], 1.08) + 1e-9
    assert after[1] <= max(before[1], 1.08) + 1e-9


def test_two_level_distribution_counts():
    """Parts mapped 2-per-node: process-level loads aggregate correctly."""
    from repro.parallel import MachineTopology
    from repro.partition import node_entity_counts

    mesh = rect_tri(6)
    topo = MachineTopology(nodes=2, cores_per_node=2)
    dm = distribute(mesh, partition(mesh, 4, method="rcb"), topology=topo)
    per_node = node_entity_counts(dm)
    assert per_node.shape == (2, 4)
    assert per_node[:, 2].sum() == mesh.count(2)
    # Migration between on-node parts produces no off-node traffic.
    from repro.partition import migrate

    start_off = dm.counters.get("net.messages.off_node")
    element = next(dm.part(0).mesh.entities(2))
    migrate(dm, {0: {element: 1}})
    dm.verify()
    # The element bundle itself travelled on-node; only the link-rebuild
    # rendezvous (hash-homed) may cross nodes.
    assert dm.counters.get("net.messages.off_node") >= start_off
