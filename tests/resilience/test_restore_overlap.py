"""Restore-at-different-part-count under depth-k ghost overlaps.

The canonical snapshot state excludes ghosts, so a checkpoint of a
ghosted distribution records only owned entities; the manager re-applies
its ``ghost_config`` after the restore, which must agree part-for-part
with loading un-ghosted and ghosting by hand.
"""

import numpy as np
import pytest

from repro.mesh import rect_tri
from repro.partition import (
    DistributedField,
    Overlap,
    distribute,
    ghost_layer,
)
from repro.resilience import CheckpointManager
from repro.store import SnapshotStore, field_checksum, owned_gid_set


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def make_dmesh(nparts=4, n=4):
    mesh = rect_tri(n)
    return distribute(mesh, strips(mesh, nparts)), mesh


def part_signature(dmesh):
    """Per-part (owned element gids, ghost count) — order matters."""
    out = []
    for part in dmesh:
        owned = tuple(sorted(
            part.gid(e)
            for e in part.mesh.entities(2)
            if e not in part.ghosts
        ))
        out.append((owned, len(part.ghosts)))
    return out


@pytest.mark.parametrize("depth", [2, 3])
def test_store_load_then_reghost(tmp_path, depth):
    dm, mesh = make_dmesh(nparts=4, n=5)
    overlap = Overlap(depth=depth, bridge_dim=0)
    ghost_layer(dm, overlap=overlap)
    f = DistributedField(dm, "u", 0, 1)
    for part in dm:
        local = f.on(part.pid)
        for v in part.mesh.entities(0):
            if not part.is_ghost(v):
                local.set(v, np.array([float(part.gid(v))]))
    store = SnapshotStore(tmp_path / "st", chunk_records=32)
    store.save(dm, [f])
    want_elems = owned_gid_set(dm, 2)
    want_sum = round(field_checksum(dm, f), 9)
    for target in (2, 6):
        dm2, fields, _ = store.load_at(nparts=target, model=mesh.model)
        ghost_layer(dm2, overlap=overlap)
        dm2.verify()
        assert owned_gid_set(dm2, 2) == want_elems
        assert round(field_checksum(dm2, fields["u"]), 9) == want_sum
        assert all(part.ghosts for part in dm2)


def test_deeper_overlap_ghosts_more(tmp_path):
    dm, mesh = make_dmesh(nparts=4, n=5)
    store = SnapshotStore(tmp_path / "st")
    store.save(dm)
    totals = []
    for depth in (2, 3):
        dm2, _, _ = store.load_at(nparts=3, model=mesh.model)
        ghost_layer(dm2, overlap=Overlap(depth=depth, bridge_dim=0))
        dm2.verify()
        totals.append(sum(len(part.ghosts) for part in dm2))
    assert totals[1] > totals[0] > 0


def test_manager_overlap_restore_matches_fresh_ghosting(tmp_path):
    """Restoring at another part count then re-ghosting must equal
    loading un-ghosted at that count and ghosting by hand."""
    dm, mesh = make_dmesh(nparts=4, n=4)
    overlap = Overlap(depth=2, bridge_dim=0)
    ghost_layer(dm, overlap=overlap)
    manager = CheckpointManager(tmp_path / "ck", ghost_config=overlap)
    manager.save(dm, step=0)
    restored, _, _ = manager.restore(model=mesh.model, nparts=2)

    reference, _, _ = SnapshotStore(
        tmp_path / "ck", prefix=CheckpointManager.PREFIX
    ).load_at(nparts=2, model=mesh.model)
    ghost_layer(reference, overlap=overlap)
    assert part_signature(restored) == part_signature(reference)
    assert np.array_equal(
        restored.entity_counts(), reference.entity_counts()
    )
