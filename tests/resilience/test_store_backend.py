"""CheckpointManager over ``repro.store/1`` epochs: deltas, rotation, restore."""

import logging

import numpy as np
import pytest

from repro.mesh import rect_tri
from repro.partition import DistributedField, distribute
from repro.resilience import (
    CheckpointManager,
    NoCheckpointError,
    resilient_spmd,
)
from repro.store import owned_gid_set, field_checksum
from repro.store.format import FORMAT as STORE_FORMAT, read_epoch_manifest


def strips(mesh, nparts):
    return [
        min(int(mesh.centroid(e)[0] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def make_dmesh(nparts=3, n=4):
    mesh = rect_tri(n)
    return distribute(mesh, strips(mesh, nparts)), mesh


def test_store_backend_roundtrip(tmp_path):
    dm, mesh = make_dmesh()
    manager = CheckpointManager(tmp_path / "ck")
    info = manager.save(dm, step=5)
    assert info.index == 0 and info.step == 5
    assert read_epoch_manifest(info.path)["format"] == STORE_FORMAT
    restored, fields, rinfo = manager.restore(model=mesh.model)
    restored.verify()
    assert rinfo.index == 0 and rinfo.step == 5
    assert np.array_equal(restored.entity_counts().sum(axis=0),
                          dm.entity_counts().sum(axis=0))
    assert fields == {}


def test_store_backend_writes_deltas_and_rotates(tmp_path):
    dm, mesh = make_dmesh(nparts=2, n=3)
    manager = CheckpointManager(tmp_path / "ck", keep=2)
    for step in range(5):
        manager.save(dm, step=step)
    infos = manager.checkpoints()
    assert [info.index for info in infos] == [3, 4]
    assert [info.step for info in infos] == [3, 4]
    # Rotation compacted the oldest survivor, so its chain is intact.
    store = manager._store()
    kinds = {e.index: e.kind for e in store.epochs()}
    assert kinds[3] == "full"
    restored, _, rinfo = manager.restore(model=mesh.model)
    restored.verify()
    assert rinfo.step == 4


def test_store_backend_restore_at_other_part_count(tmp_path):
    dm, mesh = make_dmesh(nparts=4, n=4)
    f = DistributedField(dm, "temp", 0, 1)
    for part in dm:
        local = f.on(part.pid)
        for v in part.mesh.entities(0):
            local.set(v, np.array([float(part.gid(v))]))
    manager = CheckpointManager(tmp_path / "ck")
    manager.save(dm, step=0, fields=[f])
    for target in (1, 2, 8):
        restored, fields, _ = manager.restore(model=mesh.model, nparts=target)
        restored.verify()
        assert restored.nparts == target
        assert owned_gid_set(restored, 2) == owned_gid_set(dm, 2)
        assert abs(
            field_checksum(restored, fields["temp"])
            - field_checksum(dm, f)
        ) < 1e-9


def test_corrupt_store_epoch_skipped_and_logged(tmp_path, caplog):
    dm, mesh = make_dmesh(nparts=2, n=3)
    manager = CheckpointManager(tmp_path / "ck", keep=0)
    manager.save(dm, step=0)
    info = manager.save(dm, step=1)
    chunk = sorted(info.path.glob("*.bin"))[0]
    data = bytearray(chunk.read_bytes())
    data[-1] ^= 0xFF
    chunk.write_bytes(bytes(data))
    assert not manager.validate(info)
    with caplog.at_level(logging.WARNING, "repro.resilience.checkpoint"):
        restored, _, rinfo = manager.restore(model=mesh.model)
    assert rinfo.step == 0
    assert any(
        "skipping corrupt checkpoint" in rec.getMessage()
        for rec in caplog.records
    )
    restored.verify()


def test_keep_zero_is_documented_unlimited_sentinel(tmp_path):
    """Regression for the keep=0 docstring/behavior mismatch.

    ``keep=0`` is the explicit unlimited sentinel: every checkpoint is
    retained, and the docstring says so.
    """
    dm, _ = make_dmesh(nparts=2, n=2)
    manager = CheckpointManager(tmp_path / "ck", keep=0)
    for step in range(4):
        manager.save(dm, step=step)
    assert [i.index for i in manager.checkpoints()] == [0, 1, 2, 3]
    assert "unlimited" in CheckpointManager.__doc__
    with pytest.raises(ValueError):
        CheckpointManager(tmp_path / "neg", keep=-1)


def test_resilient_spmd_with_store_backend(tmp_path):
    mesh = rect_tri(3)

    def build():
        return distribute(mesh, strips(mesh, 2))

    seen = []

    def step(dmesh, i):
        seen.append(i)

    manager = CheckpointManager(tmp_path / "ck", keep=2)
    dmesh, report = resilient_spmd(build, step, 4, checkpoints=manager)
    dmesh.verify()
    assert seen == [0, 1, 2, 3]
    assert report.steps == 4 and report.checkpoints_written > 0
    infos = manager.checkpoints()
    assert infos and all(
        read_epoch_manifest(i.path)["format"] == STORE_FORMAT for i in infos
    )


def test_empty_store_dir_raises_no_checkpoint(tmp_path):
    manager = CheckpointManager(tmp_path / "ck")
    with pytest.raises(NoCheckpointError):
        manager.restore()
