"""Distributed-mesh checkpointing through the ``repro.store/1`` format.

Meshes are saved by :class:`~repro.resilience.CheckpointManager`, which
records each element's owning part, and read back with
:meth:`~repro.store.SnapshotStore.load_at`: at the saved part count the
distribution comes back exactly (per-part counts, remote links); at any
other count the mesh is re-dealt.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.mesh import box_tet, rect_tri
from repro.parallel import codec
from repro.partition import DistributedField, distribute, migrate
from repro.resilience import CheckpointManager, CorruptCheckpointError
from repro.store import CorruptSnapshotError, SnapshotStore


def strips(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def save(dm, path, fields=()):
    CheckpointManager(path).save(dm, step=0, fields=fields)
    return path


def load(path, **kwargs):
    store = SnapshotStore(path, prefix=CheckpointManager.PREFIX)
    dm, fields, _stats = store.load_at(**kwargs)
    return dm, fields


def epoch_dir(path):
    (epoch,) = SnapshotStore(path, prefix=CheckpointManager.PREFIX).epochs()
    return epoch.path


def test_roundtrip_counts_and_links(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    restored, _ = load(save(dm, tmp_path / "ckpt"), model=mesh.model)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())
    # Remote-link structure identical (same residence sets per shared gid).
    for part in dm:
        other = restored.part(part.pid)
        mine = {
            part.gid(ent): part.residence(ent) for ent in part.remotes
            if ent.dim == 0
        }
        theirs = {
            other.gid(ent): other.residence(ent) for ent in other.remotes
            if ent.dim == 0
        }
        assert mine == theirs


def test_roundtrip_3d(tmp_path):
    mesh = box_tet(2)
    dm = distribute(mesh, strips(mesh, 2, axis=2))
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())


def test_roundtrip_classification(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 2))
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    for part in restored:
        for v in part.mesh.entities(0):
            assert part.mesh.classification(v) is not None
        for e in part.mesh.entities(1):
            assert part.mesh.classification(e) is not None


def test_roundtrip_without_model(tmp_path):
    mesh = rect_tri(2)
    dm = distribute(mesh, strips(mesh, 2))
    restored, _ = load(save(dm, tmp_path / "c"))
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())


def test_roundtrip_with_empty_part(tmp_path):
    mesh = rect_tri(2)
    dm = distribute(mesh, [0] * mesh.count(2), nparts=3)
    path = save(dm, tmp_path / "c")
    restored, _ = load(path, model=mesh.model)
    restored.verify()
    assert restored.part(1).mesh.count(2) == 0
    assert restored.part(2).mesh.count(2) == 0
    # More parts than elements: the surplus parts load empty.
    wide, _ = load(path, model=mesh.model, nparts=mesh.count(2) + 1)
    wide.verify()
    assert wide.part(wide.nparts - 1).mesh.count(2) == 0


def test_restored_mesh_is_operational(tmp_path):
    """Migration works on a reloaded checkpoint (gid allocator restored)."""
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    element = next(restored.part(0).mesh.entities(2))
    migrate(restored, {0: {element: 1}})
    restored.verify()
    assert restored.entity_counts()[:, 2].sum() == mesh.count(2)


def test_checkpoint_after_adaptation(tmp_path):
    from repro.field import UniformSize
    from repro.partition import refine_distributed

    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 3))
    refine_distributed(dm, UniformSize(0.15))
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), dm.entity_counts())


# -- tags, fields, ghosts -----------------------------------------------------


def test_roundtrip_tags(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 2))
    for part in dm:
        vtag = part.mesh.tag("vlabel")
        for v in part.mesh.entities(0):
            vtag.set(v, int(part.gid(v)) * 10)
        etag = part.mesh.tag("region")
        for e in part.mesh.entities(2):
            etag.set(e, f"r{part.gid(e) % 3}")
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    for part in restored:
        vtag = part.mesh.tags.find("vlabel")
        assert vtag is not None
        for v in part.mesh.entities(0):
            assert vtag.get(v) == int(part.gid(v)) * 10
        etag = part.mesh.tags.find("region")
        assert etag is not None
        for e in part.mesh.entities(2):
            assert etag.get(e) == f"r{part.gid(e) % 3}"


def test_roundtrip_fields(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 3))
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: x[0] + 2.0 * x[1])
    path = save(dm, tmp_path / "c", fields=[df])
    manifest = json.loads((epoch_dir(path) / "manifest.json").read_text())
    assert manifest["format"] == "repro.store/1"
    restored, fields = load(path, model=mesh.model)
    assert set(fields) == {"u"}
    ref = fields["u"]
    for part in restored:
        f = ref.fields[part.pid]
        for v in part.mesh.entities(0):
            x = part.mesh.coords(v)
            assert f.get(v) == pytest.approx(x[0] + 2.0 * x[1])


def test_all_entities_have_gids_after_restore(tmp_path):
    """The all-entities-carry-gids invariant survives the round-trip."""
    mesh = box_tet(2)
    dm = distribute(mesh, strips(mesh, 2, axis=2))
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    for part in restored:
        for dim in range(4):
            for ent in part.mesh.entities(dim):
                assert part.has_gid(ent), (part.pid, ent)
    # Shared entities carry the same gid on every holder.
    for part in restored:
        for ent, copies in part.remotes.items():
            for other_pid, other_ent in copies.items():
                other = restored.part(other_pid)
                assert other.gid(other_ent) == part.gid(ent)


def test_ghosted_mesh_roundtrip_excludes_ghosts(tmp_path):
    from repro.partition import ghost_layer

    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 3))
    pre_ghost = dm.entity_counts().copy()
    ghost_layer(dm)
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model)
    restored.verify()
    # Ghosts are runtime state: the snapshot holds only real entities.
    assert not any(part.ghosts for part in restored)
    assert np.array_equal(restored.entity_counts(), pre_ghost)
    # ...and ghosting is re-appliable on the restored mesh.
    ghost_layer(restored)
    restored.verify()
    assert np.array_equal(restored.entity_counts(), pre_ghost)


# -- restore at a different part count ----------------------------------------


@pytest.mark.parametrize("target", [4, 16])
def test_restore_8_parts_at_other_counts(tmp_path, target):
    """Save at 8 parts, restart at 4 and 16 (the DMPlex property)."""
    mesh = rect_tri(6)
    dm = distribute(mesh, strips(mesh, 8))
    restored, _ = load(
        save(dm, tmp_path / "c"), model=mesh.model, nparts=target
    )
    restored.verify()
    assert restored.nparts == target
    for dim in range(3):
        assert restored.total_owned(dim) == dm.total_owned(dim)
    assert all(part.mesh.count(2) > 0 for part in restored)


def test_restore_other_count_keeps_tags_and_fields(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    for part in dm:
        tag = part.mesh.tag("mark")
        for e in part.mesh.entities(2):
            tag.set(e, int(part.gid(e)))
    df = DistributedField(dm, "u")
    df.set_from_coords(lambda x: 5.0 * x[0])
    restored, fields = load(
        save(dm, tmp_path / "c", fields=[df]), model=mesh.model, nparts=2
    )
    restored.verify()
    for part in restored:
        tag = part.mesh.tags.find("mark")
        for e in part.mesh.entities(2):
            assert tag.get(e) == int(part.gid(e))
        f = fields["u"].fields[part.pid]
        for v in part.mesh.entities(0):
            assert f.get(v) == pytest.approx(5.0 * part.mesh.coords(v)[0])


def test_restored_regrouped_mesh_is_operational(tmp_path):
    mesh = rect_tri(4)
    dm = distribute(mesh, strips(mesh, 4))
    restored, _ = load(save(dm, tmp_path / "c"), model=mesh.model, nparts=2)
    element = next(restored.part(0).mesh.entities(2))
    migrate(restored, {0: {element: 1}})
    restored.verify()
    assert restored.entity_counts()[:, 2].sum() == mesh.count(2)


# -- integrity: typed corruption errors ---------------------------------------


def make_checkpoint(tmp_path):
    mesh = rect_tri(3)
    dm = distribute(mesh, strips(mesh, 2))
    return save(dm, tmp_path / "c")


def first_chunk(path):
    return sorted(epoch_dir(path).glob("*.bin"))[0]


def test_missing_manifest_is_typed(tmp_path):
    path = make_checkpoint(tmp_path)
    (epoch_dir(path) / "manifest.json").unlink()
    with pytest.raises(CorruptCheckpointError, match="manifest"):
        load(path, epoch=0)


def test_unparseable_manifest_is_typed(tmp_path):
    path = make_checkpoint(tmp_path)
    (epoch_dir(path) / "manifest.json").write_text("{nope")
    with pytest.raises(CorruptCheckpointError):
        load(path, epoch=0)


def test_unsupported_format_is_typed(tmp_path):
    path = make_checkpoint(tmp_path)
    manifest_path = epoch_dir(path) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = "repro.store/99"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptCheckpointError, match="format"):
        load(path, epoch=0)


def test_tampered_part_file_fails_hash_validation(tmp_path):
    path = make_checkpoint(tmp_path)
    chunk = first_chunk(path)
    data = bytearray(chunk.read_bytes())
    data[len(data) // 2] ^= 0xFF
    chunk.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpointError, match="sha256"):
        load(path)
    # A chunk rewritten outside the closed format — the original records
    # as one tag-255 (pickle) record — is rejected even when the manifest's
    # SHA-256 is updated to match it.
    path = make_checkpoint(tmp_path / "resigned")
    chunk = first_chunk(path)
    raw = pickle.dumps(codec.loads(chunk.read_bytes()))
    body = bytearray([255])
    codec._w_uint(body, len(raw))
    hostile = codec._frame(codec.KIND_VALUE, bytes(body) + raw)
    chunk.write_bytes(hostile)
    manifest_path = epoch_dir(path) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entries in manifest["sections"].values():
        for entry in entries:
            if entry["file"] == chunk.name:
                entry["sha256"] = hashlib.sha256(hostile).hexdigest()
                entry["bytes"] = len(hostile)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptSnapshotError, match="undecodable"):
        load(path)


def test_truncated_part_file_is_typed_not_badzipfile(tmp_path):
    path = make_checkpoint(tmp_path)
    chunk = first_chunk(path)
    chunk.write_bytes(chunk.read_bytes()[:20])
    with pytest.raises(CorruptCheckpointError):
        load(path)


def test_missing_part_file_is_typed(tmp_path):
    path = make_checkpoint(tmp_path)
    first_chunk(path).unlink()
    with pytest.raises(CorruptCheckpointError, match="missing"):
        load(path)
