"""The ``repro.store/1`` on-disk snapshot format: canonical, chunked, hashed.

Hapla et al. (arXiv 2004.08729) make parallel mesh I/O scale by writing one
*canonical* on-disk layout — independent of the number of writing ranks —
that any number of reading ranks can consume in disjoint chunks.  This
module is that layout for a :class:`~repro.partition.dmesh.DistributedMesh`:

* **canonical records** — owned entities only, identified by global ids
  (vertices, elements) or sorted vertex-gid keys (tags, fields), sorted by
  that identity; two distributions of the same mesh at *any* part counts
  serialize to byte-identical records;
* **fixed-size chunks** — each section's record list is sharded into
  ``chunk_records``-sized chunks, one CRC-validated
  :mod:`repro.parallel.codec` frame per chunk file, so parallel readers
  deal chunks, not parts;
* **SHA-256 chunk manifest** — ``manifest.json`` names every chunk with
  its hash, record count and byte size; any integrity violation surfaces
  as a typed :class:`CorruptSnapshotError` naming the offending file and
  the full expected-vs-actual digests.

An epoch directory is self-describing: its manifest carries the format id,
``kind`` (``"full"`` or ``"delta"``), the parent epoch index for deltas,
the removal lists a delta applies, the gid allocation floor, and an
optional ``extra`` object (the checkpoint manager's step number, ghost
configuration and element-to-part runs), which the manifest reader
validates too.  See
:mod:`repro.store.snapshot` for the store that writes chains of epochs and
loads them in parallel at any part count.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mesh.entity import Ent
from ..parallel import codec
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from ..partition.ghosting import Overlap
from ..partition.migration import entity_key

__all__ = [
    "CorruptCheckpointError",
    "FORMAT",
    "MANIFEST",
    "DEFAULT_CHUNK_RECORDS",
    "CorruptSnapshotError",
    "SnapshotState",
    "state_from_dmesh",
    "diff_states",
    "apply_delta",
    "write_epoch",
    "read_epoch_manifest",
    "load_chunk",
    "epoch_sections",
    "owned_gid_set",
    "element_parts",
    "field_checksum",
]

#: Current snapshot format id, stored in every epoch manifest.
FORMAT = "repro.store/1"
MANIFEST = "manifest.json"
#: Default records per chunk; small enough that modest meshes shard into
#: several chunks (parallel readers need more chunks than ranks).
DEFAULT_CHUNK_RECORDS = 256

#: Section order is fixed; fields get synthetic ``field<i>`` section names
#: (field names are arbitrary strings, unsafe as file names).
_FIXED_SECTIONS = ("verts", "elems", "tags")


class CorruptCheckpointError(RuntimeError):
    """A checkpoint failed integrity validation (hash, schema, or parse)."""


class CorruptSnapshotError(CorruptCheckpointError):
    """A ``repro.store/1`` epoch failed integrity validation.

    Subclasses :class:`CorruptCheckpointError`, the type the checkpoint
    manager's validate/skip/fallback machinery catches.
    """


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp file, fsync, rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalize_ghost_config(config: Any) -> Dict[str, Any]:
    """Canonical ``{"overlap": <overlap dict>, "tags": [names...]}`` form.

    Accepts an :class:`~repro.partition.ghosting.Overlap` or a dict
    ``{"overlap": Overlap | overlap-dict, "tags": [...]}`` (both keys
    optional; the default overlap is ``Overlap()``); raises
    ``TypeError``/``ValueError`` on anything else, including an overlap
    the :class:`~repro.partition.ghosting.Overlap` constructor rejects.
    """
    if isinstance(config, Overlap):
        return {"overlap": config.to_dict(), "tags": []}
    if not isinstance(config, dict):
        raise TypeError(
            f"ghost_config must be an Overlap or a dict, "
            f"got {type(config).__name__}"
        )
    unknown = set(config) - {"overlap", "tags"}
    if unknown:
        raise ValueError(f"unexpected ghost_config keys: {sorted(unknown)}")
    overlap = Overlap.coerce(config.get("overlap", Overlap()))
    return {"overlap": overlap.to_dict(), "tags": list(config.get("tags", ()))}


# ---------------------------------------------------------------------------
# canonical state
# ---------------------------------------------------------------------------


@dataclass
class SnapshotState:
    """The part-count-agnostic content of one snapshot epoch.

    ``verts`` maps vertex gid -> ``((x, y, z), (class_dim, class_tag))``;
    ``elems`` maps element gid -> bounding vertex gids in connectivity
    order; ``tags`` maps ``(name, dim, entity key)`` -> value; ``fields``
    maps field name -> ``{entity key: value array}``.  Ghost copies never
    appear (they are reconstructible runtime state), and shared entities
    appear exactly once.
    """

    element_dim: int = 2
    etype: int = -1
    gid_next: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    verts: Dict[int, Tuple[Tuple[float, float, float], Tuple[int, int]]] = (
        field(default_factory=dict)
    )
    elems: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    tags: Dict[Tuple[str, int, Tuple[int, ...]], Any] = field(
        default_factory=dict
    )
    fields: Dict[str, Dict[Tuple[int, ...], np.ndarray]] = field(
        default_factory=dict
    )
    #: field name -> (entity_dim, shape tuple)
    field_meta: Dict[str, Tuple[int, Tuple[int, ...]]] = field(
        default_factory=dict
    )

    def record_count(self) -> int:
        return (
            len(self.verts)
            + len(self.elems)
            + len(self.tags)
            + sum(len(bucket) for bucket in self.fields.values())
        )


def state_from_dmesh(
    dmesh: DistributedMesh, fields: Sequence[DistributedField] = ()
) -> SnapshotState:
    """Extract the canonical snapshot state of a distribution.

    Iterating parts in pid order and keeping the first holder of each
    global id makes the result deterministic; because every record is keyed
    by global identity and carries no part-local data, the same mesh
    distributed at 2 or 8 parts extracts to the *same* state — which is
    what makes differential epochs insensitive to migration.
    """
    dim = dmesh.element_dim()
    state = SnapshotState(element_dim=dim, gid_next=list(dmesh._gid_next))
    for part in dmesh:
        mesh = part.mesh
        core = mesh.core

        # Elements: one gid gather for the connectivity columns per part.
        ids = core.live_ids(dim)
        if len(ids):
            ghost_ids = sorted(g.idx for g in part.ghosts if g.dim == dim)
            if ghost_ids:
                ids = ids[~np.isin(ids, np.asarray(ghost_ids, dtype=ids.dtype))]
        if len(ids):
            etypes = np.unique(core.etype[dim][ids])
            for etype in etypes.tolist():
                if state.etype < 0:
                    state.etype = etype
                elif state.etype != etype:
                    raise ValueError(
                        "repro.store snapshots support single-element-type "
                        f"meshes, found both {state.etype} and {etype}"
                    )
            egids = part.gids_of(dim, ids)
            vert_gids = part.gid_array(0)[core.verts_matrix(dim, ids)]
            if (egids < 0).any() or (vert_gids < 0).any():
                missing = ids[egids < 0] if (egids < 0).any() else ids
                raise KeyError(
                    f"part {part.pid}: M{dim}_{int(missing[0])} has no global id"
                )
            elems = state.elems
            for egid, row in zip(egids.tolist(), vert_gids.tolist()):
                if egid not in elems:
                    elems[egid] = tuple(row)

        # Vertices: coordinates and classification, batch-gathered.
        vids = core.live_ids(0)
        if len(vids):
            ghost_ids = sorted(g.idx for g in part.ghosts if g.dim == 0)
            if ghost_ids:
                vids = vids[
                    ~np.isin(vids, np.asarray(ghost_ids, dtype=vids.dtype))
                ]
        if len(vids):
            vgids = part.gids_of(0, vids)
            if (vgids < 0).any():
                raise KeyError(
                    f"part {part.pid}: M0_{int(vids[vgids < 0][0])} "
                    "has no global id"
                )
            xyz_rows = mesh._coords[vids].tolist()
            gclass = mesh._gclass[0]
            verts = state.verts
            for idx, vgid, xyz in zip(vids.tolist(), vgids.tolist(), xyz_rows):
                if vgid not in verts:
                    cls = gclass.get(idx)
                    verts[vgid] = (
                        (float(xyz[0]), float(xyz[1]), float(xyz[2])),
                        (cls.dim, cls.tag) if cls is not None else (-1, -1),
                    )
        for name in part.mesh.tags.names():
            tag = part.mesh.tags.find(name)
            for ent, value in tag.items():
                if ent in part.ghosts or not part.mesh.has(ent):
                    continue
                state.tags.setdefault(
                    (name, ent.dim, entity_key(part, ent)), value
                )
    for dfield in fields:
        bucket = state.fields.setdefault(dfield.name, {})
        shape = next(iter(dfield.fields.values())).shape
        state.field_meta[dfield.name] = (dfield.entity_dim, tuple(shape))
        for part in dmesh:
            local = dfield.on(part.pid)
            for ent, value in local.items():
                # Migration deletes entities out from under runtime field
                # stores; stale handles have no gid and are not state.
                if (
                    ent in part.ghosts
                    or not part.mesh.has(ent)
                    or not part.has_gid(ent)
                ):
                    continue
                bucket.setdefault(entity_key(part, ent), np.asarray(value))
    return state


def _same_value(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if type(a) is type(b):
        try:
            return bool(a == b)
        except Exception:  # unorderable/ambiguous values: fall through
            pass
    return codec.dumps(a) == codec.dumps(b)


def diff_states(
    parent: SnapshotState, current: SnapshotState
) -> Tuple[SnapshotState, Dict[str, Any]]:
    """``(upserts, removed)`` turning ``parent`` into ``current``.

    ``upserts`` is a sparse :class:`SnapshotState` holding only new or
    changed records; ``removed`` is the manifest-shaped removal dict
    (vertex gids, element gids, tag triples, field keys per name).  The
    diff is content-based, so it captures exactly the entities adaptation
    created/destroyed and the fields dirtied since the parent — a pure
    migration, which moves entities without changing them, leaves the
    vertex/element/tag columns untouched (field values are runtime state:
    one whose only holding part handed the entity away drops out of the
    canonical state, and the diff records that as a removal).
    """
    upserts = SnapshotState(
        element_dim=current.element_dim,
        etype=current.etype,
        gid_next=list(current.gid_next),
        field_meta=dict(current.field_meta),
    )
    removed: Dict[str, Any] = {
        "verts": sorted(set(parent.verts) - set(current.verts)),
        "elems": sorted(set(parent.elems) - set(current.elems)),
        "tags": sorted(
            [name, dim, list(key)]
            for (name, dim, key) in set(parent.tags) - set(current.tags)
        ),
        "fields": {
            name: keys
            for name in sorted(set(parent.fields) | set(current.fields))
            if (keys := sorted(
                list(key)
                for key in set(parent.fields.get(name, {}))
                - set(current.fields.get(name, {}))
            ))
        },
    }
    for gid, rec in current.verts.items():
        old = parent.verts.get(gid)
        if old is None or old != rec:
            upserts.verts[gid] = rec
    for gid, row in current.elems.items():
        old = parent.elems.get(gid)
        if old is None or old != row:
            upserts.elems[gid] = row
    for key, value in current.tags.items():
        old = parent.tags.get(key)
        if key not in parent.tags or not _same_value(old, value):
            upserts.tags[key] = value
    for name, bucket in current.fields.items():
        old_bucket = parent.fields.get(name, {})
        out = upserts.fields.setdefault(name, {})
        for key, value in bucket.items():
            old = old_bucket.get(key)
            if old is None or not _same_value(old, value):
                out[key] = value
    return upserts, removed


def apply_delta(
    state: SnapshotState, upserts: SnapshotState, removed: Dict[str, Any]
) -> None:
    """Apply one delta epoch (removals, then upserts) to ``state`` in place."""
    for gid in removed.get("verts", ()):
        state.verts.pop(int(gid), None)
    for gid in removed.get("elems", ()):
        state.elems.pop(int(gid), None)
    for name, dim, key in removed.get("tags", ()):
        state.tags.pop((name, int(dim), tuple(int(g) for g in key)), None)
    for name, keys in removed.get("fields", {}).items():
        bucket = state.fields.get(name)
        if bucket:
            for key in keys:
                bucket.pop(tuple(int(g) for g in key), None)
    state.element_dim = upserts.element_dim
    state.etype = upserts.etype if upserts.etype >= 0 else state.etype
    state.gid_next = list(upserts.gid_next)
    state.verts.update(upserts.verts)
    state.elems.update(upserts.elems)
    state.tags.update(upserts.tags)
    # Field set follows the delta's meta: dropped fields disappear.
    state.field_meta = dict(upserts.field_meta)
    for name in list(state.fields):
        if name not in state.field_meta:
            del state.fields[name]
    for name, bucket in upserts.fields.items():
        state.fields.setdefault(name, {}).update(bucket)


# ---------------------------------------------------------------------------
# chunked records on disk
# ---------------------------------------------------------------------------


def _section_records(state: SnapshotState) -> Dict[str, List[Any]]:
    """All sections as canonically sorted codec-encodable record lists."""
    sections: Dict[str, List[Any]] = {
        "verts": [
            [gid, list(xyz), cdim, ctag]
            for gid, (xyz, (cdim, ctag)) in sorted(state.verts.items())
        ],
        "elems": [
            [gid, list(row)] for gid, row in sorted(state.elems.items())
        ],
        "tags": [
            [name, dim, list(key), value]
            for (name, dim, key), value in sorted(
                state.tags.items(), key=lambda item: item[0]
            )
        ],
    }
    for i, name in enumerate(sorted(state.field_meta)):
        sections[f"field{i}"] = [
            [list(key), np.asarray(value)]
            for key, value in sorted(
                state.fields.get(name, {}).items(), key=lambda kv: kv[0]
            )
        ]
    return sections


def write_epoch(
    path: Union[str, Path],
    state: SnapshotState,
    *,
    kind: str = "full",
    index: int = 0,
    parent: Optional[int] = None,
    removed: Optional[Dict[str, Any]] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    nparts: int = 1,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write one epoch directory atomically; returns its manifest.

    The directory is staged as ``<path>.tmp`` and renamed into place only
    after every chunk and the manifest are durably written.  All content is
    byte-deterministic: sorted records, fixed chunking, ``sort_keys`` JSON,
    no timestamps.
    """
    path = Path(path)
    staging = path.with_name(path.name + ".tmp")
    if staging.exists():
        import shutil

        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    sections = _section_records(state)
    manifest: Dict[str, Any] = {
        "format": FORMAT,
        "kind": kind,
        "index": int(index),
        "parent": None if parent is None else int(parent),
        "element_dim": int(state.element_dim),
        "etype": int(state.etype),
        "gid_next": [int(g) for g in state.gid_next],
        "nparts": int(nparts),
        "chunk_records": int(chunk_records),
        "fields": [
            {
                "name": name,
                "entity_dim": int(state.field_meta[name][0]),
                "shape": list(state.field_meta[name][1]),
                "section": f"field{i}",
            }
            for i, name in enumerate(sorted(state.field_meta))
        ],
        "sections": {},
        "payload_bytes": 0,
        "records": 0,
    }
    for section in sorted(sections):
        records = sections[section]
        chunks: List[Dict[str, Any]] = []
        for ci in range(0, max(1, len(records)), chunk_records):
            batch = records[ci : ci + chunk_records]
            if not batch and chunks:
                break
            blob = codec.dumps(batch)
            name = f"{section}-{len(chunks):06d}.bin"
            _atomic_write_bytes(staging / name, blob)
            chunks.append(
                {
                    "file": name,
                    "sha256": _sha256(blob),
                    "count": len(batch),
                    "bytes": len(blob),
                }
            )
            manifest["payload_bytes"] += len(blob)
            manifest["records"] += len(batch)
        manifest["sections"][section] = chunks
    if kind == "delta":
        manifest["removed"] = removed or {
            "verts": [],
            "elems": [],
            "tags": [],
            "fields": {},
        }
    if extra:
        manifest["extra"] = extra
    _atomic_write_bytes(
        staging / MANIFEST,
        json.dumps(manifest, indent=1, sort_keys=True).encode(),
    )
    if path.exists():
        import shutil

        shutil.rmtree(path)
    os.replace(staging, path)
    return manifest


def read_epoch_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and schema-check one epoch manifest.

    Raises :class:`CorruptSnapshotError` naming the manifest file on any
    missing file, bad JSON, wrong format id, missing key, or malformed
    ``extra`` (not an object, a non-integer or non-finite ``step``, a
    ``ghost_config`` that :func:`normalize_ghost_config` rejects, or
    ``parts`` runs that are not ``[pid, count]`` pairs within ``nparts``).
    """
    path = Path(path)
    manifest_path = path / MANIFEST
    if not manifest_path.is_file():
        raise CorruptSnapshotError(f"{path}: missing {MANIFEST}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptSnapshotError(
            f"{manifest_path}: unreadable manifest: {exc}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise CorruptSnapshotError(
            f"{manifest_path}: unsupported snapshot format "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r} "
            f"(expected {FORMAT!r})"
        )
    for key in (
        "kind", "index", "element_dim", "etype", "gid_next", "sections",
    ):
        if key not in manifest:
            raise CorruptSnapshotError(
                f"{manifest_path}: manifest misses {key!r}"
            )
    if manifest["kind"] == "delta" and manifest.get("parent") is None:
        raise CorruptSnapshotError(
            f"{manifest_path}: delta epoch names no parent"
        )
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise CorruptSnapshotError(
            f"{manifest_path}: manifest extra is a {type(extra).__name__}, "
            "not an object"
        )
    try:
        int(extra.get("step", -1))
        if extra.get("ghost_config"):
            normalize_ghost_config(extra["ghost_config"])
        if "parts" in extra:
            nparts = int(manifest.get("nparts", 1))
            _check_element_parts(extra["parts"], nparts)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptSnapshotError(
            f"{manifest_path}: malformed manifest extra: {exc}"
        ) from None
    return manifest


def load_chunk(
    path: Union[str, Path], entry: Dict[str, Any]
) -> Tuple[List[Any], int]:
    """Read, hash-validate and decode one chunk; ``(records, bytes read)``.

    Integrity errors name the offending file and quote the full
    expected-vs-actual SHA-256 digests, so a corrupt chunk is directly
    actionable from the exception alone.
    """
    path = Path(path)
    chunk_path = path / entry["file"]
    if not chunk_path.is_file():
        raise CorruptSnapshotError(f"{path}: missing chunk {entry['file']}")
    data = chunk_path.read_bytes()
    actual = _sha256(data)
    if actual != entry["sha256"]:
        raise CorruptSnapshotError(
            f"{chunk_path}: integrity failure: "
            f"sha256 {actual} != manifest {entry['sha256']}"
        )
    try:
        records = codec.loads(data)
    except Exception as exc:
        raise CorruptSnapshotError(
            f"{chunk_path}: undecodable chunk: {exc}"
        ) from None
    if not isinstance(records, list) or len(records) != int(entry["count"]):
        raise CorruptSnapshotError(
            f"{chunk_path}: chunk carries "
            f"{len(records) if isinstance(records, list) else '?'} record(s) "
            f"where the manifest promises {entry['count']}"
        )
    return records, len(data)


def epoch_sections(manifest: Dict[str, Any]) -> List[Tuple[str, int, Dict]]:
    """Flatten one manifest's chunk table as ``(section, ci, entry)`` rows."""
    out: List[Tuple[str, int, Dict]] = []
    for section in sorted(manifest["sections"]):
        for ci, entry in enumerate(manifest["sections"][section]):
            out.append((section, ci, entry))
    return out


def _field_name_of(manifest: Dict[str, Any], section: str) -> Optional[str]:
    for meta in manifest.get("fields", []):
        if meta["section"] == section:
            return meta["name"]
    return None


def state_from_records(
    manifest: Dict[str, Any],
    section_records: Dict[str, List[Any]],
) -> SnapshotState:
    """Rebuild a (possibly sparse) state from decoded section records."""
    state = SnapshotState(
        element_dim=int(manifest["element_dim"]),
        etype=int(manifest["etype"]),
        gid_next=[int(g) for g in manifest["gid_next"]],
    )
    for meta in manifest.get("fields", []):
        state.field_meta[meta["name"]] = (
            int(meta["entity_dim"]),
            tuple(int(s) for s in meta.get("shape", [1])),
        )
    for section, records in section_records.items():
        if section == "verts":
            for gid, xyz, cdim, ctag in records:
                state.verts[int(gid)] = (
                    tuple(float(c) for c in xyz),
                    (int(cdim), int(ctag)),
                )
        elif section == "elems":
            for gid, row in records:
                state.elems[int(gid)] = tuple(int(v) for v in row)
        elif section == "tags":
            for name, dim, key, value in records:
                state.tags[
                    (name, int(dim), tuple(int(g) for g in key))
                ] = value
        else:
            name = _field_name_of(manifest, section)
            if name is None:
                raise CorruptSnapshotError(
                    f"manifest names no field for section {section!r}"
                )
            bucket = state.fields.setdefault(name, {})
            for key, value in records:
                bucket[tuple(int(g) for g in key)] = np.asarray(value)
    return state


# ---------------------------------------------------------------------------
# parity helpers (used by tests, the bench, and the CI snapshot-io gate)
# ---------------------------------------------------------------------------


def owned_gid_set(dmesh: DistributedMesh, dim: int) -> frozenset:
    """The global set of owned (non-ghost) entity gids of one dimension.

    Restores at different part counts must agree on this set exactly —
    it is the partition-independent identity of the mesh.
    """
    out = set()
    for part in dmesh:
        for ent in part.mesh.entities(dim):
            if part.owns(ent) and not part.is_ghost(ent):
                out.add(part.gid(ent))
    return frozenset(out)


def element_parts(dmesh: DistributedMesh) -> List[List[int]]:
    """Owning part of every element as ``[pid, count]`` runs in gid order.

    Recorded as ``extra["parts"]`` of an epoch, it makes a load at the
    saved part count deal each element back to the part that held it
    (see :meth:`~repro.store.snapshot.SnapshotStore.load_at`); the records
    themselves stay part-count-agnostic.
    """
    dim = dmesh.element_dim()
    owner: Dict[int, int] = {}
    for part in dmesh:
        for ent in part.mesh.entities(dim):
            if not part.is_ghost(ent):
                owner.setdefault(part.gid(ent), part.pid)
    runs: List[List[int]] = []
    for gid in sorted(owner):
        if runs and runs[-1][0] == owner[gid]:
            runs[-1][1] += 1
        else:
            runs.append([owner[gid], 1])
    return runs


def _check_element_parts(runs: Any, nparts: int) -> None:
    """Raise ``ValueError`` unless ``runs`` is a valid :func:`element_parts`."""
    if not isinstance(runs, list):
        raise ValueError(f"parts is a {type(runs).__name__}, not a list")
    for run in runs:
        if (
            not isinstance(run, list)
            or len(run) != 2
            or not all(type(x) is int for x in run)
            or not 0 <= run[0] < nparts
            or run[1] < 1
        ):
            raise ValueError(f"bad parts run {run!r} for {nparts} parts")


def field_checksum(dmesh: DistributedMesh, dfield: DistributedField) -> float:
    """Order-independent fsum of a field over owned entities."""
    import math

    values = []
    for part in dmesh:
        local = dfield.on(part.pid)
        for ent in part.mesh.entities(dfield.entity_dim):
            if part.owns(ent) and not part.is_ghost(ent) and local.has(ent):
                values.append(float(np.sum(local.get(ent))))
    return math.fsum(sorted(values))
