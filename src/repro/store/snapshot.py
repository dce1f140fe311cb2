"""`SnapshotStore`: chains of full/delta epochs with parallel load.

The store owns a directory of ``repro.store/1`` epoch directories
(:mod:`repro.store.format`).  Saving extracts the canonical state of a
:class:`~repro.partition.dmesh.DistributedMesh` and writes either a full
epoch or — when a valid parent chain exists — a *differential* epoch
holding only the records that changed since the parent (plus removal
lists).  Chains are bounded (``full_every``) and compactable: rewriting
any epoch as a full snapshot of its materialized chain is deterministic
and in-place, so rotation can drop ancestors without losing restorable
epochs.

Loading is the Hapla et al. (arXiv 2004.08729) parallel read: the target
parts each take a *disjoint contiguous range of chunks* across the whole
chain, decode them locally, and one
:class:`~repro.parallel.sf.StarForest` bcast redistributes every record to
the part that owns it under the target partition — elements dealt back
to their saved parts when the epoch records them (``extra["parts"]``, see
:func:`~repro.store.format.element_parts`) and the part count is
unchanged, otherwise in contiguous sorted-gid blocks; vertices/tags/fields
to the parts whose elements reference them.  Restoring a snapshot written at 4 parts onto
1, 2 or 8 parts yields identical owned-gid sets and field checksums; the
wire traffic is charged to ``sf.*``/``net.*`` counters and the comm
matrix like every other distributed service, plus ``store.*`` counters
for the I/O itself.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gmodel.model import Model, ModelEntity
from ..mesh.build import from_connectivity
from ..mesh.entity import Ent
from ..obs.stats import CommProbe
from ..obs.tracer import Tracer, current as current_tracer, trace_span
from ..parallel.perf import GLOBAL, PerfCounters
from ..parallel.sf import StarForest
from ..parallel.topology import MachineTopology
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from ..partition.migration import entity_key, rebuild_links
from ..partition.part import Part
from .format import (
    DEFAULT_CHUNK_RECORDS,
    FORMAT,
    MANIFEST,
    CorruptSnapshotError,
    SnapshotState,
    apply_delta,
    diff_states,
    epoch_sections,
    load_chunk,
    read_epoch_manifest,
    state_from_dmesh,
    state_from_records,
    write_epoch,
)

__all__ = ["EpochInfo", "SnapshotStore", "StoreStats"]


@dataclass(frozen=True)
class EpochInfo:
    """One on-disk epoch: identity, chain position, and I/O totals."""

    index: int
    kind: str
    parent: Optional[int]
    path: Path
    records: int
    chunks: int
    payload_bytes: int
    step: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "parent": self.parent,
            "records": self.records,
            "chunks": self.chunks,
            "payload_bytes": self.payload_bytes,
            "step": self.step,
        }


@dataclass(frozen=True)
class StoreStats:
    """I/O + communication cost of one store operation (JSON-safe).

    Deliberately wall-time-free, like every report document in this repo:
    identical loads produce byte-identical stats.  Wall times live on the
    ``store.save``/``store.load``/``store.compact`` tracer spans.
    """

    op: str
    epoch: int
    kind: str
    nparts: int
    chain_length: int
    chunks: int
    chunk_bytes: int
    records: int
    messages: int
    wire_bytes: int
    encoded_bytes: int
    supersteps: int
    sf_ops: int
    extra: Dict[str, Any] = dataclass_field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "op": self.op,
            "epoch": self.epoch,
            "kind": self.kind,
            "nparts": self.nparts,
            "chain_length": self.chain_length,
            "chunks": self.chunks,
            "chunk_bytes": self.chunk_bytes,
            "records": self.records,
            "messages": self.messages,
            "wire_bytes": self.wire_bytes,
            "encoded_bytes": self.encoded_bytes,
            "supersteps": self.supersteps,
            "sf_ops": self.sf_ops,
        }
        return out


class SnapshotStore:
    """A directory of chained ``repro.store/1`` epochs (see module doc).

    Parameters
    ----------
    root:
        Directory holding the epochs (created if needed).  Each epoch is a
        subdirectory ``<prefix><index>``.
    prefix:
        Epoch directory name prefix.  The checkpoint manager passes its
        own ``ckpt-`` prefix.
    chunk_records:
        Records per chunk file; the parallelism floor of a load is
        ``total chunks``, so smaller chunks spread reads wider.
    full_every:
        Maximum delta-chain length; once a chain reaches this many epochs
        the next save writes a full snapshot.
    counters / tracer:
        Where ``store.*`` counters and ``store.save``/``store.load``/
        ``store.compact`` spans land (defaults: the global registry and
        the installed tracer).
    """

    def __init__(
        self,
        root: Union[str, Path],
        prefix: str = "epoch-",
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        full_every: int = 8,
        counters: Optional[PerfCounters] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.chunk_records = chunk_records
        self.full_every = full_every
        self.counters = counters if counters is not None else GLOBAL
        self.tracer = tracer if tracer is not None else current_tracer()

    # -- enumeration ---------------------------------------------------------

    def _indexed_dirs(self) -> List[Tuple[int, Path]]:
        """Every ``<prefix><index>`` directory, any format, sorted."""
        out: List[Tuple[int, Path]] = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or not entry.name.startswith(self.prefix):
                continue
            if entry.name.endswith(".tmp"):
                continue
            try:
                out.append((int(entry.name[len(self.prefix):]), entry))
            except ValueError:
                continue
        return out

    def _epoch_path(self, index: int) -> Path:
        return self.root / f"{self.prefix}{index:06d}"

    def next_index(self) -> int:
        """One past the highest index of *any* sibling directory.

        Directories with unreadable manifests count too, so the index
        sequence stays monotone past a corrupt epoch.
        """
        dirs = self._indexed_dirs()
        return dirs[-1][0] + 1 if dirs else 0

    @staticmethod
    def _info(manifest: Dict[str, Any], path: Path) -> EpochInfo:
        return EpochInfo(
            index=int(manifest["index"]),
            kind=manifest["kind"],
            parent=manifest.get("parent"),
            path=path,
            records=int(manifest.get("records", 0)),
            chunks=sum(
                len(chunks) for chunks in manifest["sections"].values()
            ),
            payload_bytes=int(manifest.get("payload_bytes", 0)),
            step=int(manifest.get("extra", {}).get("step", -1)),
        )

    def epochs(self) -> List[EpochInfo]:
        """All store-format epochs with readable manifests, oldest first.

        Directories whose manifests are unreadable or fail validation are
        skipped; :meth:`inspect` reports them.
        """
        infos: List[EpochInfo] = []
        for index, path in self._indexed_dirs():
            try:
                manifest = read_epoch_manifest(path)
            except CorruptSnapshotError:
                continue
            if int(manifest["index"]) != index:
                continue  # directory renamed by hand; not addressable
            infos.append(self._info(manifest, path))
        return infos

    def tip(self) -> Optional[EpochInfo]:
        infos = self.epochs()
        return infos[-1] if infos else None

    # -- chain resolution ----------------------------------------------------

    def _chain(self, index: int) -> List[Tuple[EpochInfo, Dict[str, Any]]]:
        """Manifests from the base full epoch to ``index``, inclusive.

        Raises :class:`CorruptSnapshotError` on a missing epoch, a broken
        parent link, or a cycle.
        """
        chain: List[Tuple[EpochInfo, Dict[str, Any]]] = []
        cursor: Optional[int] = int(index)
        while cursor is not None:
            path = self._epoch_path(cursor)
            manifest = read_epoch_manifest(path)
            chain.append((self._info(manifest, path), manifest))
            if manifest["kind"] == "full":
                cursor = None
            else:
                parent = int(manifest["parent"])
                if parent >= int(manifest["index"]):
                    raise CorruptSnapshotError(
                        f"{path}: delta chain does not descend "
                        f"({manifest['index']} -> {parent})"
                    )
                cursor = parent
        chain.reverse()
        return chain

    def materialize(self, index: Optional[int] = None) -> SnapshotState:
        """The full state at epoch ``index`` (default: the tip), read serially."""
        info = self.tip() if index is None else None
        if index is None:
            if info is None:
                raise CorruptSnapshotError(f"{self.root}: store is empty")
            index = info.index
        chain = self._chain(int(index))
        state: Optional[SnapshotState] = None
        for einfo, manifest in chain:
            records: Dict[str, List[Any]] = {}
            for section, _ci, entry in epoch_sections(manifest):
                chunk, nbytes = load_chunk(einfo.path, entry)
                records.setdefault(section, []).extend(chunk)
                self.counters.add("store.chunks.read")
                self.counters.add("store.bytes.read", nbytes)
            epoch_state = state_from_records(manifest, records)
            if state is None or manifest["kind"] == "full":
                state = epoch_state
            else:
                apply_delta(state, epoch_state, manifest.get("removed", {}))
        assert state is not None
        return state

    # -- writing -------------------------------------------------------------

    def save(
        self,
        dmesh: DistributedMesh,
        fields: Sequence[DistributedField] = (),
        extra: Optional[Dict[str, Any]] = None,
        full: bool = False,
        index: Optional[int] = None,
    ) -> EpochInfo:
        """Write one epoch; differential against the tip when possible.

        A delta is written when the store has a tip with an intact chain
        shorter than ``full_every``; otherwise (or with ``full=True``) a
        full epoch.  The epoch directory appears atomically.
        """
        with trace_span(self.tracer, "store.save", store=str(self.root)):
            state = state_from_dmesh(dmesh, fields)
            parent: Optional[EpochInfo] = None
            parent_state: Optional[SnapshotState] = None
            if not full:
                tip = self.tip()
                if tip is not None:
                    try:
                        if len(self._chain(tip.index)) < self.full_every:
                            parent_state = self.materialize(tip.index)
                            parent = tip
                    except CorruptSnapshotError:
                        parent = None
                        parent_state = None
            idx = self.next_index() if index is None else int(index)
            path = self._epoch_path(idx)
            if parent_state is None:
                manifest = write_epoch(
                    path,
                    state,
                    kind="full",
                    index=idx,
                    chunk_records=self.chunk_records,
                    nparts=dmesh.nparts,
                    extra=extra,
                )
                self.counters.add("store.epochs.full")
            else:
                upserts, removed = diff_states(parent_state, state)
                manifest = write_epoch(
                    path,
                    upserts,
                    kind="delta",
                    index=idx,
                    parent=parent.index,
                    removed=removed,
                    chunk_records=self.chunk_records,
                    nparts=dmesh.nparts,
                    extra=extra,
                )
                self.counters.add("store.epochs.delta")
            info = self._info(manifest, path)
            self.counters.add("store.chunks.written", info.chunks)
            self.counters.add("store.bytes.written", info.payload_bytes)
            self.counters.add("store.records.written", info.records)
            return info

    def compact(self, index: Optional[int] = None) -> EpochInfo:
        """Rewrite epoch ``index`` (default: tip) as a full snapshot, in place.

        Deterministic: compacting is exactly "materialize the chain, write
        it as a full epoch under the same index and extra metadata", so
        two stores holding the same chain compact to byte-identical
        epochs.  Afterwards the epoch's ancestors are prunable.
        """
        with trace_span(self.tracer, "store.compact", store=str(self.root)):
            tip = self.tip()
            if index is None:
                if tip is None:
                    raise CorruptSnapshotError(f"{self.root}: store is empty")
                index = tip.index
            path = self._epoch_path(int(index))
            manifest = read_epoch_manifest(path)
            if manifest["kind"] == "full":
                return self._info(manifest, path)
            state = self.materialize(int(index))
            new_manifest = write_epoch(
                path,
                state,
                kind="full",
                index=int(index),
                chunk_records=self.chunk_records,
                nparts=int(manifest.get("nparts", 1)),
                extra=manifest.get("extra"),
            )
            self.counters.add("store.compactions")
            return self._info(new_manifest, path)

    def prune(self, keep: int) -> List[int]:
        """Delete all but the newest ``keep`` epochs; returns pruned indices.

        The oldest surviving epoch is compacted first when it is a delta,
        so no survivor's chain dangles.  ``keep <= 0`` prunes nothing (the
        unlimited sentinel, matching the checkpoint manager).
        """
        if keep <= 0:
            return []
        infos = self.epochs()
        cut = infos[: max(0, len(infos) - keep)]
        if not cut:
            return []
        survivors = infos[len(cut):]
        if survivors and survivors[0].kind == "delta":
            self.compact(survivors[0].index)
        for info in cut:
            shutil.rmtree(info.path, ignore_errors=True)
        return [info.index for info in cut]

    def inspect(self) -> Dict[str, Any]:
        """JSON-safe summary: epochs, chunk/byte totals, delta ratios."""
        epochs = [info.to_dict() for info in self.epochs()]
        full_bytes = [e["payload_bytes"] for e in epochs if e["kind"] == "full"]
        base = full_bytes[-1] if full_bytes else 0
        for e in epochs:
            e["delta_ratio"] = (
                round(e["payload_bytes"] / base, 6)
                if base and e["kind"] == "delta"
                else None
            )
        unreadable = []
        known = {e["index"] for e in epochs}
        for index, path in self._indexed_dirs():
            if index in known:
                continue
            try:
                read_epoch_manifest(path)
            except CorruptSnapshotError as exc:
                unreadable.append({"path": path.name, "error": str(exc)})
        return {
            "format": FORMAT,
            "root": str(self.root),
            "epochs": epochs,
            "total_payload_bytes": sum(e["payload_bytes"] for e in epochs),
            "total_chunks": sum(e["chunks"] for e in epochs),
            "other_dirs": unreadable,
        }

    # -- parallel load -------------------------------------------------------

    def load_at(
        self,
        nparts: Optional[int] = None,
        epoch: Optional[int] = None,
        model: Optional[Model] = None,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        tracer: Optional[Tracer] = None,
        sanitize: Optional[bool] = None,
    ) -> Tuple[DistributedMesh, Dict[str, DistributedField], StoreStats]:
        """Parallel restore at any part count; ``(dmesh, fields, stats)``.

        Each target part reads a disjoint contiguous range of the chain's
        chunks and decodes them locally; a single star-forest bcast then
        moves every live record to the parts that need it under the target
        partition (elements to their saved parts when the epoch records
        ``extra["parts"]`` and ``nparts`` is the saved count, else in
        contiguous sorted-gid blocks; vertices and tag/field records to
        every part whose elements reference them).
        The result carries rebuilt remote-copy links and re-derived
        intermediate-entity gids — structurally verified equal to a fresh
        distribution of the same mesh.
        """
        tip = self.tip()
        target_index = tip.index if (epoch is None and tip) else epoch
        if target_index is None:
            raise CorruptSnapshotError(f"{self.root}: store is empty")
        chain = self._chain(int(target_index))
        top_manifest = chain[-1][1]
        nparts = (
            int(top_manifest.get("nparts", 1)) if nparts is None
            else int(nparts)
        )
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        use_counters = counters if counters is not None else self.counters
        use_tracer = tracer if tracer is not None else self.tracer
        dmesh = DistributedMesh(
            nparts,
            model=model,
            topology=topology,
            counters=use_counters,
            sanitize=sanitize,
            tracer=use_tracer,
        )
        probe = CommProbe(use_counters)
        before = {
            name: use_counters.get(name)
            for name in (
                "store.chunks.read", "store.bytes.read", "sf.records"
            )
        }
        with trace_span(
            dmesh.tracer, "store.load", store=str(self.root),
            epoch=int(target_index), nparts=nparts,
        ):
            fields = self._load_into(dmesh, chain)

        def delta(name: str) -> int:
            return use_counters.get(name) - before[name]

        stats = StoreStats(
            op="load",
            epoch=int(target_index),
            kind=top_manifest["kind"],
            nparts=nparts,
            chain_length=len(chain),
            chunks=delta("store.chunks.read"),
            chunk_bytes=delta("store.bytes.read"),
            records=delta("sf.records"),
            messages=probe.messages(),
            wire_bytes=probe.wire_bytes(),
            encoded_bytes=probe.encoded_bytes(),
            supersteps=probe.supersteps(),
            sf_ops=1,
            extra=dict(top_manifest.get("extra", {})),
        )
        return dmesh, fields, stats

    def _load_into(
        self,
        dmesh: DistributedMesh,
        chain: List[Tuple[EpochInfo, Dict[str, Any]]],
    ) -> Dict[str, DistributedField]:
        """Chunk-parallel read + one redistribution bcast + part build."""
        nparts = dmesh.nparts
        counters = dmesh.counters
        top_manifest = chain[-1][1]
        etype = int(top_manifest["etype"])

        # Phase 1 — deal the chain's chunks to the readers (= target
        # parts) in disjoint contiguous ranges, and decode each range
        # where it landed.  In this simulated runtime all readers share
        # the process, but the assignment is the on-disk parallelism:
        # reader r touches only its own chunk files.
        chunk_list: List[Tuple[int, str, int, Dict[str, Any], Path]] = []
        for seq, (einfo, manifest) in enumerate(chain):
            for section, ci, entry in epoch_sections(manifest):
                chunk_list.append((seq, section, ci, entry, einfo.path))
        total_chunks = len(chunk_list)
        reader_of: Dict[Tuple[int, str, int], int] = {}
        chunk_records: Dict[Tuple[int, str, int], List[Any]] = {}
        for j, (seq, section, ci, entry, path) in enumerate(chunk_list):
            reader = j * nparts // total_chunks if total_chunks else 0
            records, nbytes = load_chunk(path, entry)
            reader_of[(seq, section, ci)] = reader
            chunk_records[(seq, section, ci)] = records
            counters.add("store.chunks.read")
            counters.add("store.bytes.read", nbytes)

        # Phase 2 — fold the chain front-to-back into "live" record
        # locations: identity -> (reader pid, chunk handle).  Removal
        # lists drop earlier entries; later upserts shadow earlier ones.
        # This is pure control-plane metadata (ids, not payloads).
        live: Dict[str, Dict[Any, Tuple[int, Tuple[int, str, int, int]]]] = {
            "v": {}, "e": {}, "t": {}, "f": {},
        }
        field_names: Dict[Tuple[int, str], str] = {}
        for seq, (einfo, manifest) in enumerate(chain):
            for meta in manifest.get("fields", []):
                field_names[(seq, meta["section"])] = meta["name"]
            removed = manifest.get("removed", {})
            for gid in removed.get("verts", ()):
                live["v"].pop(int(gid), None)
            for gid in removed.get("elems", ()):
                live["e"].pop(int(gid), None)
            for name, dim, key in removed.get("tags", ()):
                live["t"].pop(
                    (name, int(dim), tuple(int(g) for g in key)), None
                )
            for name, keys in removed.get("fields", {}).items():
                for key in keys:
                    live["f"].pop(
                        (name, tuple(int(g) for g in key)), None
                    )
            # A delta's field meta is authoritative: dropped fields lose
            # every record, whatever epoch it came from.
            if manifest["kind"] == "delta":
                alive = {
                    meta["name"] for meta in manifest.get("fields", [])
                }
                for fkey in [k for k in live["f"] if k[0] not in alive]:
                    del live["f"][fkey]
            for section, ci, entry in epoch_sections(manifest):
                rpid = reader_of[(seq, section, ci)]
                records = chunk_records[(seq, section, ci)]
                for row, rec in enumerate(records):
                    loc = (rpid, (seq, section, ci, row))
                    if section == "verts":
                        live["v"][int(rec[0])] = loc
                    elif section == "elems":
                        live["e"][int(rec[0])] = loc
                    elif section == "tags":
                        live["t"][
                            (rec[0], int(rec[1]),
                             tuple(int(g) for g in rec[2]))
                        ] = loc
                    else:
                        name = field_names[(seq, section)]
                        live["f"][
                            (name, tuple(int(g) for g in rec[0]))
                        ] = loc

        # Phase 3 — target assignment.  Elements: back to the parts that
        # held them when the epoch records ``extra["parts"]`` and the part
        # count matches, else contiguous sorted-gid blocks (element j of
        # M -> part j*P//M).  Vertices follow the elements referencing
        # them; tag/field records go to every part holding all their key
        # vertices (supersets cost a few duplicate deliveries, dropped at
        # apply time by the key index).
        ordered = sorted(live["e"])
        total = len(ordered)
        saved_parts = top_manifest.get("extra", {}).get("parts")
        saved_nparts = int(top_manifest.get("nparts", 1))
        if saved_parts is not None and nparts == saved_nparts:
            owners = [pid for pid, count in saved_parts for _ in range(count)]
            if len(owners) != total:
                raise CorruptSnapshotError(
                    f"{chain[-1][0].path}: parts cover {len(owners)} "
                    f"elements, the chain holds {total}"
                )
            elem_target = dict(zip(ordered, owners))
        else:
            elem_target = {
                egid: j * nparts // total for j, egid in enumerate(ordered)
            }
        part_vgids: List[set] = [set() for _ in range(nparts)]
        vert_targets: Dict[int, set] = {}
        for egid, (rpid, handle) in live["e"].items():
            seq, section, ci, row = handle
            pid = elem_target[egid]
            for vgid in chunk_records[(seq, section, ci)][row][1]:
                vgid = int(vgid)
                part_vgids[pid].add(vgid)
                vert_targets.setdefault(vgid, set()).add(pid)

        forest = StarForest(dmesh, name="store.load")
        for egid, (rpid, handle) in live["e"].items():
            forest.add_leaf(
                elem_target[egid], ("e", egid), rpid, handle
            )
        for vgid, (rpid, handle) in live["v"].items():
            for pid in vert_targets.get(vgid, ()):
                forest.add_leaf(pid, ("v", vgid), rpid, handle)
        for (name, dim, key), (rpid, handle) in live["t"].items():
            for pid in range(nparts):
                if all(g in part_vgids[pid] for g in key):
                    forest.add_leaf(
                        pid, ("t", name, dim, key), rpid, handle
                    )
        for (name, key), (rpid, handle) in live["f"].items():
            for pid in range(nparts):
                if all(g in part_vgids[pid] for g in key):
                    forest.add_leaf(
                        pid, ("f", name, key), rpid, handle
                    )

        # Phase 4 — one bcast redistributes every record.  root_data
        # reads the record out of the owning reader's decoded chunk.
        staged: List[Dict[str, Any]] = [
            {"e": {}, "v": {}, "t": [], "f": {}} for _ in range(nparts)
        ]

        def root_data(rpid: int, handle: Any) -> Any:
            seq, section, ci, row = handle
            return chunk_records[(seq, section, ci)][row]

        def leaf_set(lpid: int, lh: Any, rec: Any) -> None:
            st = staged[lpid]
            if lh[0] == "e":
                st["e"][lh[1]] = tuple(int(v) for v in rec[1])
            elif lh[0] == "v":
                st["v"][lh[1]] = (
                    tuple(float(c) for c in rec[1]),
                    (int(rec[2]), int(rec[3])),
                )
            elif lh[0] == "t":
                st["t"].append((lh[1], lh[2], lh[3], rec[3]))
            else:
                st["f"].setdefault(lh[1], {})[lh[2]] = np.asarray(rec[1])

        forest.bcast(root_data, leaf_set)
        counters.add("store.records.loaded", forest.nleaves)

        # Phase 5 — build each part's serial mesh from its staged block,
        # then re-derive intermediate gids and rebuild remote-copy links
        # (the migration rendezvous).
        dim = int(top_manifest["element_dim"])
        dmesh._gid_next = [int(g) for g in top_manifest["gid_next"]]
        model = dmesh.model
        for pid in range(nparts):
            st = staged[pid]
            block = sorted(st["e"])
            if not block:
                continue
            if etype < 0:
                raise CorruptSnapshotError(
                    f"{self.root}: elements present but no element type "
                    "recorded"
                )
            local_of: Dict[int, int] = {}
            conn_rows: List[List[int]] = []
            for egid in block:
                row = []
                for vgid in st["e"][egid]:
                    local = local_of.get(vgid)
                    if local is None:
                        local = local_of[vgid] = len(local_of)
                    row.append(local)
                conn_rows.append(row)
            vgid_list = list(local_of)
            coords = np.asarray([st["v"][g][0] for g in vgid_list])
            mesh = from_connectivity(
                coords, np.asarray(conn_rows, dtype=np.int64), etype
            )
            mesh.model = model
            part = dmesh.part(pid)
            part.mesh = mesh
            for local, vgid in enumerate(vgid_list):
                part.set_gid(Ent(0, local), vgid)
            for local, egid in enumerate(block):
                part.set_gid(Ent(dim, local), egid)
            if model is not None:
                for local, vgid in enumerate(vgid_list):
                    gdim, gtag = st["v"][vgid][1]
                    if gdim >= 0:
                        mesh.set_classification(
                            Ent(0, local), ModelEntity(gdim, gtag)
                        )
                for element in mesh.entities(mesh.dim()):
                    mesh.classify_closure_missing(element)
        _restore_intermediate_gids(dmesh)
        rebuild_links(dmesh)

        # Tags and fields re-attach by entity identity.
        tag_dims = sorted(
            {dim_ for st in staged for _n, dim_, _k, _v in st["t"]}
        )
        field_metas = top_manifest.get("fields", [])
        field_dims = sorted(
            {int(meta["entity_dim"]) for meta in field_metas}
        )
        fields: Dict[str, DistributedField] = {}
        for meta in field_metas:
            fields[meta["name"]] = DistributedField(
                dmesh,
                meta["name"],
                int(meta["entity_dim"]),
                tuple(int(s) for s in meta.get("shape", [1])),
            )
        for pid in range(nparts):
            part = dmesh.part(pid)
            st = staged[pid]
            index = _key_index(
                part, sorted(set(tag_dims) | set(field_dims))
            )
            for name, dim_, key, value in sorted(
                st["t"], key=lambda item: (item[0], item[1], item[2])
            ):
                ent = index.get((dim_, key))
                if ent is not None:
                    part.mesh.tags.create(name)[ent] = value
            for meta in field_metas:
                bucket = st["f"].get(meta["name"], {})
                local = fields[meta["name"]].on(pid)
                entity_dim = int(meta["entity_dim"])
                for key, value in sorted(
                    bucket.items(), key=lambda kv: kv[0]
                ):
                    ent = index.get((entity_dim, key))
                    if ent is not None:
                        local.set(ent, value)
        return fields


def _key_index(
    part: Part, dims: Sequence[int]
) -> Dict[Tuple[int, Tuple[int, ...]], Ent]:
    """Map ``(dim, entity key)`` -> local entity for the requested dims."""
    index: Dict[Tuple[int, Tuple[int, ...]], Ent] = {}
    for d in dims:
        for ent in part.mesh.entities(d):
            index[(d, entity_key(part, ent))] = ent
    return index


def _restore_intermediate_gids(dmesh: DistributedMesh) -> None:
    """Give every intermediate entity (0 < d < element dim) a global id.

    Snapshots persist gids only for vertices and elements; edges (and
    faces, in 3D) are re-derived from connectivity.  Distributed services
    assume *every* entity carries a gid — ghosting, for one, detects the
    entities an element bundle created by diffing the gid table — so a
    load must re-establish that invariant.  Gids are assigned from the
    sorted vertex-gid keys: the same shared entity gets the same gid on
    every holding part, distinct entities get distinct gids, and the result
    is independent of part count and local numbering.
    """
    dim = dmesh.element_dim()
    for d in range(1, dim):
        keys = set()
        for part in dmesh:
            gid0 = part.gid_array(0)
            for ent in part.mesh.entities(d):
                keys.add(
                    tuple(sorted(gid0[v.idx] for v in part.mesh.verts_of(ent)))
                )
        base = dmesh._gid_next[d]
        gid_of = {key: base + i for i, key in enumerate(sorted(keys))}
        for part in dmesh:
            gid0 = part.gid_array(0)
            for ent in part.mesh.entities(d):
                if not part.has_gid(ent):
                    key = tuple(
                        sorted(gid0[v.idx] for v in part.mesh.verts_of(ent))
                    )
                    part.set_gid(ent, gid_of[key])
        dmesh._gid_next[d] = base + len(keys)
