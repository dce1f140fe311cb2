"""Checkpoint lifecycle management: rotation, validation, fallback restore.

:class:`CheckpointManager` wraps the ``repro.store/1`` snapshot store of
:mod:`repro.store` with the operational policy a long run needs:

* **atomic epochs** — each checkpoint is staged in a ``*.tmp`` directory
  and renamed into place only after every chunk file and the hashed
  manifest are durably written, so a crash mid-checkpoint never leaves a
  half-written "latest";
* **differential epochs** — after the first full snapshot each checkpoint
  stores only what changed, and rotation compacts the oldest survivor
  before it deletes a delta's ancestors;
* **rotation** — keep the last ``keep`` checkpoints, delete older ones;
* **validated restore with fallback** — :meth:`restore` walks checkpoints
  newest-first, skipping any that fail SHA-256 / schema validation
  (:class:`CorruptCheckpointError`, including a malformed manifest
  ``extra``), and raises :class:`NoCheckpointError` only when none
  survive;
* **complete state** — mesh topology, tags and distributed-field values
  round-trip through the checkpoint; the ghost configuration is recorded
  in the manifest and re-applied after restore (ghosts themselves are
  reconstructible runtime state);
* **same distribution back** — every epoch records each element's owning
  part, so a restore at the saved part count returns the distribution that
  was saved (a ParMA-balanced or adapted partition included);
* **restart at a different scale** — ``restore(nparts=K)`` loads the
  snapshot onto ``K`` parts with the store's chunk-parallel read, the
  DMPlex result that makes checkpoint/restart independent of job width.
"""

from __future__ import annotations

import logging
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..gmodel.model import Model
from ..parallel.perf import PerfCounters
from ..parallel.topology import MachineTopology
from ..partition.dmesh import DistributedMesh
from ..partition.fieldsync import DistributedField
from ..partition.ghosting import Overlap, ghost_layer
from ..store.format import (
    CorruptCheckpointError,
    element_parts,
    normalize_ghost_config,
    read_epoch_manifest,
)
from ..store.snapshot import SnapshotStore

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "CorruptCheckpointError",
    "NoCheckpointError",
]

logger = logging.getLogger("repro.resilience.checkpoint")


class NoCheckpointError(RuntimeError):
    """No valid checkpoint is available to restore from."""


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint: monotone index, workload step, location."""

    index: int
    step: int
    path: Path


class CheckpointManager:
    """Owns a directory of rotated, hash-validated checkpoints.

    Parameters
    ----------
    root:
        Directory holding the checkpoints (created if needed).  Each
        checkpoint is a ``repro.store/1`` epoch directory
        ``ckpt-<index>``.
    keep:
        Retain the last ``keep`` checkpoints; older ones are deleted after
        each successful :meth:`save`.  ``keep=0`` is the explicit
        *unlimited* sentinel: rotation is disabled and every checkpoint is
        retained (use ``keep=1`` for "only the latest").
    ghost_config:
        Optional ghost configuration recorded in every manifest and
        re-applied by :meth:`restore`, so ghosted workloads resume with
        their halo already rebuilt.  Accepts an
        :class:`~repro.partition.ghosting.Overlap` or a dict
        ``{"overlap": Overlap | overlap-dict, "tags": [...]}``; both forms
        are normalized to the dict form in the manifest.
    """

    PREFIX = "ckpt-"

    def __init__(
        self,
        root: Union[str, Path],
        keep: int = 3,
        ghost_config: Optional[Any] = None,
    ) -> None:
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.ghost_config = (
            normalize_ghost_config(ghost_config) if ghost_config else None
        )

    def _store(self) -> SnapshotStore:
        """The ``repro.store/1`` view of this directory."""
        return SnapshotStore(self.root, prefix=self.PREFIX)

    # -- enumeration --------------------------------------------------------

    def checkpoints(self) -> List[CheckpointInfo]:
        """All checkpoints on disk, oldest first.

        Steps are read from manifests; a checkpoint whose manifest fails
        validation is listed with ``step=-1`` (restore will skip it).
        Staging directories a crash mid-save left behind (``*.tmp``) are
        never listed.
        """
        infos: List[CheckpointInfo] = []
        for index, path in self._store()._indexed_dirs():
            try:
                manifest = read_epoch_manifest(path)
                step = int(manifest.get("extra", {}).get("step", -1))
            except CorruptCheckpointError:
                step = -1
            infos.append(CheckpointInfo(index=index, step=step, path=path))
        return infos

    def latest(self) -> Optional[CheckpointInfo]:
        infos = self.checkpoints()
        return infos[-1] if infos else None

    # -- writing ------------------------------------------------------------

    def save(
        self,
        dmesh: DistributedMesh,
        step: int,
        fields: Sequence[DistributedField] = (),
    ) -> CheckpointInfo:
        """Write one checkpoint of ``dmesh`` (plus ``fields``) atomically.

        The checkpoint becomes visible only via the final directory rename;
        rotation then prunes old checkpoints down to ``keep``.
        """
        latest = self.latest()
        index = latest.index + 1 if latest is not None else 0
        extra: Dict[str, Any] = {
            "step": int(step),
            "index": index,
            "parts": element_parts(dmesh),
        }
        if self.ghost_config is not None:
            extra["ghost_config"] = self.ghost_config
        info = self._store().save(dmesh, fields, extra=extra, index=index)
        self._rotate()
        return CheckpointInfo(index=index, step=int(step), path=info.path)

    def _rotate(self) -> None:
        if self.keep <= 0:
            return  # keep=0: the documented unlimited sentinel
        infos = self.checkpoints()
        cut = infos[: max(0, len(infos) - self.keep)]
        if not cut:
            return
        # A surviving delta must not lose its ancestors: compact the oldest
        # survivor (keep >= 1, so there is one) into a full epoch before
        # deleting anything.
        try:
            self._store().compact(infos[len(cut)].index)
        except CorruptCheckpointError:
            pass  # restore will skip it and fall back; nothing to save
        for info in cut:
            shutil.rmtree(info.path, ignore_errors=True)

    # -- reading ------------------------------------------------------------

    def validate(self, info: CheckpointInfo) -> bool:
        """True when ``info`` passes full integrity validation."""
        try:
            self._store().materialize(info.index)
        except CorruptCheckpointError:
            return False
        return True

    def restore(
        self,
        model: Optional[Model] = None,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        nparts: Optional[int] = None,
    ) -> Tuple[DistributedMesh, Dict[str, DistributedField], CheckpointInfo]:
        """Restore from the newest valid checkpoint.

        Walks checkpoints newest-first and skips (does not delete) any that
        fail validation — logging exactly which checkpoint it skipped and
        why — so one corrupt epoch costs one epoch of progress, not the
        run.  At the saved part count (``nparts=None``) each element goes
        back to the part that held it; another count re-deals the mesh.
        Re-applies the recorded ghost configuration.  Returns
        ``(dmesh, fields_by_name, info)``; raises :class:`NoCheckpointError`
        when no checkpoint survives.
        """
        skipped: List[str] = []
        for info in reversed(self.checkpoints()):
            try:
                dmesh, fields, stats = self._store().load_at(
                    nparts=nparts,
                    epoch=info.index,
                    model=model,
                    topology=topology,
                    counters=counters,
                )
            except CorruptCheckpointError as exc:
                logger.warning(
                    "restore: skipping corrupt checkpoint %s: %s",
                    info.path.name,
                    exc,
                )
                skipped.append(f"{info.path.name}: {exc}")
                continue
            ghost_config = stats.extra.get("ghost_config")
            if ghost_config:
                normalized = normalize_ghost_config(ghost_config)
                ghost_layer(
                    dmesh,
                    overlap=Overlap.from_dict(normalized["overlap"]),
                    tags=tuple(normalized["tags"]),
                )
            return dmesh, fields, info
        detail = ("; skipped corrupt: " + ", ".join(skipped)) if skipped else ""
        raise NoCheckpointError(
            f"no valid checkpoint under {self.root}{detail}"
        )
