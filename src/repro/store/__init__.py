"""`repro.store`: parallel incremental snapshot I/O (``repro.store/1``).

The canonical, part-count-agnostic snapshot layer (Hapla et al., arXiv
2004.08729): chunked CRC-validated codec frames with a SHA-256 chunk
manifest (:mod:`repro.store.format`), full/differential epoch chains with
deterministic compaction and star-forest repartition-on-load
(:mod:`repro.store.snapshot`), and a content-addressed warm-start cache
for the serving tier (:mod:`repro.store.cache`).  It is the one checkpoint
format: the resilience layer's :class:`~repro.resilience.CheckpointManager`
writes and restores every epoch through :class:`SnapshotStore`.
"""

from .format import (
    DEFAULT_CHUNK_RECORDS,
    FORMAT,
    CorruptCheckpointError,
    CorruptSnapshotError,
    SnapshotState,
    apply_delta,
    diff_states,
    element_parts,
    field_checksum,
    owned_gid_set,
    state_from_dmesh,
)
from .snapshot import EpochInfo, SnapshotStore, StoreStats
from .cache import (
    SnapshotCache,
    cache_key,
    current_cache,
    install_cache,
    uninstall_cache,
)

__all__ = [
    "DEFAULT_CHUNK_RECORDS",
    "FORMAT",
    "CorruptCheckpointError",
    "CorruptSnapshotError",
    "EpochInfo",
    "SnapshotCache",
    "SnapshotState",
    "SnapshotStore",
    "StoreStats",
    "apply_delta",
    "cache_key",
    "current_cache",
    "diff_states",
    "element_parts",
    "field_checksum",
    "install_cache",
    "owned_gid_set",
    "state_from_dmesh",
    "uninstall_cache",
]
