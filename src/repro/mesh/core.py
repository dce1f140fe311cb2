"""Array-native mesh storage: structure-of-arrays topology with CSR kernels.

:class:`MeshCore` replaces the object-per-entity stores with a handful of
NumPy index arrays per dimension — the DMPlex-style representation (Knepley
et al.) where topology, adjacency and per-entity columns are all flat arrays
indexed by integer entity handles:

* ``etype[d]``   — int16 type codes,
* ``alive[d]``   — liveness bitmap,
* ``verts[d]``   — padded canonical vertex-id rows (``nverts[d]`` counts),
* ``down[d]``    — padded one-level downward rows (``ndown[d]`` counts),
* ``up[d]``      — padded one-level upward rows (``nup[d]`` counts), each
  row kept **sorted ascending** so membership tests and removals are
  binary searches and wire traversals are deterministic,
* ``free[d]``    — LIFO free-list of dead slots; :meth:`create` and the
  block allocator :meth:`alloc_block` pop it, so handles **are reused**
  (unlike the legacy object store).  Consumers that key external state by
  handle must register a destroy listener on the owning
  :class:`~repro.mesh.mesh.Mesh` to evict stale entries eagerly.

Padded fixed-stride rows are the mutable-topology variant of CSR: every
row's prefix is the CSR segment and the count array is the (implicit)
indptr diff.  :meth:`downward_csr` / :meth:`upward_csr` emit true
``(indptr, indices)`` pairs for batch consumers.

The legacy per-object :class:`repro.mesh.store.EntityStore` is retained
unchanged as the baseline for ``benchmarks/bench_mesh_core.py`` and its
standalone tests; the live mesh is backed exclusively by this module via
the :class:`DimStore` facade views.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .topology import type_info

#: Padded row widths per dimension: canonical vertices (hex has 8) and
#: one-level downward entities (hex has 6 faces).  Upward rows grow
#: dynamically with vertex/edge valence.
VERT_WIDTH = (1, 2, 4, 8)
DOWN_WIDTH = (0, 2, 4, 6)

_ID = np.int32
_INITIAL = 16


def first_occurrence_unique(ids: np.ndarray) -> np.ndarray:
    """Unique ids in order of first occurrence (stable dedupe, vectorized)."""
    if len(ids) == 0:
        return ids
    uniq, first = np.unique(ids, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


class MeshCore:
    """SoA topology storage for all four dimensions of one mesh part."""

    def __init__(self) -> None:
        self.etype: List[np.ndarray] = []
        self.alive: List[np.ndarray] = []
        self.nverts: List[np.ndarray] = []
        self.verts: List[np.ndarray] = []
        self.ndown: List[np.ndarray] = []
        self.down: List[np.ndarray] = []
        self.nup: List[np.ndarray] = []
        self.up: List[np.ndarray] = []
        #: LIFO free-lists of dead slots, per dimension.
        self.free: List[List[int]] = [[] for _ in range(4)]
        self.n_alive = [0, 0, 0, 0]
        #: Slot high-water mark per dimension (== total ids ever in use).
        self.top = [0, 0, 0, 0]
        self._version = [0, 0, 0, 0]
        self._live_cache: List[Tuple[int, np.ndarray]] = [(-1, np.empty(0, _ID))] * 4
        for d in range(4):
            self._alloc(d, _INITIAL)

    def _alloc(self, d: int, cap: int) -> None:
        self.etype.append(np.zeros(cap, dtype=np.int16))
        self.alive.append(np.zeros(cap, dtype=bool))
        self.nverts.append(np.zeros(cap, dtype=np.int8))
        self.verts.append(np.zeros((cap, VERT_WIDTH[d]), dtype=_ID))
        self.ndown.append(np.zeros(cap, dtype=np.int8))
        self.down.append(np.zeros((cap, max(DOWN_WIDTH[d], 1)), dtype=_ID))
        self.nup.append(np.zeros(cap, dtype=np.int32))
        self.up.append(np.zeros((cap, 4), dtype=_ID))

    # -- growth ------------------------------------------------------------

    def _grow(self, d: int, need: int) -> None:
        cap = len(self.etype[d])
        if need <= cap:
            return
        new = max(2 * cap, need)

        def grown(arr: np.ndarray) -> np.ndarray:
            shape = (new,) + arr.shape[1:]
            out = np.zeros(shape, dtype=arr.dtype)
            out[:cap] = arr
            return out

        self.etype[d] = grown(self.etype[d])
        self.alive[d] = grown(self.alive[d])
        self.nverts[d] = grown(self.nverts[d])
        self.verts[d] = grown(self.verts[d])
        self.ndown[d] = grown(self.ndown[d])
        self.down[d] = grown(self.down[d])
        self.nup[d] = grown(self.nup[d])
        self.up[d] = grown(self.up[d])

    def _grow_up_width(self, d: int, need: int) -> None:
        width = self.up[d].shape[1]
        if need <= width:
            return
        new = max(2 * width, need)
        out = np.zeros((len(self.up[d]), new), dtype=_ID)
        out[:, :width] = self.up[d]
        self.up[d] = out

    # -- creation / destruction --------------------------------------------

    def create(
        self,
        dim: int,
        etype: int,
        verts: Sequence[int],
        down: Sequence[int],
    ) -> int:
        """Allocate one entity; reuses a freed slot when one is available."""
        if self.free[dim]:
            idx = self.free[dim].pop()
        else:
            idx = self.top[dim]
            self._grow(dim, idx + 1)
            self.top[dim] = idx + 1
        if dim == 0:
            verts = (idx,)
        self.etype[dim][idx] = etype
        self.alive[dim][idx] = True
        nv = len(verts)
        self.nverts[dim][idx] = nv
        self.verts[dim][idx, :nv] = verts
        nd = len(down)
        self.ndown[dim][idx] = nd
        if nd:
            self.down[dim][idx, :nd] = down
        self.nup[dim][idx] = 0
        self.n_alive[dim] += 1
        self._version[dim] += 1
        return idx

    def alloc_block(self, dim: int, n: int) -> np.ndarray:
        """Reserve ``n`` slots in the order ``n`` :meth:`create` calls take
        them: popping the free-list (LIFO), then extending from ``top``.

        The slots come back alive with no upward users; the caller fills
        their rows with :meth:`write_rows`.
        """
        free = self.free[dim]
        k = min(n, len(free))
        reused = free[len(free) - k:][::-1]
        del free[len(free) - k:]
        start = self.top[dim]
        self._grow(dim, start + n - k)
        self.top[dim] = start + n - k
        ids = np.concatenate((
            np.asarray(reused, dtype=_ID),
            np.arange(start, start + n - k, dtype=_ID),
        ))
        self.alive[dim][ids] = True
        self.nup[dim][ids] = 0
        self.n_alive[dim] += n
        self._version[dim] += 1
        return ids

    def write_rows(
        self,
        dim: int,
        ids: np.ndarray,
        etypes: np.ndarray,
        verts: np.ndarray,
        down: np.ndarray,
    ) -> None:
        """Fill the rows of allocated slots from uniform-width matrices
        (vertex rows are implicit for ``dim == 0``)."""
        self.etype[dim][ids] = etypes
        if dim == 0:
            self.nverts[0][ids] = 1
            self.verts[0][ids, 0] = ids
        else:
            self.nverts[dim][ids] = verts.shape[1]
            self.verts[dim][ids, : verts.shape[1]] = verts
        if down is not None and down.size:
            self.ndown[dim][ids] = down.shape[1]
            self.down[dim][ids, : down.shape[1]] = down

    def append_block(
        self,
        dim: int,
        etypes: np.ndarray,
        verts: np.ndarray,
        down: np.ndarray,
    ) -> np.ndarray:
        """Bulk-create ``len(etypes)`` entities of one width; returns their
        ids, allocated as by :meth:`alloc_block`.

        Used by :func:`repro.mesh.build.from_connectivity`, where the mesh is
        fresh, so the ids are consecutive from ``top``.
        """
        ids = self.alloc_block(dim, len(etypes))
        self.write_rows(dim, ids, etypes, verts, down)
        return ids

    def destroy(self, dim: int, idx: int) -> None:
        """Mark ``idx`` dead and push its slot onto the free-list."""
        self.check(dim, idx)
        if self.nup[dim][idx]:
            raise ValueError(
                f"cannot destroy dim-{dim} entity {idx}: still bounds "
                f"{int(self.nup[dim][idx])} higher entities"
            )
        self.alive[dim][idx] = False
        self.nverts[dim][idx] = 0
        self.ndown[dim][idx] = 0
        self.n_alive[dim] -= 1
        self.free[dim].append(int(idx))
        self._version[dim] += 1

    # -- per-entity accessors ----------------------------------------------

    def is_alive(self, dim: int, idx: int) -> bool:
        return 0 <= idx < self.top[dim] and bool(self.alive[dim][idx])

    def check(self, dim: int, idx: int) -> None:
        if not self.is_alive(dim, idx):
            raise KeyError(f"dim-{dim} entity {idx} does not exist")

    def verts_row(self, dim: int, idx: int) -> Tuple[int, ...]:
        return tuple(self.verts[dim][idx, : self.nverts[dim][idx]].tolist())

    def down_row(self, dim: int, idx: int) -> Tuple[int, ...]:
        return tuple(self.down[dim][idx, : self.ndown[dim][idx]].tolist())

    def up_row(self, dim: int, idx: int) -> List[int]:
        return self.up[dim][idx, : self.nup[dim][idx]].tolist()

    def add_up(self, dim: int, idx: int, upper: int) -> None:
        """Insert ``upper`` into the sorted upward row of ``idx``."""
        n = int(self.nup[dim][idx])
        self._grow_up_width(dim, n + 1)
        row = self.up[dim][idx]
        pos = int(np.searchsorted(row[:n], upper))
        row[pos + 1 : n + 1] = row[pos:n]
        row[pos] = upper
        self.nup[dim][idx] = n + 1

    def remove_up(self, dim: int, idx: int, upper: int) -> None:
        n = int(self.nup[dim][idx])
        row = self.up[dim][idx]
        pos = int(np.searchsorted(row[:n], upper))
        if pos >= n or row[pos] != upper:
            raise ValueError(f"dim-{dim} entity {idx} does not bound {upper}")
        row[pos : n - 1] = row[pos + 1 : n]
        self.nup[dim][idx] = n - 1

    # -- batch kernels ------------------------------------------------------

    def live_ids(self, dim: int) -> np.ndarray:
        """Live entity ids of one dimension, ascending (cached per version)."""
        version, cached = self._live_cache[dim]
        if version != self._version[dim]:
            cached = np.nonzero(self.alive[dim][: self.top[dim]])[0].astype(_ID)
            self._live_cache[dim] = (self._version[dim], cached)
        return cached

    def gather_verts(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Concatenated canonical vertex ids of ``ids``, row-major order."""
        return self._concat_ragged(self.verts[dim], self.nverts[dim], ids)

    def gather_down(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Concatenated one-level downward ids of ``ids``, row-major order."""
        return self._concat_ragged(self.down[dim], self.ndown[dim], ids)

    def gather_up(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """Concatenated one-level upward ids of ``ids``, row-major order."""
        return self._concat_ragged(self.up[dim], self.nup[dim], ids)

    @staticmethod
    def _concat_ragged(rows: np.ndarray, counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=_ID)
        if len(ids) == 0:
            return np.empty(0, dtype=_ID)
        n = counts[ids]
        width = int(n.max()) if len(n) else 0
        if width == 0:
            return np.empty(0, dtype=_ID)
        if (n == width).all():
            return rows[ids, :width].reshape(-1)
        mask = np.arange(width) < n[:, None]
        return rows[ids][:, :width][mask]

    def verts_matrix(self, dim: int, ids: np.ndarray) -> np.ndarray:
        """``(len(ids), nverts)`` vertex-id matrix for uniform-type ids."""
        ids = np.asarray(ids, dtype=_ID)
        if len(ids) == 0:
            return np.empty((0, 0), dtype=_ID)
        width = int(self.nverts[dim][ids[0]])
        return self.verts[dim][ids, :width]

    def downward_csr(self, dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True-CSR ``(ids, indptr, indices)`` of live downward adjacency."""
        ids = self.live_ids(dim)
        counts = self.ndown[dim][ids].astype(np.int64)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return ids, indptr, self.gather_down(dim, ids)

    def upward_csr(self, dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True-CSR ``(ids, indptr, indices)`` of live upward adjacency."""
        ids = self.live_ids(dim)
        counts = self.nup[dim][ids].astype(np.int64)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return ids, indptr, self.gather_up(dim, ids)

    def bulk_add_up(
        self, dim: int, lower_ids: np.ndarray, upper_ids: np.ndarray
    ) -> None:
        """Record ``upper_ids[k]`` as an upward user of ``lower_ids[k]``, bulk.

        The touched rows are re-sorted afterwards, so uppers may arrive in
        any order (recycled handles land below existing entries).
        """
        if len(lower_ids) == 0:
            return
        lo = np.asarray(lower_ids, dtype=np.int64)
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        hi = np.asarray(upper_ids, dtype=_ID)[order]
        # Work on the touched rows only: cost follows the block, not the mesh.
        first = np.flatnonzero(np.concatenate(([True], lo[1:] != lo[:-1])))
        touched = lo[first]
        counts = np.diff(np.append(first, len(lo)))
        base = self.nup[dim][touched].astype(np.int64)
        total = base + counts
        width = int(total.max())
        self._grow_up_width(dim, width)
        self.up[dim][lo, np.repeat(base - first, counts) + np.arange(len(lo))] = hi
        self.nup[dim][touched] = total
        rows = self.up[dim][touched, :width]
        pad = np.arange(width) >= total[:, None]
        rows[pad] = np.iinfo(_ID).max
        rows.sort(axis=1)
        rows[pad] = 0
        self.up[dim][touched, :width] = rows

    # -- compat helpers -----------------------------------------------------

    def compact_map(self, dim: int) -> Dict[int, int]:
        live = self.live_ids(dim)
        return dict(zip(live.tolist(), range(len(live))))

    def stores(self) -> List["DimStore"]:
        return [DimStore(self, d) for d in range(4)]


class DimStore:
    """Per-dimension facade over :class:`MeshCore`.

    Exposes the exact API of the legacy :class:`repro.mesh.store.EntityStore`
    so partition/adapt/io consumers that take a per-dimension store keep
    working unchanged; hot paths bypass it and hit the core arrays.
    """

    __slots__ = ("core", "dim")

    def __init__(self, core: MeshCore, dim: int) -> None:
        self.core = core
        self.dim = dim

    # -- creation / destruction -------------------------------------------

    def create(
        self, etype: int, verts: Tuple[int, ...], down: Tuple[int, ...]
    ) -> int:
        info = type_info(etype)
        if info.dim != self.dim:
            raise ValueError(
                f"type {info.name} has dim {info.dim}, store holds dim {self.dim}"
            )
        if self.dim > 0 and len(verts) != info.nverts:
            raise ValueError(
                f"{info.name} needs {info.nverts} vertices, got {len(verts)}"
            )
        return self.core.create(self.dim, etype, verts, down)

    def destroy(self, idx: int) -> None:
        self.core.destroy(self.dim, idx)

    # -- accessors ---------------------------------------------------------

    def alive(self, idx: int) -> bool:
        return self.core.is_alive(self.dim, idx)

    def etype(self, idx: int) -> int:
        self._check(idx)
        return int(self.core.etype[self.dim][idx])

    def verts(self, idx: int) -> Tuple[int, ...]:
        self._check(idx)
        return self.core.verts_row(self.dim, idx)

    def down(self, idx: int) -> Tuple[int, ...]:
        self._check(idx)
        return self.core.down_row(self.dim, idx)

    def up(self, idx: int) -> List[int]:
        self._check(idx)
        return self.core.up_row(self.dim, idx)

    def add_up(self, idx: int, upper: int) -> None:
        self._check(idx)
        self.core.add_up(self.dim, idx, upper)

    def remove_up(self, idx: int, upper: int) -> None:
        self._check(idx)
        self.core.remove_up(self.dim, idx, upper)

    def up_count(self, idx: int) -> int:
        self._check(idx)
        return int(self.core.nup[self.dim][idx])

    # -- iteration / size --------------------------------------------------

    def __len__(self) -> int:
        return self.core.n_alive[self.dim]

    @property
    def capacity(self) -> int:
        """Slot high-water mark (live + dead + reusable)."""
        return self.core.top[self.dim]

    def indices(self) -> Iterator[int]:
        return iter(self.core.live_ids(self.dim).tolist())

    def compact_map(self) -> Dict[int, int]:
        return self.core.compact_map(self.dim)

    def _check(self, idx: int) -> None:
        self.core.check(self.dim, idx)
