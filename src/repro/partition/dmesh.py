"""The distributed mesh: parts linked by remote copies over a BSP network.

PUMI "supports a topological representation of the distributed mesh and
efficient distributed manipulation functions through the use of partition
model" (paper, Section II).  :class:`DistributedMesh` is that representation:
``N`` :class:`~repro.partition.part.Part` objects (each a serial mesh plus
remote-copy links), a message network classified by machine topology, and
global-id allocation for entities created during modification.

All distributed operations (migration, ghosting, synchronization, ParMA) are
bulk-synchronous: parts compute locally and post messages, one ``exchange``
delivers them.  This file holds the container and its integrity checks;
the operations live in sibling modules.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..gmodel.model import Model
from ..mesh.entity import Ent
from ..obs.tracer import Tracer, current as current_tracer
from ..parallel.network import Network
from ..parallel.perf import PerfCounters, GLOBAL
from ..parallel.routing import BufferedRouter
from ..parallel.topology import MachineTopology, flat
from .part import Part


class DistributedMesh:
    """A mesh distributed to N parts (optionally mapped onto a machine)."""

    def __init__(
        self,
        nparts: int,
        model: Optional[Model] = None,
        topology: Optional[MachineTopology] = None,
        counters: Optional[PerfCounters] = None,
        sanitize: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if nparts < 1:
            raise ValueError(f"need at least one part, got {nparts}")
        self.model = model
        #: Alias-sanitizer mode for the part networks (None = REPRO_SANITIZE).
        self.sanitize = sanitize
        #: Observability hook (:class:`~repro.obs.Tracer`): the part
        #: networks charge each superstep's traffic to it and the
        #: distributed services open spans on it.  ``None`` resolves to the
        #: installed default tracer (normally also ``None``); assign at any
        #: time — :meth:`router` re-propagates it to the cached networks.
        self.tracer = tracer if tracer is not None else current_tracer()
        #: Fault-injection hook (:class:`~repro.resilience.FaultInjector`):
        #: when assigned, the part networks route every post/exchange
        #: through it (message drop/duplicate/corrupt/delay, scheduled rank
        #: crashes).  Assign at any time — :meth:`router` re-propagates it
        #: to the cached networks, like :attr:`tracer`.
        self.fault_injector = None
        self._auto_topology = topology is None
        self.topology = topology if topology is not None else flat(nparts)
        self.counters = counters if counters is not None else GLOBAL
        self.parts: List[Part] = [Part(pid) for pid in range(nparts)]
        for part in self.parts:
            part.mesh.model = model
        # Central gid allocation: one counter per dimension.  A real MPI
        # implementation hands each part a strided id range; in this
        # single-process simulation a shared counter gives the same
        # uniqueness guarantee deterministically.
        self._gid_next = [0, 0, 0, 0]
        self._network: Optional[Network] = None
        self._trusted_network: Optional[Network] = None

    # -- parts ------------------------------------------------------------

    @property
    def nparts(self) -> int:
        return len(self.parts)

    def part(self, pid: int) -> Part:
        if not 0 <= pid < self.nparts:
            raise ValueError(f"part id {pid} out of range [0, {self.nparts})")
        return self.parts[pid]

    def __iter__(self) -> Iterator[Part]:
        return iter(self.parts)

    def add_part(self) -> Part:
        """Append a new empty part (multiple-parts-per-process support)."""
        part = Part(self.nparts)
        part.mesh.model = self.model
        self.parts.append(part)
        if self._auto_topology:
            self.topology = flat(self.nparts)
        elif self.topology.total_cores < self.nparts:
            raise ValueError(
                "machine topology has no processing unit for the new part"
            )
        self._network = None  # force rebuild at next exchange
        return part

    # -- communication -----------------------------------------------------

    def router(self, trusted: bool = False) -> BufferedRouter:
        """A coalescing router over the (lazily rebuilt) part network.

        ``trusted`` selects a channel that charges off-node messages their
        codec bytes but delivers them by reference, skipping the decode half
        of the copy round-trip.  :class:`~repro.parallel.routing.BufferedRouter`
        wraps each part pair's posts in a list — not ``bytes`` — so even
        pre-encoded batches pay that decode on the copying channel.  Use the
        trusted one only for payloads of immutable values (the link
        rebuild's encoded integer rows), where sender/receiver aliasing
        cannot violate distributed-memory semantics.
        """
        if self._network is None or self._network.nparts != self.nparts:
            self._network = Network(
                self.nparts,
                topology=self.topology,
                counters=self.counters,
                sanitize=self.sanitize,
                tracer=self.tracer,
                fault_injector=self.fault_injector,
            )
            self._trusted_network = Network(
                self.nparts,
                topology=self.topology,
                counters=self.counters,
                copy_off_node=False,
                sanitize=self.sanitize,
                tracer=self.tracer,
                fault_injector=self.fault_injector,
            )
        else:
            # The tracer / fault-injector attributes may have been
            # (re)assigned since the networks were built; keep them
            # pointing at the current ones.
            self._network.tracer = self.tracer
            self._trusted_network.tracer = self.tracer
            self._network.fault_injector = self.fault_injector
            self._trusted_network.fault_injector = self.fault_injector
        return BufferedRouter(
            self._trusted_network if trusted else self._network
        )

    # -- global ids ---------------------------------------------------------

    def alloc_gid(self, dim: int) -> int:
        """A fresh, never-used global id for dimension ``dim``."""
        gid = self._gid_next[dim]
        self._gid_next[dim] += 1
        return gid

    def note_gid(self, dim: int, gid: int) -> None:
        """Record an externally assigned gid so alloc never collides."""
        if gid >= self._gid_next[dim]:
            self._gid_next[dim] = gid + 1

    # -- accounting -----------------------------------------------------------

    def element_dim(self) -> int:
        """Highest entity dimension present on any part."""
        return max((part.mesh.dim() for part in self.parts), default=0)

    def entity_counts(self) -> np.ndarray:
        """Per-part live non-ghost entity counts, shape ``(nparts, 4)``.

        This is the load metric the paper balances: part-boundary entities
        are counted on every part holding them (as in PHASTA dof balance).
        """
        return np.asarray([part.entity_counts() for part in self.parts])

    def owned_counts(self) -> np.ndarray:
        """Per-part owned entity counts (each entity counted exactly once)."""
        return np.asarray(
            [[part.owned_count(d) for d in range(4)] for part in self.parts]
        )

    def total_owned(self, dim: int) -> int:
        return int(self.owned_counts()[:, dim].sum())

    def shared_entity_count(self, dim: Optional[int] = None) -> int:
        """Total part-boundary entity copies across all parts."""
        total = 0
        for part in self.parts:
            for ent in part.remotes:
                if (dim is None or ent.dim == dim) and part.remotes[ent]:
                    total += 1
        return total

    def neighbor_map(self, dim: Optional[int] = None) -> Dict[int, Set[int]]:
        """Part adjacency graph: pid -> neighboring pids (sharing ``dim``)."""
        return {part.pid: part.neighbors(dim) for part in self.parts}

    # -- integrity ---------------------------------------------------------------

    def verify(self, check_meshes: bool = True) -> None:
        """Check every distributed-representation invariant; raise on failure.

        * each part's serial mesh is valid (optionally),
        * remote-copy links are symmetric and connect entities with equal
          gids and dimensions,
        * shared entities' vertex gid sets agree across parts,
        * ghosts mirror a live entity on their home part.
        """
        from ..mesh.verify import verify as verify_mesh

        for part in self.parts:
            if check_meshes and part.mesh.count(0):
                verify_mesh(
                    part.mesh,
                    allow_dangling=bool(part.ghosts),
                    check_classification=False,
                )
            for ent, copies in part.remotes.items():
                if not part.mesh.has(ent):
                    raise AssertionError(
                        f"part {part.pid}: remote link from dead entity {ent}"
                    )
                key = _entity_key(part, ent)
                for other_pid, other_ent in copies.items():
                    if other_pid == part.pid:
                        raise AssertionError(
                            f"part {part.pid}: self remote link on {ent}"
                        )
                    other = self.part(other_pid)
                    if not other.mesh.has(other_ent):
                        raise AssertionError(
                            f"part {part.pid}: {ent} links to dead "
                            f"{other_ent} on part {other_pid}"
                        )
                    other_key = _entity_key(other, other_ent)
                    if other_key != key:
                        raise AssertionError(
                            f"identity mismatch: part {part.pid} {ent} "
                            f"(key {key}) vs part {other_pid} {other_ent} "
                            f"(key {other_key})"
                        )
                    back = other.remotes.get(other_ent, {})
                    if back.get(part.pid) != ent:
                        raise AssertionError(
                            f"asymmetric remote link: part {part.pid} {ent} "
                            f"-> part {other_pid} {other_ent} not reciprocated"
                        )
            for ghost, (home_pid, home_ent) in part.ghost_home.items():
                if not part.mesh.has(ghost):
                    raise AssertionError(
                        f"part {part.pid}: dead ghost {ghost}"
                    )
                if home_ent is not None and not self.part(home_pid).mesh.has(
                    home_ent
                ):
                    raise AssertionError(
                        f"part {part.pid}: ghost {ghost} home entity is dead"
                    )

    def __repr__(self) -> str:
        counts = self.entity_counts().sum(axis=0)
        return (
            f"DistributedMesh({self.nparts} parts, "
            f"verts={counts[0]}, edges={counts[1]}, faces={counts[2]}, "
            f"regions={counts[3]})"
        )


def _entity_key(part: Part, ent: Ent):
    """Vertex-gid identity of an entity (see migration.entity_key)."""
    if ent.dim == 0:
        return (part.gid(ent),)
    return tuple(sorted(part.gid(v) for v in part.mesh.verts_of(ent)))


