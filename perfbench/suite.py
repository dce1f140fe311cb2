"""The three benchmark workloads: ``pipeline``, ``churn`` and ``halo``.

Each workload is a closed loop of one caller in one process.  ``setup``
builds the state a step needs and may run several times; ``step`` runs one
unit of work (a pass, a cycle, a round) and times only the calls it makes
into the program, through ``clock``.  Inputs come from the seed alone: the
shock-plane offset and field values, the order of churn's migration
plans, and halo's field values.  The T0 partition is the same for every
seed (``T0_SEED``): ParMA's iteration count, and with it every superstep
and wire-byte count, swings threefold between T0 partitions at these
sizes.  Every step checks the program's outputs through ``ledger``.
"""

from __future__ import annotations

import math
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core import ParMA
from repro.field.sizefield import ShockPlaneSize
from repro.mesh import box_tet
from repro.partition import (
    DistributedField,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    refine_distributed,
    synchronize,
)
from repro.partitioners import partition
from repro.store import SnapshotStore, field_checksum, owned_gid_set

ELEM_DIM = 3
#: Hypergraph seed of the T0 partition, fixed for every benchmark seed.
T0_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """Workload input sizes (recorded in every result's stamp)."""

    n: int            # box_tet(n): 6 n^3 tets
    parts: int        # N, the part count of the distributed mesh
    load_parts: int = 0   # M, the part count a snapshot is loaded at
    depth: int = 0    # ghost overlap depth

    @property
    def elements(self) -> int:
        return 6 * self.n ** 3


SCALES: Dict[str, Dict[str, Inputs]] = {
    "bench": {
        "pipeline": Inputs(n=4, parts=8, load_parts=5, depth=1),
        "churn": Inputs(n=5, parts=8),
        "halo": Inputs(n=8, parts=16),
    },
    "smoke": {
        "pipeline": Inputs(n=2, parts=4, load_parts=3, depth=1),
        "churn": Inputs(n=3, parts=4),
        "halo": Inputs(n=3, parts=4),
    },
}


def imbalance(dm, dim: int) -> float:
    """Peak imbalance max/mean of one entity dimension's per-part counts."""
    counts = dm.entity_counts()[:, dim].astype(float)
    return float(counts.max() / counts.mean())


def t0_distribution(inputs: Inputs, clock):
    """Generate the box, partition it with T0 and distribute it."""
    with clock("mesh.generate"):
        mesh = box_tet(inputs.n)
    with clock("partitioners.hypergraph"):
        assignment = partition(mesh, inputs.parts, method="hypergraph",
                               seed=T0_SEED)
    with clock("partition.distribute"):
        dm = distribute(mesh, assignment)
    return mesh, assignment, dm


def t0_counts(dm) -> Dict[str, float]:
    return {
        "partitioners.t0_vtx_imbalance_pct": 100 * (imbalance(dm, 0) - 1),
        "partitioners.t0_rgn_imbalance_pct":
            100 * (imbalance(dm, ELEM_DIM) - 1),
    }


def improve_counts(stats) -> Dict[str, float]:
    migrated = stats.total_migrated
    added = stats.final_boundary_entities - stats.initial_boundary_entities
    return {
        "core.iterations": sum(d.iterations for d in stats.per_dimension),
        "core.elements_migrated": migrated,
        "core.copies_per_migrated": added / migrated if migrated else 0.0,
    }


def element_centroids(part) -> Dict[int, np.ndarray]:
    """Element gid -> centroid on one part."""
    mesh = part.mesh
    return {
        part.gid(e): np.mean([mesh.coords(v) for v in mesh.verts_of(e)],
                             axis=0)
        for e in mesh.entities(ELEM_DIM)
    }


def verifies(dm) -> bool:
    """Whether ``dm.verify()`` passes; a failure is reported, not raised."""
    try:
        dm.verify()
    except Exception:  # any invariant violation is one failed check
        traceback.print_exc()
        return False
    return True


def element_gids(dm) -> List[set]:
    """Per-part sets of element gids."""
    return [
        {part.gid(e) for e in part.mesh.entities(ELEM_DIM)} for part in dm
    ]


class Workload:
    """Base class: seeded inputs, a work directory, repeatable set-up."""

    name = ""
    #: Steps that make up one deterministic schedule of inputs.
    schedule = 1
    #: Steps run even when the time is up.
    min_steps = 1

    def __init__(self, seed: int, inputs: Inputs, workdir: Path) -> None:
        self.seed = seed
        self.inputs = inputs
        self.workdir = workdir
        self.setup_counts: Dict[str, float] = {}
        self.dm = None

    def setup(self, clock) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, uncounted work before each step."""

    def step(self, clock, ledger) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self, clock, ledger) -> None:
        """End-of-run checks."""

    def attach_tracer(self, tracer) -> None:
        """Route the spans of a mesh built in set-up to ``tracer``."""
        if self.dm is not None:
            self.dm.tracer = tracer


class Pipeline(Workload):
    """The paper's workflow, generate to restart, once per pass."""

    name = "pipeline"
    min_steps = 3

    def __init__(self, seed, inputs, workdir) -> None:
        super().__init__(seed, inputs, workdir)
        rng = np.random.default_rng([seed, 1])
        n = inputs.n
        # The plane moves by at most a hundredth of the box: over a wider
        # band the split count, and the pass time with it, follows the
        # seed by a fifth.
        self.size = ShockPlaneSize(
            (1.0, 0.3, 0.1), 0.495 + 0.01 * float(rng.random()),
            h_fine=0.9 / n, h_coarse=2.0 / n, width=0.08,
        )
        coeffs = rng.standard_normal((3, 4))
        self.field_fn = lambda x: coeffs[:, :3] @ x + coeffs[:, 3]

    def setup(self, clock) -> None:
        # A warm-up pass at the smallest inputs fills lazy imports and
        # caches, so the first timed pass is not an outlier.
        warm = Pipeline(self.seed, SCALES["smoke"]["pipeline"],
                        self.workdir / "warmup")
        warm.step(clock, clock.ledger)

    def step(self, clock, ledger) -> Dict[str, float]:
        p = self.inputs
        counts: Dict[str, float] = {}
        mesh, _assignment, dm = t0_distribution(p, clock)
        counts.update(t0_counts(dm))
        with clock("mesh.verify"):
            dm.verify()
        with clock("core.improve"):
            improved = ParMA(dm).improve("Vtx = Edge > Rgn")
        counts.update(improve_counts(improved))
        counts["vtx_imbalance"] = imbalance(dm, 0)
        with clock("mesh.verify"):
            dm.verify()

        u = DistributedField(dm, "u", 0, 3)
        u.set_from_coords(self.field_fn)
        root = self.workdir / "store"
        shutil.rmtree(root, ignore_errors=True)
        store = SnapshotStore(root)
        with clock("store.save_full"):
            full = store.save(dm, [u], full=True)

        with clock("partition.ghost"):
            ghosts = ghost_layer(dm, depth=p.depth)
        with clock("partition.accumulate"):
            accumulate(u)
        with clock("partition.sync"):
            synchronize(u)
        counts["partition.ghost_stale"] = stale_ghost_vertices(dm, u)
        with clock("partition.delete_ghosts"):
            delete_ghosts(dm)

        with clock("partition.dadapt"):
            adapted = refine_distributed(dm, self.size)
        with clock("mesh.verify"):
            dm.verify()
        saved = (owned_gid_set(dm, ELEM_DIM), field_checksum(dm, u))
        with clock("store.save_delta"):
            delta = store.save(dm, [u])
        ledger.check(delta.kind == "delta", "second save is a delta epoch")
        with clock("store.load_at"):
            loaded, fields, _stats = store.load_at(
                nparts=p.load_parts, model=mesh.model
            )
        with clock("mesh.verify"):
            loaded.verify()
        ledger.check(owned_gid_set(loaded, ELEM_DIM) == saved[0],
                     "loaded owned element gids equal the saved ones")
        ledger.check(field_checksum(loaded, fields["u"]) == saved[1],
                     "loaded field checksum equals the saved one")

        counts.update({
            "partition.ghost_elements": ghosts.ghosts_created,
            "partition.ghost_wire_bytes": ghosts.wire_bytes,
            "partition.dadapt_splits": adapted.splits,
            "partition.dadapt_boundary_splits": adapted.boundary_splits,
            "mesh.elements_final": len(saved[0]),
            "store.bytes_written": full.payload_bytes + delta.payload_bytes,
            "store.delta_ratio": delta.payload_bytes / full.payload_bytes,
        })
        return counts


def stale_ghost_vertices(dm, dfield) -> int:
    """Ghost vertex copies whose value differs from their owner's."""
    stale = 0
    for part in dm:
        local = dfield.on(part.pid)
        for ghost in part.ghosts:
            if ghost.dim != 0:
                continue
            home_pid, home_ent = part.ghost_home[ghost]
            home = dm.part(home_pid)
            if home_ent is None:
                home_ent = home.by_gid(0, part.gid(ghost))
            owner = dfield.on(home_pid)
            if not (local.has(ghost) and owner.has(home_ent)) or not (
                np.array_equal(local.get(ghost), owner.get(home_ent))
            ):
                stale += 1
    return stale


class Churn(Workload):
    """Perturb, rebalance with ParMA, and migrate home, once per cycle."""

    name = "churn"

    def setup(self, clock) -> None:
        self.mesh, self.assignment, self.dm = t0_distribution(
            self.inputs, clock)
        self.setup_counts = t0_counts(self.dm)
        self.home = element_gids(self.dm)
        self.home_of = {g: pid for pid, gids in enumerate(self.home)
                        for g in gids}
        # One plan per pair of neighbouring parts, in seeded order: the
        # source sends the fifth of its elements nearest the destination's
        # centroid.  A compact fifth keeps ParMA's work per cycle
        # comparable; after a scattered one it swings tenfold, more than
        # any run length here could average out.
        centroids = [element_centroids(part) for part in self.dm]
        middle = [np.mean(list(c.values()), axis=0) for c in centroids]
        pairs = [(src, dst) for src in range(self.dm.nparts)
                 for dst in sorted(self.dm.part(src).neighbors())]
        self.plans: List[Tuple[int, int, List[int]]] = []
        order = np.random.default_rng([self.seed, 3]).permutation(len(pairs))
        for i in order:
            src, dst = pairs[i]
            near = sorted(centroids[src], key=lambda g: (
                float(np.linalg.norm(centroids[src][g] - middle[dst])), g))
            self.plans.append((src, dst, near[: len(near) // 5]))
        self.schedule = self.min_steps = len(self.plans)
        self.cycle = 0

    def prepare(self) -> None:
        # Each cycle starts from a fresh distribution of the T0 partition.
        # The return migration restores the partition but not the entity
        # handles, and ParMA's choices follow handle order, so a reused
        # mesh makes each cycle's work depend on every cycle before it.
        self.dm = distribute(self.mesh, self.assignment)

    def step(self, clock, ledger) -> Dict[str, float]:
        dm = self.dm
        src, dst, gids = self.plans[self.cycle % len(self.plans)]
        self.cycle += 1
        part = dm.part(src)
        out = {src: {part.by_gid(ELEM_DIM, g): dst for g in gids}}
        with clock("partition.migrate"):
            migrate(dm, out)
        with clock("core.improve"):
            improved = ParMA(dm).improve("Vtx > Rgn")
        counts = improve_counts(improved)
        counts["vtx_imbalance"] = imbalance(dm, 0)
        back: Dict[int, Dict] = {}
        for part in dm:
            for e in part.mesh.entities(ELEM_DIM):
                home = self.home_of[part.gid(e)]
                if home != part.pid:
                    back.setdefault(part.pid, {})[e] = home
        with clock("partition.migrate"):
            migrate(dm, back)
        ledger.check(element_gids(dm) == self.home,
                     "every element is back on its T0 home part")
        if self.cycle <= len(self.plans):
            # Each cycle works on a mesh of its own, so the end-of-run
            # verify() sees only the last one: verify every plan's mesh
            # once a run, untimed.
            ledger.check(verifies(dm), "verify() passes after the cycle")
        counts["mesh.elements_final"] = dm.total_owned(ELEM_DIM)
        return counts

    def finish(self, clock, ledger) -> None:
        with clock("mesh.verify"):
            self.dm.verify()
        ledger.check(
            self.dm.total_owned(ELEM_DIM) == self.inputs.elements,
            "element count is conserved",
        )


class Halo(Workload):
    """Vertex and edge field assembly and exchange, once per round."""

    name = "halo"
    min_steps = 100

    def __init__(self, seed, inputs, workdir) -> None:
        super().__init__(seed, inputs, workdir)
        self.rng = np.random.default_rng([seed, 2])

    def setup(self, clock) -> None:
        self.mesh, _assignment, self.dm = t0_distribution(self.inputs, clock)
        self.setup_counts = t0_counts(self.dm)
        self.vtx_imbalance = imbalance(self.dm, 0)
        # A 3-component vertex field and P2-style scalar edge dofs.
        self.fields = [DistributedField(self.dm, "u", 0, 3),
                       DistributedField(self.dm, "w", 1, 1)]
        self.layout = [_SharedLayout(self.dm, f.entity_dim)
                       for f in self.fields]

    def step(self, clock, ledger) -> Dict[str, float]:
        for dfield, layout in zip(self.fields, self.layout):
            layout.reseed(dfield, self.rng, owners_too=True)
        sums = [layout.copy_sums(dfield)
                for dfield, layout in zip(self.fields, self.layout)]
        with clock("partition.accumulate"):
            for dfield in self.fields:
                accumulate(dfield)
        for dfield, layout, want in zip(self.fields, self.layout, sums):
            ledger.check(layout.owners_match(dfield, want),
                         f"accumulated {dfield.name} equals fsum of copies")
            layout.reseed(dfield, self.rng, owners_too=False)
        with clock("partition.sync"):
            for dfield in self.fields:
                synchronize(dfield)
        for dfield, layout in zip(self.fields, self.layout):
            ledger.check(layout.copies_match(dfield),
                         f"synchronized {dfield.name} copies equal owners")
        return {"vtx_imbalance": self.vtx_imbalance,
                "mesh.elements_final": self.dm.total_owned(ELEM_DIM)}


class _SharedLayout:
    """Handles of one dimension's entities and their remote copies."""

    def __init__(self, dm, dim: int) -> None:
        self.ids = {
            part.pid: np.fromiter((e.idx for e in part.mesh.entities(dim)),
                                  dtype=np.int64)
            for part in dm
        }
        # Per owned shared entity: its (part, handle) and every remote
        # copy's (part, handle).
        self.owned: List[Tuple[Tuple[int, int], List[Tuple[int, int]]]] = []
        non_owned: Dict[int, List[int]] = {part.pid: [] for part in dm}
        for part in dm:
            for ent in sorted(part.remotes):
                if ent.dim != dim:
                    continue
                if part.owns(ent):
                    copies = sorted((q, c.idx)
                                    for q, c in part.remotes[ent].items())
                    self.owned.append(((part.pid, ent.idx), copies))
                else:
                    non_owned[part.pid].append(ent.idx)
        self.non_owned = {pid: np.asarray(ids, dtype=np.int64)
                          for pid, ids in non_owned.items()}

    def reseed(self, dfield, rng, owners_too: bool) -> None:
        for pid, ids in (self.ids if owners_too else self.non_owned).items():
            values = rng.standard_normal((len(ids), dfield.on(pid).ncomp))
            dfield.on(pid).set_many(ids, values)

    def values(self, dfield) -> Dict[int, np.ndarray]:
        """Per part, the field's values as a matrix indexed by handle."""
        out = {}
        for pid, ids in self.ids.items():
            matrix = np.full((int(ids.max()) + 1, dfield.on(pid).ncomp),
                             np.nan)
            matrix[ids] = dfield.on(pid).get_many(ids)
            out[pid] = matrix
        return out

    def copy_sums(self, dfield) -> List[List[float]]:
        """Serial ``math.fsum`` over every residence copy, per component."""
        values = self.values(dfield)
        sums = []
        for (pid, idx), copies in self.owned:
            rows = [values[pid][idx]] + [values[q][c] for q, c in copies]
            sums.append([math.fsum(col) for col in zip(*rows)])
        return sums

    def owners_match(self, dfield, sums) -> bool:
        values = self.values(dfield)
        for ((pid, idx), _copies), want in zip(self.owned, sums):
            scale = max(1.0, math.fsum(abs(x) for x in want))
            got = values[pid][idx]
            if any(abs(g - w) > 1e-12 * scale for g, w in zip(got, want)):
                return False
        return True

    def copies_match(self, dfield) -> bool:
        values = self.values(dfield)
        return all(
            np.array_equal(values[q][c], values[pid][idx])
            for (pid, idx), copies in self.owned
            for q, c in copies
        )


WORKLOADS = {cls.name: cls for cls in (Pipeline, Churn, Halo)}
