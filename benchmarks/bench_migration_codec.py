"""Wire-byte budget benchmark: the binary codec on the migration pipeline.

Runs one workload — ring migration rounds, one ghost layer, field
synchronize + accumulate — and reports:

* off-node wire bytes charged by the simulated network (the paper's
  neighborhood-traffic metric), split by phase, and
* wall-clock time of the migration phase.

Wire bytes are deterministic, so each phase has a pinned budget (the
bytes this workload cost when the budget was set); the script exits
non-zero when any phase exceeds its budget.

Usage::

    PYTHONPATH=src python benchmarks/bench_migration_codec.py [--quick]

``--quick`` shrinks the mesh for the CI perf gate.  Results land in
``benchmarks/results/migration_codec.txt`` and the machine-readable
``BENCH_migration_codec.json`` (consumed by the CI gate, which re-checks
the ``--quick`` budgets).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import write_result

from repro.mesh import box_tet, rect_tri
from repro.parallel import PerfCounters
from repro.partition import (
    DistributedField,
    accumulate,
    delete_ghosts,
    distribute,
    ghost_layer,
    migrate,
    synchronize,
)

QUICK = {"mesh": "rect_tri", "n": 8, "parts": 4, "rounds": 2, "batch": 4}
FULL = {"mesh": "box_tet", "n": 4, "parts": 8, "rounds": 3, "batch": 64}

#: Upper bounds on each phase's off-node wire bytes, per scale.
BUDGETS = {
    "quick": {
        "total_wire_bytes": 24_753,
        "migrate_wire_bytes": 6_667,
        "ghost_wire_bytes": 15_815,
        "sync_wire_bytes": 2_271,
    },
    "full": {
        "total_wire_bytes": 516_313,
        "migrate_wire_bytes": 282_988,
        "ghost_wire_bytes": 224_649,
        "sync_wire_bytes": 8_676,
    },
}


def strip(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def build(p):
    if p["mesh"] == "rect_tri":
        return rect_tri(p["n"])
    return box_tet(p["n"])


def run(p: dict) -> dict:
    mesh = build(p)
    # Default flat topology: every part on its own node, so all neighbor
    # traffic is off-node and charged wire bytes.  A fresh counter registry
    # per run keeps the byte readings of repeated runs independent (the
    # default GLOBAL registry accumulates across runs in one process).
    counters = PerfCounters()
    dm = distribute(mesh, strip(mesh, p["parts"]), counters=counters)
    edim = dm.element_dim()
    distribute_bytes = dm.counters.get("net.bytes.off_node")

    migrate_seconds = 0.0
    elements_moved = 0
    for _ in range(p["rounds"]):
        plan = {}
        for part in dm:
            chosen = sorted(part.mesh.entities(edim))[: p["batch"]]
            plan[part.pid] = {e: (part.pid + 1) % dm.nparts for e in chosen}
        start = time.perf_counter()
        mstats = migrate(dm, plan)
        migrate_seconds += time.perf_counter() - start
        elements_moved += mstats.elements_moved
    migrate_bytes = dm.counters.get("net.bytes.off_node") - distribute_bytes

    gstats = ghost_layer(dm)
    field = DistributedField(dm, "u")
    field.set_from_coords(lambda x: x[0] + 2.0 * x[1])
    sstats = synchronize(field)
    astats = accumulate(field)
    delete_ghosts(dm)
    dm.verify()

    total_bytes = dm.counters.get("net.bytes.off_node") - distribute_bytes
    return {
        "distribute_wire_bytes": int(distribute_bytes),
        "elements_moved": elements_moved,
        "migrate_seconds": migrate_seconds,
        "migrate_wire_bytes": int(migrate_bytes),
        "total_wire_bytes": int(total_bytes),
        "ghost_wire_bytes": int(gstats.wire_bytes),
        "sync_wire_bytes": int(sstats.wire_bytes + astats.wire_bytes),
        "messages": int(dm.counters.get("net.messages.off_node")),
        "encoded_bytes": int(dm.counters.get("net.bytes.encoded")),
        "messages_coalesced": int(dm.counters.get("net.messages.coalesced")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small mesh for the CI perf gate",
    )
    args = parser.parse_args(argv)
    scale = "quick" if args.quick else "full"
    p = QUICK if args.quick else FULL
    budgets = BUDGETS[scale]

    # Wire bytes are deterministic; wall clock is not, so the full run
    # reports the best of 5 (the budgets only check bytes).
    runs = [run(p) for _ in range(1 if args.quick else 5)]
    assert len({r["total_wire_bytes"] for r in runs}) == 1
    best = min(runs, key=lambda r: r["migrate_seconds"])
    over = {
        key: (best[key], bound)
        for key, bound in budgets.items()
        if best[key] > bound
    }

    rows = ["phase,wire_bytes,budget"]
    for key, bound in budgets.items():
        rows.append(f"{key.replace('_wire_bytes', '')},{best[key]},{bound}")
    rows.append("")
    rows.append(f"migration seconds: {best['migrate_seconds']:.4f}")
    rows.append(f"off-node messages: {best['messages']}")

    write_result(
        "migration_codec",
        rows,
        extra={
            "params": p,
            "budget_scale": scale,
            "run": best,
            "budgets": budgets,
            "within_budget": not over,
        },
    )
    print("\n".join(rows))

    for key, (got, bound) in sorted(over.items()):
        print(
            f"FAIL: {key} {got} exceeds the pinned budget {bound}",
            file=sys.stderr,
        )
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
