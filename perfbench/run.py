"""The repository benchmark: ``pipeline``, ``churn`` and ``halo`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half under a
``repro.obs.Tracer`` and reports the per-layer metrics.  ``--workload all``
runs every workload both ways, each in its own process.  ``--out FILE``
appends the run's stamped record to a result file that
``perfbench/compare.py`` diffs.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
SETUP_REPEATS = 5
#: Nominal seconds of one ``reference_kernel`` call: its median on an
#: idle 2-vCPU x86-64 VM under Python 3.11.  Times are reported at the host
#: speed at which the kernel takes this long.
REFERENCE_S = 0.010


def _import_program():
    """Put the checkout's ``src`` first on the path; exit if it is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


class Ledger:
    """Operations attempted and failed: layer calls and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


def reference_kernel() -> None:
    """Fixed work of the program's kind: dict updates, a keyed sort and
    small numpy products.  It creates no object the garbage collector
    tracks, so no collection of the program's heap lands in it."""
    table = {}
    for i in range(40000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
    sorted(table, key=table.__getitem__)
    rows = np.arange(4096.0).reshape(1024, 4)
    total = 0.0
    for row in rows[::2]:
        total += float(row @ row)


class Clock:
    """Times the calls of one step; opens a span per call when tracing.

    On a shared machine the speed of this process can change by a third
    within seconds as other tenants load it.  Right after each call the
    clock times ``reference_kernel``, and it reports the call's wall time
    scaled by ``REFERENCE_S`` over the kernel's time: the call's time at
    the reference host speed.  ``wall`` keeps the unscaled sum.
    """

    def __init__(self, ledger: Ledger, tracer=None) -> None:
        self.ledger = ledger
        self.tracer = tracer
        self.elapsed = 0.0
        self.wall = 0.0
        self.kernel_s = []
        self.calls = {}

    @contextmanager
    def __call__(self, key: str):
        self.ledger.attempted += 1
        span = (self.tracer.span(key, layer=True) if self.tracer
                else nullcontext())
        with span:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                dt = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference_kernel()
        kernel = time.perf_counter() - t0
        self.kernel_s.append(kernel)
        scaled = dt * REFERENCE_S / kernel
        self.wall += dt
        self.elapsed += scaled
        self.calls[key] = self.calls.get(key, 0.0) + scaled


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of ``count`` beyond it.

    Below 20 samples no percentile above the median qualifies; the tail
    is then reported at the median.
    """
    return max(50, math.floor(100 * (1 - 10 / count)))


def measure(workload, seconds: float, ledger: Ledger, min_steps: int,
            tracer=None):
    """Run whole schedules of steps for ``seconds``, ``min_steps`` at least.

    Whole schedules keep the mix of inputs behind the timing statistics the
    same for every seed: churn's plans differ tenfold in cost, and a
    partial schedule would weight a seed-dependent subset of them.
    """
    from repro.parallel import GLOBAL

    records = []
    t_end = time.perf_counter() + seconds
    while (len(records) < min_steps or time.perf_counter() < t_end
           or len(records) % workload.schedule):
        clock = Clock(ledger, tracer)
        try:
            workload.prepare()
            before = GLOBAL.counters()
            counts = workload.step(clock, ledger)
        except Exception:  # a raised call is a failed operation
            traceback.print_exc()
            ledger.failed += 1
            break
        after = GLOBAL.counters()
        records.append({
            "seconds": clock.elapsed,
            "wall_s": clock.wall,
            "kernel_s": clock.kernel_s,
            "calls": clock.calls,
            "counts": counts,
            "counters": {k: v - before.get(k, 0) for k, v in after.items()},
        })
    return records


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(workload, setups, records, ledger) -> dict:
    # Counts come from the first schedule of inputs, which every run at a
    # seed executes in full, so they repeat exactly.  They are means over
    # it, so a change on any one of its steps shows.
    first = records[: workload.schedule]
    times = [r["seconds"] for r in records]
    # The percentile follows from the steps every run makes, not from how
    # many fit in the time, so a faster program keeps the same percentile.
    q = tail_percentile(workload.min_steps)
    return {
        "setup_s": statistics.median(setups),
        "step_s_p50": statistics.median(times),
        "step_s_tail": (percentile(times, q) if q > 50
                        else statistics.median(times)),
        "wire_bytes": mean(
            r["counters"].get("net.bytes.off_node", 0) for r in first),
        "supersteps": mean(
            r["counters"].get("net.exchanges", 0) for r in first),
        "vtx_imbalance": mean(r["counts"]["vtx_imbalance"] for r in first),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - ledger.failed / max(1, ledger.attempted),
    }, {"tail_percentile": q, "steps": len(times),
        "schedule": workload.schedule,
        "wall_s_p50": statistics.median(r["wall_s"] for r in records),
        "kernel_s_p50": statistics.median(
            k for r in records for k in r["kernel_s"])}


def per_layer(workload, untraced, traced, tracer, setup_calls) -> dict:
    from spans import Attribution

    attr = Attribution()
    attr.add(tracer.roots)
    steps = max(1, len(traced))
    timed = sum(r["wall_s"] for r in traced)

    def count(name):
        return mean(r["counts"].get(name, 0) for r in traced)

    def counter(name):
        return mean(r["counters"].get(name, 0) for r in traced)

    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s"):
            out[name] = attr.seconds(name[:-2]) / steps
        elif name in workload.setup_counts:
            out[name] = workload.setup_counts[name]
        else:
            out[name] = count(name)
    out["store.restart_s"] = sum(
        out[k] for k in ("store.save_full_s", "store.save_delta_s",
                         "store.load_at_s"))
    out["store.bytes_read"] = counter("store.bytes.read")
    out["partition.migrate_elements"] = counter("migration.elements")
    out["partition.migrate_wire_bytes"] = (
        attr.counter("partition.migrate", "net.bytes.off_node") / steps)
    out["partition.migrate_supersteps"] = (
        attr.counter("partition.migrate", "net.exchanges") / steps)
    out["partition.sync_values"] = counter("fieldsync.values")
    messages = sum(counter(f"net.messages.{kind}")
                   for kind in ("self", "on_node", "off_node"))
    coalesced = counter("net.messages.coalesced")
    out["parallel.messages"] = messages
    out["parallel.messages_coalesced"] = coalesced
    out["parallel.coalesce_ratio"] = coalesced / messages if messages else 0.0
    out["parallel.encoded_bytes"] = counter("net.bytes.encoded")
    out["parallel.off_node_bytes"] = counter("net.bytes.off_node")
    out["parallel.sf_ops"] = sum(counter(f"sf.ops.{op}") for op in
                                 ("bcast", "reduce", "fetch_and_op"))
    out["parallel.sf_s"] = attr.sf_s / steps

    # Table III: ParMA's time over T0's, per step; churn's T0 ran in set-up.
    t0 = [r["calls"].get("partitioners.hypergraph") for r in traced]
    if not any(t0):
        t0 = [setup_calls.get("partitioners.hypergraph")] * len(traced)
    ratios = [r["calls"]["core.improve"] / h for r, h in zip(traced, t0)
              if h and "core.improve" in r["calls"]]
    out["partitioners.parma_t0_ratio"] = (
        statistics.median(ratios) if ratios else 0.0)

    untraced_p50 = statistics.median(r["seconds"] for r in untraced)
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    out["obs.trace_overhead_pct"] = 100 * (traced_p50 - untraced_p50) / (
        untraced_p50)
    out["obs.span_coverage_pct"] = 100 * attr.program_s / timed
    return out


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def stamp(args, inputs, extra) -> dict:
    return {
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "inputs": {
            "mesh": f"box_tet({inputs.n})",
            "elements": inputs.elements,
            "parts_N": inputs.parts,
            "load_parts_M": inputs.load_parts,
            "overlap_depth": inputs.depth,
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }


def run_one(args) -> dict:
    _import_program()
    from repro.obs import Tracer, install, uninstall
    from repro.parallel import GLOBAL
    from suite import SCALES, WORKLOADS

    inputs = SCALES[args.scale][args.workload]
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    ledger = Ledger()
    try:
        workload = WORKLOADS[args.workload](args.seed, inputs, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_clock = Clock(Ledger())
            workload.setup(setup_clock)
            setups.append(setup_clock.elapsed)
        share = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(workload, share, ledger,
                           1 if args.trace else workload.min_steps)
        traced = []
        if args.trace and untraced:
            # Installed, the tracer also reaches meshes and stores that
            # steps build; attached, it reaches the set-up's mesh.
            tracer = install(Tracer(counters=GLOBAL))
            workload.attach_tracer(tracer)
            try:
                traced = measure(workload, share, ledger, 1, tracer=tracer)
            finally:
                uninstall()
                workload.attach_tracer(None)
        try:
            workload.finish(Clock(ledger), ledger)
        except Exception:
            traceback.print_exc()
            ledger.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if not untraced or (args.trace and not traced):
        ledger.failed = max(1, ledger.failed)
        metrics, extra = {}, {}
    elif args.trace:
        metrics = per_layer(workload, untraced, traced, tracer,
                            setup_clock.calls)
        extra = {"steps": len(traced)}
    else:
        metrics, extra = end_to_end(workload, setups, untraced, ledger)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }
    return {"schema": "perfbench/1",
            "stamp": stamp(args, inputs, extra), "result": result}


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in a child process."""
    records = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode or len(lines) < 2:
                sys.exit(f"perfbench: {workload} trace={trace} failed")
            record = {"schema": "perfbench/1",
                      "stamp": json.loads(lines[-2]),
                      "result": json.loads(lines[-1])}
            records.append(record)
            print_table(record)
    results = [r["result"] for r in records]
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{rec['stamp']['workload']}.{name}": value
            for rec in records
            for name, value in rec["result"]["metrics"].items()
        },
    }
    return {"records": records, "result": combined}


def print_table(record) -> None:
    workload = record["stamp"]["workload"]
    for name, metric in record["result"]["metrics"].items():
        print(f"{workload:<9} {name:<36} {metric['value']:>16.6g} "
              f"{metric['unit']}")


def write_out(path: Path, records) -> None:
    """Append records to a result file (``{"runs": [...]}``)."""
    data = {"runs": []}
    if path.is_file():
        data = json.loads(path.read_text())
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"),
                        default="bench")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.workload == "all":
        done = run_all(args)
        records, result = done["records"], done["result"]
    else:
        record = run_one(args)
        records, result = [record], record["result"]
        print_table(record)
        print(json.dumps(record["stamp"], sort_keys=True))
    if args.out is not None:
        write_out(args.out, records)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
