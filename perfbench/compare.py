"""Per-workload, per-metric deltas between two benchmark result files.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out old.json
    ... change the program ...
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out new.json
    python3 perfbench/compare.py old.json new.json

Runs are matched by workload and trace mode.  A change in an exact count
(the ``exact`` list of ``perfbench/layers.json``: wire bytes, supersteps,
imbalance, element and store byte counts) between runs at the same seed and
inputs is flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXACT = frozenset(
    json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
    ["exact"]
)
#: Stamp fields that must agree for exact counts to be comparable.
SAME_INPUTS = ("seed", "scale", "inputs")


def load(path: Path) -> dict:
    """``{(workload, trace): record}``; a later run replaces an earlier."""
    runs = json.loads(path.read_text())["runs"]
    return {(r["stamp"]["workload"], r["stamp"]["trace"]): r for r in runs}


def compare(old: dict, new: dict, out=sys.stdout) -> int:
    """Print the deltas; returns the number of exact counts that changed."""
    flagged = 0
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        comparable = all(a["stamp"].get(f) == b["stamp"].get(f)
                         for f in SAME_INPUTS)
        kind = "per-layer" if key[1] else "end-to-end"
        print(f"== {key[0]} ({kind}) {a['stamp'].get('git_rev', '?')[:12]}"
              f" -> {b['stamp'].get('git_rev', '?')[:12]}", file=out)
        if not comparable:
            print("   seeds or inputs differ: exact counts not compared",
                  file=out)
        ma, mb = a["result"]["metrics"], b["result"]["metrics"]
        for name in sorted(ma.keys() | mb.keys()):
            if name not in ma or name not in mb:
                side = "old" if name in ma else "new"
                print(f"   {name:<36} only in {side}", file=out)
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            pct = f"{100 * (vb - va) / va:+.1f}%" if va else "n/a"
            flag = ""
            if comparable and name in EXACT and va != vb:
                flag = "  EXACT COUNT CHANGED"
                flagged += 1
            print(f"   {name:<36} {va:>14.6g} -> {vb:<14.6g} {pct:>8} "
                  f"{ma[name]['unit']}{flag}", file=out)
    for key in sorted(old.keys() ^ new.keys()):
        side = "old" if key in old else "new"
        print(f"== {key[0]} (trace={key[1]}) only in {side}", file=out)
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return 1 if compare(load(args.old), load(args.new)) else 0


if __name__ == "__main__":
    sys.exit(main())
