"""Per-layer attribution of a traced benchmark run.

The benchmark opens one span around every call it makes into the program,
named by the metric key of the layer it calls (``partition.ghost``,
``core.improve``, ``store.load_at``, ...) and marked with the ``layer``
argument.  The program's own spans
(``migrate.*``, ``ghost_layer.layerN``, ``improve.*``, ``sf.*``,
``store.save``/``store.load``, ``synchronize``) nest beneath them.

Time is attributed exclusively: every instant of a span belongs to the
innermost enclosing span that carries a key.  A program span without a key
of its own counts toward the key it sits in.  Only the migration spans carry
keys of their own, because ParMA migrates from inside ``core.improve`` and
that time belongs to the partition layer.

``sf.*`` spans are the exception to exclusivity: a star-forest operation
runs its caller's pack and unpack callbacks inside its span, so charging it
to ``parallel`` would move ghost and migration unpack work out of their
layers.  SF time therefore stays with the calling layer and is also summed,
overlapping, into ``parallel.sf_s``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict

#: Program span names that carry a metric key of their own.
PROGRAM_KEYS = {
    "migrate": "partition.migrate",
    "migrate.pack": "partition.migrate.pack",
    "migrate.unpack": "partition.migrate.unpack",
    "migrate.remove": "partition.migrate.remove",
    "migrate.relink": "partition.migrate.relink",
}


def is_layer_span(span) -> bool:
    """True for the spans the benchmark opens around its calls."""
    return bool(span.args.get("layer"))


class Attribution:
    """Self time and counter deltas per metric key over traced root spans."""

    def __init__(self) -> None:
        #: Exclusive seconds per key.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Counter deltas of the outermost span of each key run.
        self.counters: Dict[str, Counter] = defaultdict(Counter)
        #: Seconds under outermost ``sf.*`` spans.
        self.sf_s = 0.0
        #: Seconds under the outermost spans the program emits itself.
        self.program_s = 0.0

    def add(self, roots) -> None:
        """Attribute completed root spans; only the benchmark's count.

        Program spans at the root ran outside the timed calls (churn's
        untimed re-distribution).
        """
        for root in roots:
            if is_layer_span(root):
                self._walk(root, None, in_program=False, in_sf=False)

    def _walk(self, span, parent_key, in_program: bool, in_sf: bool) -> None:
        program = not is_layer_span(span)
        own = PROGRAM_KEYS.get(span.name) if program else span.name
        key = own or parent_key
        if key != parent_key:
            self.counters[key].update(span.counter_deltas)
        if program and not in_program:
            self.program_s += span.seconds
        sf = span.name.startswith("sf.")
        if sf and not in_sf:
            self.sf_s += span.seconds
        children = span.children
        self.self_s[key] += span.seconds - sum(c.seconds for c in children)
        for child in children:
            self._walk(child, key, in_program or program, in_sf or sf)

    def seconds(self, key: str) -> float:
        """Self time of ``key`` plus every sub-key ``key.*`` beneath it."""
        prefix = key + "."
        return sum(
            value for name, value in self.self_s.items()
            if name == key or name.startswith(prefix)
        )

    def counter(self, key: str, name: str) -> int:
        return int(self.counters[key].get(name, 0))
