"""Deterministic fault injection for the simulated message-passing runtime.

Half-million-core Blue Gene/Q runs — the scale the paper's infrastructure
targets — treat rank failure and partial I/O as routine events, yet a clean
simulation never exercises those paths.  This module makes failure a
first-class, *reproducible* input: a :class:`FaultPlan` is a declarative,
JSON-loadable list of :class:`FaultSpec` entries (rank crashes at a chosen
superstep, message drop/duplicate/delay, payload corruption, slow ranks)
plus a seed, and a :class:`FaultInjector` executes the plan through hooks in
:meth:`repro.parallel.network.Network.post` /
:meth:`~repro.parallel.network.Network.exchange` and the
:func:`~repro.parallel.executor.spmd` executor.

Determinism contract: the same plan + seed + workload produces the same
failure trajectory.  Probabilistic faults draw from one seeded
``random.Random`` in posting order (which the BSP drivers make
deterministic), crashes fire at exact superstep indices, and every injection
is appended to :attr:`FaultInjector.records` so recovery drivers can
classify failures and observability can report them.

Fault kinds
-----------
``crash``
    Raise :class:`InjectedRankFailure` for ``rank`` when the network
    completes superstep ``superstep`` (the BSP equivalent of the rank's
    process dying mid-superstep).  With ``superstep`` omitted the crash
    instead fires when an ``spmd`` job starts that rank's thread.
``drop``
    Silently discard a posted message (lost wire packet).
``duplicate``
    Deliver a posted message twice (retransmission bug).
``delay``
    Hold a posted message back ``delay`` supersteps before delivery
    (violates BSP timing the way a congested link would).
``corrupt``
    Replace the payload with a :class:`CorruptedPayload` sentinel, so the
    receiver fails when it tries to use the message (bit-flipped wire data).
``slow``
    Busy the whole exchange for ``seconds`` when completing ``superstep``
    (a straggling rank; perturbs wall time, never results).

Message faults (``drop``/``duplicate``/``delay``/``corrupt``) select
messages by optional ``src``/``dst``/``superstep`` filters, fire with
``probability`` (seeded), and are limited to ``count`` injections
(``-1`` = unlimited).
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..parallel.codec import CorruptedPayload

__all__ = [
    "CorruptedPayload",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRecord",
    "FaultSpec",
    "InjectedFault",
    "InjectedRankFailure",
]

#: Fault kinds applied to individual posted messages.
MESSAGE_KINDS = ("drop", "duplicate", "delay", "corrupt")
#: Fault kinds applied to an endpoint (rank / part).
ENDPOINT_KINDS = ("crash", "slow")
VALID_KINDS = MESSAGE_KINDS + ENDPOINT_KINDS


class FaultPlanError(ValueError):
    """A fault plan failed validation (unknown kind, bad field, ...)."""


class InjectedFault(RuntimeError):
    """Base class of every failure raised by the injector.

    The class attribute ``injected_fault`` lets layers that must not import
    this module (the executor) classify exceptions without an isinstance
    check: ``getattr(exc, "injected_fault", False)``.
    """

    injected_fault = True


class InjectedRankFailure(InjectedFault):
    """A rank was killed by the fault plan."""

    def __init__(self, rank: int, superstep: Optional[int] = None) -> None:
        self.rank = rank
        self.superstep = superstep
        where = (
            f"at superstep {superstep}" if superstep is not None
            else "at rank start"
        )
        super().__init__(f"injected crash of rank {rank} {where}")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.  See the module docstring for kind semantics."""

    kind: str
    rank: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    superstep: Optional[int] = None
    probability: float = 1.0
    count: int = 1
    delay: int = 1
    seconds: float = 0.0

    def validate(self) -> None:
        if self.kind not in VALID_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(VALID_KINDS)}"
            )
        if self.kind in ENDPOINT_KINDS and self.rank is None:
            raise FaultPlanError(f"{self.kind} fault needs a 'rank'")
        if self.kind == "slow" and self.superstep is None:
            raise FaultPlanError("slow fault needs a 'superstep'")
        if not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.count == 0 or self.count < -1:
            raise FaultPlanError(
                f"count must be positive or -1 (unlimited), got {self.count}"
            )
        if self.kind == "delay" and self.delay < 1:
            raise FaultPlanError(f"delay must be >= 1, got {self.delay}")
        if self.seconds < 0:
            raise FaultPlanError(f"seconds must be >= 0, got {self.seconds}")

    def matches_message(self, src: int, dst: int, superstep: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.superstep is None or self.superstep == superstep)
        )

    def to_dict(self) -> Dict[str, Any]:
        """Compact dict form: defaults omitted (stable for JSON round-trip)."""
        defaults = FaultSpec(kind=self.kind)
        out: Dict[str, Any] = {"kind": self.kind}
        for name, value in asdict(self).items():
            if name != "kind" and value != getattr(defaults, name):
                out[name] = value
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered list of faults — the declarative chaos scenario."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in self.specs:
            spec.validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"fault plan must be an object, got {doc!r}")
        unknown = set(doc) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys {sorted(unknown)}; "
                "expected 'seed' and 'faults'"
            )
        specs = []
        allowed = set(FaultSpec.__dataclass_fields__)
        for i, raw in enumerate(doc.get("faults", [])):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"fault #{i} must be an object")
            bad = set(raw) - allowed
            if bad:
                raise FaultPlanError(
                    f"fault #{i}: unknown keys {sorted(bad)}; "
                    f"allowed: {sorted(allowed)}"
                )
            if "kind" not in raw:
                raise FaultPlanError(f"fault #{i} is missing 'kind'")
            specs.append(FaultSpec(**raw))
        return cls(specs=tuple(specs), seed=int(doc.get("seed", 0)))

    @classmethod
    def from_json(cls, text_or_path: Union[str, Path]) -> "FaultPlan":
        """Parse a plan from a JSON string or a path to a JSON file."""
        if isinstance(text_or_path, Path):
            text = text_or_path.read_text()
        else:
            text = text_or_path
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


@dataclass(frozen=True)
class FaultRecord:
    """One executed injection, in trajectory order."""

    kind: str
    superstep: int
    rank: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in asdict(self).items() if v not in (None, "")}


class FaultInjector:
    """Executes a :class:`FaultPlan` against the runtime's hook points.

    One injector instance carries the whole trajectory: the global superstep
    counter (incremented by every :meth:`Network.exchange
    <repro.parallel.network.Network.exchange>` it is attached to), the
    per-spec remaining-injection budgets, the seeded RNG, delayed messages
    in flight, and the append-only :attr:`records` trail.  Attach the same
    injector across checkpoint/restore cycles so consumed one-shot faults
    do not re-fire on re-execution — that is what makes recovery converge.

    Thread-safe: ``spmd`` rank threads may post through a hooked network
    concurrently.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._remaining: List[int] = [spec.count for spec in plan.specs]
        self._superstep = 0
        self._delayed: List[Tuple[int, int, int, int, Any]] = []
        self._lock = threading.Lock()
        #: Executed injections, in order.  Append-only.
        self.records: List[FaultRecord] = []

    # -- introspection ------------------------------------------------------

    @property
    def superstep(self) -> int:
        """Index of the superstep currently being assembled."""
        return self._superstep

    def record_count(self) -> int:
        with self._lock:
            return len(self.records)

    def stats(self) -> Dict[str, int]:
        """Injection counts by kind (for metrics documents)."""
        with self._lock:
            out: Dict[str, int] = {}
            for record in self.records:
                out[record.kind] = out.get(record.kind, 0) + 1
            return out

    # -- internal helpers ---------------------------------------------------

    def _consume(self, index: int) -> bool:
        """Use one injection budget of spec ``index`` (caller holds lock)."""
        left = self._remaining[index]
        if left == 0:
            return False
        if left > 0:
            self._remaining[index] = left - 1
        return True

    def _roll(self, spec: FaultSpec) -> bool:
        return spec.probability >= 1.0 or self._rng.random() < spec.probability

    def _record(self, record: FaultRecord) -> None:
        self.records.append(record)

    # -- network hooks ------------------------------------------------------

    def on_post(
        self, src: int, dst: int, tag: int, payload: Any
    ) -> List[Tuple[int, int, int, Any]]:
        """Filter one posted message; returns the messages to enqueue.

        Called by :meth:`Network.post`.  May return zero (drop/delay), one
        (pass-through or corrupt) or two (duplicate) messages.
        """
        with self._lock:
            step = self._superstep
            out = [(src, dst, tag, payload)]
            for i, spec in enumerate(self.plan.specs):
                if spec.kind not in MESSAGE_KINDS:
                    continue
                if self._remaining[i] == 0:
                    continue
                if not spec.matches_message(src, dst, step):
                    continue
                if not self._roll(spec):
                    continue
                if not self._consume(i):
                    continue
                if spec.kind == "drop":
                    self._record(
                        FaultRecord("drop", step, src=src, dst=dst)
                    )
                    return []
                if spec.kind == "duplicate":
                    out.append((src, dst, tag, payload))
                    self._record(
                        FaultRecord("duplicate", step, src=src, dst=dst)
                    )
                elif spec.kind == "delay":
                    release = step + spec.delay
                    self._delayed.append((release, src, dst, tag, payload))
                    self._record(
                        FaultRecord(
                            "delay", step, src=src, dst=dst,
                            detail=f"released at superstep {release}",
                        )
                    )
                    return []
                elif spec.kind == "corrupt":
                    corrupted = CorruptedPayload(type(payload).__name__)
                    out = [(s, d, t, corrupted) for s, d, t, _p in out]
                    self._record(
                        FaultRecord("corrupt", step, src=src, dst=dst)
                    )
            return out

    def on_exchange(self) -> List[Tuple[int, int, int, Any]]:
        """Superstep-boundary hook, called at the start of every exchange.

        Fires any ``crash``/``slow`` fault scheduled for the superstep now
        completing, and returns delayed messages whose release superstep has
        arrived (the caller enqueues them into this exchange).
        """
        sleep_for = 0.0
        with self._lock:
            step = self._superstep
            for i, spec in enumerate(self.plan.specs):
                if spec.superstep != step or self._remaining[i] == 0:
                    continue
                if spec.kind == "crash" and self._consume(i):
                    self._record(
                        FaultRecord("crash", step, rank=spec.rank)
                    )
                    raise InjectedRankFailure(spec.rank, superstep=step)
                if spec.kind == "slow" and self._consume(i):
                    self._record(
                        FaultRecord(
                            "slow", step, rank=spec.rank,
                            detail=f"{spec.seconds}s",
                        )
                    )
                    sleep_for += spec.seconds
            released = [
                (src, dst, tag, payload)
                for when, src, dst, tag, payload in self._delayed
                if when <= step
            ]
            self._delayed = [
                item for item in self._delayed if item[0] > step
            ]
        if sleep_for > 0:
            time.sleep(sleep_for)
        return released

    def end_superstep(self) -> None:
        """Advance the superstep counter (end of every exchange)."""
        with self._lock:
            self._superstep += 1

    # -- executor hook ------------------------------------------------------

    def on_rank_start(self, rank: int) -> None:
        """Crash hook for ``spmd`` rank threads (specs without a superstep)."""
        with self._lock:
            for i, spec in enumerate(self.plan.specs):
                if (
                    spec.kind == "crash"
                    and spec.rank == rank
                    and spec.superstep is None
                    and self._remaining[i] != 0
                    and self._consume(i)
                ):
                    self._record(
                        FaultRecord("crash", self._superstep, rank=rank)
                    )
                    raise InjectedRankFailure(rank)

    def __repr__(self) -> str:
        return (
            f"FaultInjector({len(self.plan.specs)} specs, "
            f"superstep={self._superstep}, records={len(self.records)})"
        )
