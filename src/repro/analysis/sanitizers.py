"""Runtime sanitizers for the simulated message-passing runtime.

Three dynamic checks mirror the lint's hazard classes; all three are enabled
by passing ``sanitize=True`` to :func:`repro.parallel.executor.spmd`,
:class:`repro.parallel.comm.CommWorld` or
:class:`repro.parallel.network.Network`, or globally with the
``REPRO_SANITIZE=1`` environment variable:

* **alias sanitizer** — payloads delivered *by reference* (self messages,
  on-node messages, and the trusted ``copy_off_node=False`` channel) are
  wrapped by :func:`freeze` into read-only containers; any in-place mutation
  raises :class:`PayloadAliasError` at the mutation site instead of silently
  corrupting the sender.  Frozen containers subclass ``list``/``dict``/``set``
  so ``isinstance`` checks and equality keep working, and their
  ``__reduce__`` copies back to the *plain* type, so a
  :class:`~repro.parallel.comm.CommWorld` off-node copy of a frozen payload
  is mutable again (exactly the MPI distributed-memory semantics).  The part
  network's closed binary codec encodes only the plain types, so forwarding
  a frozen payload off-node raises
  :class:`~repro.parallel.codec.CodecError` — copy it first.  NumPy arrays
  are frozen as read-only views (NumPy raises its own ``ValueError`` on
  write).

* **collective-order sanitizer** — every collective entry stamps
  ``(context, sequence) -> operation`` into a world-level ledger; the first
  rank to arrive records, later ranks compare, and an op mismatch raises
  :class:`CollectiveMismatchError` naming both ranks and operations —
  immediately, instead of the cross-matched hang MPI gives you.

* **deadlock detector** — a blocking receive with a concrete source
  registers a wait-for edge in the world's wait-for graph; the registration
  that closes a cycle raises :class:`DeadlockError` describing the full cycle
  instead of timing out after the world's deadlock timeout.

This module is dependency-free (NumPy optional) so :mod:`repro.parallel` can
import it without cycles.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Tuple

try:  # NumPy is a hard dependency of the repo, but keep the sanitizer usable
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None


def sanitize_default() -> bool:
    """Resolve the ambient sanitize mode from ``REPRO_SANITIZE``."""
    return os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0", "off")


class SanitizerError(RuntimeError):
    """Base class for runtime-sanitizer violations."""


class PayloadAliasError(SanitizerError):
    """A receiver mutated a payload that is shared with its sender."""


class CollectiveMismatchError(SanitizerError):
    """Two ranks entered different collectives at the same sequence slot."""


class DeadlockError(SanitizerError):
    """A cycle of blocking receives can never be satisfied."""


def _refuse(kind: str, op: str) -> None:
    raise PayloadAliasError(
        f"{kind}.{op}() on a message payload delivered by reference: the "
        f"object is shared with the sender (on-node shared-memory message); "
        f"copy it first, e.g. list(payload) / dict(payload)"
    )


class FrozenList(list):
    """A ``list`` whose mutators raise :class:`PayloadAliasError`.

    Subclasses ``list`` so receivers' ``isinstance``/equality/iteration all
    behave; pickling reduces to a plain ``list`` so off-node copies thaw.
    """

    def _blocked(self, op: str, *_a: Any, **_k: Any) -> None:
        _refuse("list", op)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (list, (list(self),))

    def append(self, *a: Any, **k: Any) -> None:
        self._blocked("append")

    def extend(self, *a: Any, **k: Any) -> None:
        self._blocked("extend")

    def insert(self, *a: Any, **k: Any) -> None:
        self._blocked("insert")

    def remove(self, *a: Any, **k: Any) -> None:
        self._blocked("remove")

    def pop(self, *a: Any, **k: Any) -> None:
        self._blocked("pop")

    def clear(self, *a: Any, **k: Any) -> None:
        self._blocked("clear")

    def sort(self, *a: Any, **k: Any) -> None:
        self._blocked("sort")

    def reverse(self, *a: Any, **k: Any) -> None:
        self._blocked("reverse")

    def __setitem__(self, *a: Any) -> None:
        self._blocked("__setitem__")

    def __delitem__(self, *a: Any) -> None:
        self._blocked("__delitem__")

    def __iadd__(self, other: Any) -> "FrozenList":
        self._blocked("__iadd__")
        return self  # pragma: no cover - _blocked always raises

    def __imul__(self, other: Any) -> "FrozenList":
        self._blocked("__imul__")
        return self  # pragma: no cover - _blocked always raises


class FrozenDict(dict):
    """A ``dict`` whose mutators raise :class:`PayloadAliasError`."""

    def _blocked(self, op: str, *_a: Any, **_k: Any) -> None:
        _refuse("dict", op)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (dict, (dict(self),))

    def __setitem__(self, *a: Any) -> None:
        self._blocked("__setitem__")

    def __delitem__(self, *a: Any) -> None:
        self._blocked("__delitem__")

    def update(self, *a: Any, **k: Any) -> None:
        self._blocked("update")

    def setdefault(self, *a: Any, **k: Any) -> None:
        self._blocked("setdefault")

    def pop(self, *a: Any, **k: Any) -> None:
        self._blocked("pop")

    def popitem(self, *a: Any, **k: Any) -> None:
        self._blocked("popitem")

    def clear(self, *a: Any, **k: Any) -> None:
        self._blocked("clear")

    def __ior__(self, other: Any) -> "FrozenDict":
        self._blocked("__ior__")
        return self  # pragma: no cover - _blocked always raises


class FrozenSet(set):
    """A ``set`` whose mutators raise :class:`PayloadAliasError`.

    (``frozenset`` is not a ``set`` subclass, so receivers doing
    ``isinstance(x, set)`` would break; this proxy keeps them working.)
    """

    def _blocked(self, op: str, *_a: Any, **_k: Any) -> None:
        _refuse("set", op)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (set, (set(self),))

    def add(self, *a: Any, **k: Any) -> None:
        self._blocked("add")

    def discard(self, *a: Any, **k: Any) -> None:
        self._blocked("discard")

    def remove(self, *a: Any, **k: Any) -> None:
        self._blocked("remove")

    def pop(self, *a: Any, **k: Any) -> None:
        self._blocked("pop")

    def clear(self, *a: Any, **k: Any) -> None:
        self._blocked("clear")

    def update(self, *a: Any, **k: Any) -> None:
        self._blocked("update")

    def difference_update(self, *a: Any, **k: Any) -> None:
        self._blocked("difference_update")

    def intersection_update(self, *a: Any, **k: Any) -> None:
        self._blocked("intersection_update")

    def symmetric_difference_update(self, *a: Any, **k: Any) -> None:
        self._blocked("symmetric_difference_update")

    def __ior__(self, other: Any) -> "FrozenSet":
        self._blocked("__ior__")
        return self  # pragma: no cover - _blocked always raises

    def __iand__(self, other: Any) -> "FrozenSet":
        self._blocked("__iand__")
        return self  # pragma: no cover - _blocked always raises

    def __isub__(self, other: Any) -> "FrozenSet":
        self._blocked("__isub__")
        return self  # pragma: no cover - _blocked always raises

    def __ixor__(self, other: Any) -> "FrozenSet":
        self._blocked("__ixor__")
        return self  # pragma: no cover - _blocked always raises


def freeze(obj: Any) -> Any:
    """Return a recursively read-only view/copy of ``obj``.

    Containers become frozen proxies (one shallow copy per level — the
    sanitizer trades a copy for the mutation trap); NumPy arrays become
    read-only views sharing the buffer; scalars and unknown objects pass
    through unchanged (arbitrary objects cannot be frozen generically —
    the AST lint's SPMD003 is the net for those).
    """
    if isinstance(obj, (FrozenList, FrozenDict, FrozenSet)):
        return obj
    if isinstance(obj, list):
        return FrozenList(freeze(item) for item in obj)
    if isinstance(obj, tuple):
        return tuple(freeze(item) for item in obj)
    if isinstance(obj, dict):
        return FrozenDict((key, freeze(value)) for key, value in obj.items())
    if isinstance(obj, set):
        return FrozenSet(freeze(item) for item in obj)
    if isinstance(obj, bytearray):
        return bytes(obj)
    if _np is not None and isinstance(obj, _np.ndarray):
        view = obj.view()
        view.flags.writeable = False
        return view
    return obj


def format_wait_cycle(cycle: Iterable[Tuple[int, Any]]) -> str:
    """Render a wait-for cycle as ``rank A waits for rank B (…)`` clauses.

    ``cycle`` is a sequence of ``(rank, (ctx, source, tag))`` entries; tags
    use the communicator's internal channel encoding, which is translated
    back to user-facing language here.
    """
    clauses = []
    for rank, (_ctx, source, tag) in cycle:
        if isinstance(tag, tuple) and tag and tag[0] == 0:
            what = f"tag {tag[1]}"
        elif isinstance(tag, tuple) and tag and tag[0] == 1:
            what = f"collective {tag[1]!r} #{tag[2]}"
        else:
            what = f"tag {tag!r}"
        clauses.append(f"rank {rank} waits for rank {source} ({what})")
    return "; ".join(clauses)
