"""Typed inter-job channels carrying binary-codec field frames.

The coupling hub's transport layer.  A :class:`ChannelSpec` declares one
directed coupling between two jobs of a service job graph — the source job
produces field frames, the destination consumes them, and an optional chain
of :class:`TransformSpec` stages (scale / time-window / interpolate, in the
EBRAINS-InterscaleHUB style) is applied to forward values in between.

Frames are byte-deterministic: a :class:`FieldFrame` encodes through the
coalesced binary codec (:func:`repro.parallel.codec.dumps`) with the fixed
``repro.couple/1`` wire schema, so the byte stream on a channel is a pure
function of the workload's data — two identical coupled runs ship identical
bytes, which is what keeps the service report byte-identical too.

A :class:`Channel` is the live bidirectional pipe (bounded deques, condition
variables) between two *concurrently running* gangs; :class:`Endpoint` is
one job's role-typed view of it, and :class:`ChannelHub` owns the channels
of one job graph, hands each job its ports, and closes a job's channels
when it settles so a surviving peer fails fast instead of blocking forever.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..parallel.codec import CodecError, dumps, loads
from ..parallel.perf import GLOBAL, PerfCounters

__all__ = [
    "FRAME_SCHEMA",
    "TRANSFORM_KINDS",
    "Channel",
    "ChannelClosedError",
    "ChannelHub",
    "ChannelSpec",
    "CoupleError",
    "Endpoint",
    "FieldFrame",
    "TransformSpec",
]

#: Wire schema tag of every frame on every channel.
FRAME_SCHEMA = "repro.couple/1"

#: Transformer stages a channel may declare, applied in order to forward
#: ("values") frames: ``interpolate`` marks the cross-mesh interpolation
#: (performed by the sampling side; identity on the frame), ``scale``
#: multiplies by ``param``, ``time-window`` averages the last ``param``
#: frames (a moving window in sequence numbers).
TRANSFORM_KINDS = ("interpolate", "scale", "time-window")

#: Frame kinds: ``points`` (query coordinates, dst -> src handshake),
#: ``values`` (sampled field data, src -> dst).
FRAME_KINDS = ("points", "values")


class CoupleError(RuntimeError):
    """A coupling-layer failure (bad spec, closed channel, timeout)."""


class ChannelClosedError(CoupleError):
    """The peer's job settled and the channel was drained."""


@dataclass(frozen=True)
class TransformSpec:
    """One declarative transformer stage of a channel."""

    kind: str
    param: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise CoupleError(
                f"unknown transform kind {self.kind!r}; "
                f"expected one of {TRANSFORM_KINDS}"
            )
        if self.kind == "time-window" and (
            self.param < 1 or self.param != int(self.param)
        ):
            raise CoupleError(
                f"time-window width must be a positive integer, "
                f"got {self.param}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "param": self.param}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TransformSpec":
        unknown = set(doc) - {"kind", "param"}
        if unknown:
            raise CoupleError(f"unknown transform field(s): {sorted(unknown)}")
        if "kind" not in doc:
            raise CoupleError("a transform needs a 'kind'")
        return cls(kind=str(doc["kind"]), param=float(doc.get("param", 1.0)))


@dataclass(frozen=True)
class ChannelSpec:
    """One directed coupling: ``src`` job's field flows to the ``dst`` job."""

    name: str
    src: str
    dst: str
    field: str = "u"
    ncomp: int = 1
    transforms: Tuple[TransformSpec, ...] = ()
    capacity: int = 64

    def __post_init__(self) -> None:
        for attr in ("name", "src", "dst", "field"):
            value = getattr(self, attr)
            if not value or not isinstance(value, str):
                raise CoupleError(
                    f"channel {attr} must be a non-empty string, got {value!r}"
                )
        if self.src == self.dst:
            raise CoupleError(
                f"channel {self.name!r} couples job {self.src!r} to itself"
            )
        if self.ncomp < 1:
            raise CoupleError(f"ncomp must be >= 1, got {self.ncomp}")
        if self.capacity < 1:
            raise CoupleError(f"capacity must be >= 1, got {self.capacity}")
        object.__setattr__(self, "transforms", tuple(self.transforms))

    def jobs(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "src": self.src,
            "dst": self.dst,
            "field": self.field,
            "ncomp": self.ncomp,
            "capacity": self.capacity,
        }
        if self.transforms:
            doc["transforms"] = [t.to_dict() for t in self.transforms]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ChannelSpec":
        known = {"name", "src", "dst", "field", "ncomp", "transforms",
                 "capacity"}
        unknown = set(doc) - known
        if unknown:
            raise CoupleError(f"unknown channel field(s): {sorted(unknown)}")
        for key in ("name", "src", "dst"):
            if key not in doc:
                raise CoupleError(f"a channel needs '{key}'")
        transforms = doc.get("transforms", [])
        if not isinstance(transforms, (list, tuple)):
            raise CoupleError("channel transforms must be a list")
        return cls(
            name=str(doc["name"]),
            src=str(doc["src"]),
            dst=str(doc["dst"]),
            field=str(doc.get("field", "u")),
            ncomp=int(doc.get("ncomp", 1)),
            transforms=tuple(
                t if isinstance(t, TransformSpec) else TransformSpec.from_dict(t)
                for t in transforms
            ),
            capacity=int(doc.get("capacity", 64)),
        )


@dataclass(frozen=True)
class FieldFrame:
    """One unit of channel traffic: a batch of field values or points."""

    channel: str
    kind: str
    seq: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in FRAME_KINDS:
            raise CoupleError(
                f"unknown frame kind {self.kind!r}; expected {FRAME_KINDS}"
            )
        if self.seq < 0:
            raise CoupleError(f"frame seq must be >= 0, got {self.seq}")
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 2:
            raise CoupleError(
                f"frame values must be 2-D (n, ncomp), got {values.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def ncomp(self) -> int:
        return int(self.values.shape[1])

    def digest(self) -> int:
        """CRC-32 of the canonical payload bytes (deterministic)."""
        return zlib.crc32(self.values.tobytes())

    def encode(self) -> bytes:
        """The frame's ``repro.couple/1`` binary wire form."""
        return dumps(
            {
                "schema": FRAME_SCHEMA,
                "channel": self.channel,
                "kind": self.kind,
                "seq": self.seq,
                "values": self.values,
            }
        )

    @classmethod
    def decode(cls, blob: bytes) -> "FieldFrame":
        try:
            doc = loads(blob)
        except CodecError as exc:
            raise CoupleError(
                f"undecodable {FRAME_SCHEMA} frame: {exc}"
            ) from None
        if not isinstance(doc, dict) or doc.get("schema") != FRAME_SCHEMA:
            raise CoupleError(
                f"not a {FRAME_SCHEMA} frame: "
                f"{doc.get('schema') if isinstance(doc, dict) else type(blob)}"
            )
        return cls(
            channel=str(doc["channel"]),
            kind=str(doc["kind"]),
            seq=int(doc["seq"]),
            values=doc["values"],
        )


class _Direction:
    """One direction of a channel: a bounded deque of encoded frames."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.frames: Deque[bytes] = deque()
        self.cond = threading.Condition()
        self.closed = False
        self.sent_frames = 0
        self.sent_bytes = 0

    def put(self, blob: bytes, timeout: Optional[float]) -> None:
        with self.cond:
            if not self.cond.wait_for(
                lambda: self.closed or len(self.frames) < self.capacity,
                timeout=timeout,
            ):
                raise CoupleError("channel send timed out (peer not draining)")
            if self.closed:
                raise ChannelClosedError("cannot send on a closed channel")
            self.frames.append(blob)
            self.sent_frames += 1
            self.sent_bytes += len(blob)
            self.cond.notify_all()

    def get(self, timeout: Optional[float]) -> bytes:
        with self.cond:
            if not self.cond.wait_for(
                lambda: self.closed or self.frames, timeout=timeout
            ):
                raise CoupleError("channel recv timed out (peer not sending)")
            if self.frames:
                blob = self.frames.popleft()
                self.cond.notify_all()
                return blob
            raise ChannelClosedError(
                "channel closed by peer and fully drained"
            )

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()


class Channel:
    """The live bidirectional pipe declared by one :class:`ChannelSpec`.

    ``fwd`` carries src→dst traffic (sampled values), ``rev`` dst→src (the
    query-point handshake).  Send/recv are thread-safe and blocking with a
    timeout; a closed channel drains its remaining frames, then raises
    :class:`ChannelClosedError` — waking any peer blocked on it.
    """

    def __init__(
        self, spec: ChannelSpec, counters: Optional[PerfCounters] = None
    ) -> None:
        self.spec = spec
        self.counters = counters if counters is not None else GLOBAL
        self._fwd = _Direction(spec.capacity)
        self._rev = _Direction(spec.capacity)

    def _dir(self, sender_role: str) -> _Direction:
        return self._fwd if sender_role == "src" else self._rev

    def send(
        self, sender_role: str, frame: FieldFrame,
        timeout: Optional[float] = None,
    ) -> int:
        """Encode and enqueue ``frame``; returns the wire byte count."""
        blob = frame.encode()
        self._dir(sender_role).put(blob, timeout)
        self.counters.add("couple.frames.sent")
        self.counters.add("couple.bytes.sent", len(blob))
        return len(blob)

    def recv(
        self, receiver_role: str, timeout: Optional[float] = None
    ) -> FieldFrame:
        """Dequeue and decode the next frame addressed to ``receiver_role``."""
        sender = "src" if receiver_role == "dst" else "dst"
        blob = self._dir(sender).get(timeout)
        self.counters.add("couple.frames.received")
        return FieldFrame.decode(blob)

    def close(self) -> None:
        self._fwd.close()
        self._rev.close()

    @property
    def closed(self) -> bool:
        return self._fwd.closed and self._rev.closed

    def stats(self) -> Dict[str, int]:
        """Deterministic per-channel traffic accounting."""
        return {
            "frames_fwd": self._fwd.sent_frames,
            "bytes_fwd": self._fwd.sent_bytes,
            "frames_rev": self._rev.sent_frames,
            "bytes_rev": self._rev.sent_bytes,
        }


class Endpoint:
    """One job's role-typed view of a channel.

    The ``src`` endpoint's :meth:`send_values` applies the channel's
    declared transformer stages (in order) before the frame is encoded —
    the InterscaleHUB pattern of transformation *between* the communicator
    groups — so workloads push raw samples and the spec decides what the
    peer sees.  Stage state (the time-window history) lives on the
    endpoint, created fresh per job run.
    """

    def __init__(self, channel: Channel, role: str) -> None:
        if role not in ("src", "dst"):
            raise CoupleError(f"endpoint role must be src/dst, got {role!r}")
        self.channel = channel
        self.role = role
        from .xfer import build_stages  # local: avoid import cycle

        self._stages = build_stages(channel.spec.transforms)

    @property
    def spec(self) -> ChannelSpec:
        return self.channel.spec

    def send(self, frame: FieldFrame, timeout: Optional[float] = None) -> int:
        return self.channel.send(self.role, frame, timeout=timeout)

    def recv(self, timeout: Optional[float] = None) -> FieldFrame:
        return self.channel.recv(self.role, timeout=timeout)

    def send_points(
        self, points: np.ndarray, timeout: Optional[float] = None
    ) -> int:
        """dst -> src handshake: ship the query coordinates (seq 0)."""
        frame = FieldFrame(
            channel=self.spec.name, kind="points", seq=0,
            values=np.asarray(points, dtype=float),
        )
        return self.send(frame, timeout=timeout)

    def send_values(
        self, seq: int, values: np.ndarray, timeout: Optional[float] = None
    ) -> FieldFrame:
        """src -> dst data: apply the transform stages, frame, send.

        Returns the (transformed) frame actually shipped so the sender can
        record its digest.
        """
        from .xfer import apply_stages

        out = apply_stages(self._stages, np.asarray(values, dtype=float), seq)
        frame = FieldFrame(
            channel=self.spec.name, kind="values", seq=seq, values=out
        )
        self.send(frame, timeout=timeout)
        return frame


class ChannelHub:
    """The channels of one job graph, keyed for per-job port lookup.

    Built by :meth:`repro.svc.MeshJobService.serve_graph`; each scheduled
    job receives ``ports_for(job)`` — ``{channel name: Endpoint}`` — as the
    extra argument of its rank program.  When a job settles, the service
    calls :meth:`job_done`, closing every channel it touches: a peer still
    running drains the remaining frames and then observes
    :class:`ChannelClosedError` instead of blocking forever.
    """

    def __init__(
        self,
        specs: Sequence[ChannelSpec],
        counters: Optional[PerfCounters] = None,
    ) -> None:
        names = [spec.name for spec in specs]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise CoupleError(f"duplicate channel name(s): {dupes}")
        self.channels: Dict[str, Channel] = {
            spec.name: Channel(spec, counters=counters) for spec in specs
        }
        self._by_job: Dict[str, List[str]] = {}
        for spec in specs:
            self._by_job.setdefault(spec.src, []).append(spec.name)
            self._by_job.setdefault(spec.dst, []).append(spec.name)

    def channel_names(self, job: str) -> List[str]:
        """Names of channels binding ``job``, sorted."""
        return sorted(self._by_job.get(job, []))

    def peer_jobs(self, job: str) -> List[str]:
        """The jobs coupled to ``job`` through any channel, sorted."""
        peers = set()
        for name in self._by_job.get(job, []):
            spec = self.channels[name].spec
            peers.update(spec.jobs())
        peers.discard(job)
        return sorted(peers)

    def ports_for(self, job: str) -> Dict[str, Endpoint]:
        """``{channel name: Endpoint}`` for every channel binding ``job``."""
        ports: Dict[str, Endpoint] = {}
        for name in self.channel_names(job):
            channel = self.channels[name]
            role = "src" if channel.spec.src == job else "dst"
            ports[name] = Endpoint(channel, role)
        return ports

    def job_done(self, job: str) -> None:
        """Close every channel bound to a settled job."""
        for name in self.channel_names(job):
            self.channels[name].close()

    def close_all(self) -> None:
        for channel in self.channels.values():
            channel.close()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-channel traffic accounting, name-sorted (deterministic)."""
        return {
            name: self.channels[name].stats()
            for name in sorted(self.channels)
        }
