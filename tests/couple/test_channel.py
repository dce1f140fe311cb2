"""Tests for repro.couple.channel: specs, frames, pipes, and the hub."""

import threading

import numpy as np
import pytest

from repro.couple import (
    Channel,
    ChannelClosedError,
    ChannelHub,
    ChannelSpec,
    CoupleError,
    FieldFrame,
    TransformSpec,
)
from repro.couple.channel import FRAME_SCHEMA


def spec(**kw):
    base = dict(name="link", src="a", dst="b")
    base.update(kw)
    return ChannelSpec(**base)


# -- specs -------------------------------------------------------------------


def test_channel_spec_validates():
    with pytest.raises(CoupleError):
        spec(src="a", dst="a")  # self-coupling
    with pytest.raises(CoupleError):
        spec(name="")
    with pytest.raises(CoupleError):
        spec(ncomp=0)
    with pytest.raises(CoupleError):
        spec(capacity=0)


def test_channel_spec_roundtrip():
    s = spec(
        ncomp=3,
        transforms=(
            TransformSpec(kind="scale", param=2.0),
            TransformSpec(kind="time-window", param=3),
        ),
    )
    again = ChannelSpec.from_dict(s.to_dict())
    assert again == s


def test_channel_spec_rejects_unknown_fields():
    with pytest.raises(CoupleError):
        ChannelSpec.from_dict({"name": "x", "src": "a", "dst": "b", "bogus": 1})


def test_transform_spec_validates():
    with pytest.raises(CoupleError):
        TransformSpec(kind="fourier")
    with pytest.raises(CoupleError):
        TransformSpec(kind="time-window", param=0)
    with pytest.raises(CoupleError):
        TransformSpec(kind="time-window", param=1.5)


# -- frames ------------------------------------------------------------------


def test_frame_roundtrip_and_digest():
    values = np.arange(6, dtype=float).reshape(3, 2)
    frame = FieldFrame(channel="link", kind="values", seq=4, values=values)
    blob = frame.encode()
    again = FieldFrame.decode(blob)
    assert again.channel == "link"
    assert again.kind == "values"
    assert again.seq == 4
    assert np.array_equal(again.values, values)
    assert again.digest() == frame.digest()
    # Byte determinism: encoding is a pure function of the payload.
    assert frame.encode() == blob


def test_frame_validates():
    good = np.zeros((2, 1))
    with pytest.raises(CoupleError):
        FieldFrame(channel="c", kind="noise", seq=0, values=good)
    with pytest.raises(CoupleError):
        FieldFrame(channel="c", kind="values", seq=-1, values=good)
    with pytest.raises(CoupleError):
        FieldFrame(channel="c", kind="values", seq=0, values=np.zeros(3))


def test_frame_decode_rejects_other_schemas():
    import pickle

    from repro.parallel import codec
    from repro.parallel.codec import dumps

    with pytest.raises(CoupleError):
        FieldFrame.decode(dumps({"schema": "repro.svc/1"}))
    assert FRAME_SCHEMA == "repro.couple/1"
    # A CRC-valid frame carrying a tag-255 record (the retired pickle
    # escape) is rejected with this layer's typed error, never unpickled.
    doc = {"schema": FRAME_SCHEMA, "channel": "c", "kind": "values",
           "seq": 0, "values": np.zeros((2, 1))}
    raw = pickle.dumps(doc)
    body = bytearray([255])
    codec._w_uint(body, len(raw))
    with pytest.raises(CoupleError):
        FieldFrame.decode(codec._frame(codec.KIND_VALUE, bytes(body) + raw))


# -- live channels -----------------------------------------------------------


def frame(seq=0, kind="values", n=2):
    return FieldFrame(
        channel="link", kind=kind, seq=seq, values=np.full((n, 1), float(seq))
    )


def test_channel_send_recv_fifo():
    chan = Channel(spec())
    chan.send("src", frame(0))
    chan.send("src", frame(1))
    assert chan.recv("dst").seq == 0
    assert chan.recv("dst").seq == 1


def test_channel_reverse_direction():
    chan = Channel(spec())
    chan.send("dst", frame(7, kind="points"))
    got = chan.recv("src")
    assert got.kind == "points" and got.seq == 7


def test_channel_recv_timeout():
    chan = Channel(spec())
    with pytest.raises(CoupleError):
        chan.recv("dst", timeout=0.05)


def test_channel_send_blocks_at_capacity_then_times_out():
    chan = Channel(spec(capacity=1))
    chan.send("src", frame(0))
    with pytest.raises(CoupleError):
        chan.send("src", frame(1), timeout=0.05)


def test_channel_close_drains_then_raises():
    chan = Channel(spec())
    chan.send("src", frame(0))
    chan.close()
    assert chan.recv("dst").seq == 0  # drained
    with pytest.raises(ChannelClosedError):
        chan.recv("dst", timeout=1.0)
    with pytest.raises(ChannelClosedError):
        chan.send("src", frame(1), timeout=1.0)


def test_channel_close_wakes_blocked_receiver():
    chan = Channel(spec())
    errors = []

    def wait():
        try:
            chan.recv("dst", timeout=30.0)
        except ChannelClosedError as exc:
            errors.append(exc)

    thread = threading.Thread(target=wait)
    thread.start()
    chan.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert len(errors) == 1


def test_channel_threaded_exchange():
    chan = Channel(spec())
    seen = []

    def producer():
        for seq in range(8):
            chan.send("src", frame(seq), timeout=10.0)

    def consumer():
        for _ in range(8):
            seen.append(chan.recv("dst", timeout=10.0).seq)

    threads = [
        threading.Thread(target=producer),
        threading.Thread(target=consumer),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert seen == list(range(8))


def test_channel_stats():
    chan = Channel(spec())
    chan.send("src", frame(0))
    chan.send("dst", frame(0, kind="points"))
    stats = chan.stats()
    assert stats["frames_fwd"] == 1 and stats["frames_rev"] == 1
    assert stats["bytes_fwd"] > 0 and stats["bytes_rev"] > 0


# -- the hub -----------------------------------------------------------------


def test_hub_ports_and_peers():
    hub = ChannelHub(
        [spec(name="ab"), ChannelSpec(name="bc", src="b", dst="c")]
    )
    assert hub.channel_names("b") == ["ab", "bc"]
    assert hub.peer_jobs("b") == ["a", "c"]
    ports = hub.ports_for("a")
    assert list(ports) == ["ab"]
    assert ports["ab"].role == "src"
    assert hub.ports_for("b")["ab"].role == "dst"


def test_hub_rejects_duplicate_channel_names():
    with pytest.raises(CoupleError):
        ChannelHub([spec(), spec()])


def test_hub_job_done_closes_bound_channels():
    hub = ChannelHub([spec()])
    src_port = hub.ports_for("a")["link"]
    hub.job_done("b")
    with pytest.raises(ChannelClosedError):
        src_port.send(frame(0), timeout=1.0)


def test_hub_endpoint_applies_transform_stages():
    hub = ChannelHub(
        [spec(transforms=(TransformSpec(kind="scale", param=2.0),))]
    )
    src = hub.ports_for("a")["link"]
    dst = hub.ports_for("b")["link"]
    src.send_values(0, np.ones((3, 1)))
    got = dst.recv(timeout=5.0)
    assert np.array_equal(got.values, np.full((3, 1), 2.0))
