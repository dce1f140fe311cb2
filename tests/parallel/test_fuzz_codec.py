"""Seeded fuzz tests for the binary wire codec.

Two properties under test:

1. **Round-trip stability**: random element bundles — mixed cell types,
   unicode tags, empty batches, max-gid edge values — survive
   encode → decode → re-encode *byte-identically* across 200 seeded cases
   (the re-encode equality is strictly stronger than value equality: it
   proves the interning tables and column layouts are pure functions of the
   decoded content).
2. **Corruption safety**: truncated or bit-flipped buffers raise the typed
   :class:`~repro.parallel.codec.CodecError` instead of decoding garbage
   (the CRC is validated before any record is interpreted), and so do
   well-formed frames outside the closed format — unknown value tags,
   non-zero flags — and values of types the format does not define.
"""

import pickle
import random

import numpy as np
import pytest

from repro.mesh.entity import Ent
from repro.mesh.topology import EDGE, HEX, PRISM, PYRAMID, QUAD, TET, TRI, type_info
from repro.parallel import codec

MAX_GID = 2**63 - 1

_ELEMENT_TYPES = {
    2: (TRI, QUAD),
    3: (TET, PYRAMID, PRISM, HEX),
}

_UNICODE_POOL = [
    "plain",
    "héllo",
    "✓ tick",
    "名前",
    "προσ",
    "",
    "a\x00b",
    "🙂" * 3,
]


def _random_gid(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.05:
        return MAX_GID  # max-gid edge value
    if roll < 0.10:
        return 0
    return rng.randrange(0, 10_000_000)


def _random_coords(rng: random.Random):
    def component():
        roll = rng.random()
        if roll < 0.04:
            return float("nan")
        if roll < 0.08:
            return rng.choice([1e300, -1e300, 5e-324, -0.0])
        return rng.uniform(-100.0, 100.0)

    return (component(), component(), component())


def _random_class(rng: random.Random):
    if rng.random() < 0.3:
        return None
    return (rng.randrange(0, 4), rng.randrange(-5, 50))


def _random_tag_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(_UNICODE_POOL)
    if roll < 0.45:
        return rng.uniform(-1e6, 1e6)
    if roll < 0.60:
        return rng.randrange(-(2**40), 2**40)
    if roll < 0.75:
        return np.asarray(
            [rng.uniform(-1, 1) for _ in range(rng.randrange(1, 4))]
        )
    if roll < 0.85:
        return None
    return {rng.choice(_UNICODE_POOL): rng.randrange(0, 99)}


def _random_bundle(rng: random.Random, ghost: bool) -> dict:
    dim = rng.choice((2, 3))
    etype = rng.choice(_ELEMENT_TYPES[dim])
    nverts = type_info(etype).nverts
    vert_gids = []
    while len(vert_gids) < nverts:
        gid = _random_gid(rng)
        if gid not in vert_gids:
            vert_gids.append(gid)
    verts = [
        (gid, _random_coords(rng), _random_class(rng)) for gid in vert_gids
    ]
    mids = []
    for _ in range(rng.randrange(0, 6)):
        d = rng.randrange(1, dim)
        mid_type = EDGE if d == 1 else rng.choice((TRI, QUAD))
        mid_nverts = type_info(mid_type).nverts
        mids.append(
            (
                d,
                None if rng.random() < 0.5 else _random_gid(rng),
                mid_type,
                tuple(rng.choice(vert_gids) for _ in range(mid_nverts)),
                _random_class(rng),
            )
        )
    bundle = {
        "verts": verts,
        "mids": mids,
        "element": (
            dim,
            _random_gid(rng),
            etype,
            tuple(vert_gids),
            _random_class(rng),
        ),
    }
    if ghost:
        bundle["tags"] = {
            rng.choice(_UNICODE_POOL): _random_tag_value(rng)
            for _ in range(rng.randrange(0, 4))
        }
        bundle["home"] = (
            rng.randrange(0, 64),
            Ent(dim, rng.randrange(0, 10_000)),
        )
    return bundle


def _random_batch(rng: random.Random):
    # ~5% empty batches: the empty-part edge case.
    if rng.random() < 0.05:
        return []
    ghost = rng.random() < 0.5
    return [_random_bundle(rng, ghost) for _ in range(rng.randrange(1, 12))]


@pytest.mark.parametrize("seed", range(200))
def test_element_batch_round_trips_byte_identically(seed):
    rng = random.Random(seed)
    batch = _random_batch(rng)
    blob = codec.encode_element_batch(batch)
    decoded = codec.decode_element_batch(blob)
    assert len(decoded) == len(batch)
    for original, back in zip(batch, decoded):
        assert back["element"] == original["element"]
        assert back["mids"] == original["mids"]
        assert len(back["verts"]) == len(original["verts"])
        for (g1, c1, k1), (g2, c2, k2) in zip(
            original["verts"], back["verts"]
        ):
            assert g1 == g2 and k1 == k2
            for a, b in zip(c1, c2):
                assert (a != a and b != b) or a == b  # NaN-aware
        if "home" in original:
            assert back["home"] == original["home"]
            assert isinstance(back["home"][1], Ent)
    # Byte-identical re-encode: the layout is canonical.
    assert codec.encode_element_batch(decoded) == blob


@pytest.mark.parametrize("seed", range(40))
def test_generic_value_round_trips_byte_identically(seed):
    rng = random.Random(1000 + seed)

    def value(depth=0):
        roll = rng.random()
        if depth > 3 or roll < 0.45:
            return rng.choice(
                [
                    None,
                    True,
                    False,
                    rng.randrange(-MAX_GID, MAX_GID),
                    rng.uniform(-1e9, 1e9),
                    rng.choice(_UNICODE_POOL),
                    bytes(rng.randrange(256) for _ in range(rng.randrange(5))),
                    Ent(rng.randrange(4), rng.randrange(10**6)),
                    codec.CorruptedPayload("dict"),
                ]
            )
        if roll < 0.60:
            return tuple(value(depth + 1) for _ in range(rng.randrange(4)))
        if roll < 0.75:
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        if roll < 0.90:
            return {
                rng.choice(_UNICODE_POOL): value(depth + 1)
                for _ in range(rng.randrange(3))
            }
        return np.asarray(
            [rng.uniform(-10, 10) for _ in range(rng.randrange(1, 5))]
        )

    obj = value()
    blob = codec.dumps(obj)
    back = codec.loads(blob)
    assert codec.dumps(back) == blob
    # The fault injector's sentinel has its own tag and round-trips.
    sentinel = codec.loads(codec.dumps(codec.CorruptedPayload("list")))
    assert isinstance(sentinel, codec.CorruptedPayload)
    assert sentinel.original_type == "list"


def pickled_value_frame(obj) -> bytes:
    """A kind-0 frame with a valid CRC whose body is one tag-255 record
    (the retired pickle escape) carrying ``obj``."""
    raw = pickle.dumps(obj)
    body = bytearray([255])
    codec._w_uint(body, len(raw))
    return codec._frame(codec.KIND_VALUE, bytes(body) + raw)


@pytest.mark.parametrize("seed", range(60))
def test_truncated_buffers_raise_codec_error(seed):
    rng = random.Random(2000 + seed)
    blob = codec.encode_element_batch(_random_batch(rng))
    cut = rng.randrange(0, len(blob))
    with pytest.raises(codec.CodecError):
        codec.decode_element_batch(blob[:cut])


@pytest.mark.parametrize("seed", range(60))
def test_bit_flipped_buffers_raise_codec_error(seed):
    rng = random.Random(3000 + seed)
    batch = _random_batch(rng)
    while not batch:  # need at least one byte beyond a fixed header
        batch = _random_batch(rng)
    blob = bytearray(codec.encode_element_batch(batch))
    pos = rng.randrange(len(blob))
    blob[pos] ^= 1 << rng.randrange(8)
    with pytest.raises(codec.CodecError):
        codec.decode_element_batch(bytes(blob))


def test_wrong_kind_is_rejected():
    blob = codec.encode_int_rows([(1, 2, 3)])
    with pytest.raises(codec.CodecError):
        codec.decode_element_batch(blob)
    with pytest.raises(codec.CodecError):
        codec.loads(blob)
    # A right-kind frame with an intact CRC but a value tag outside the
    # closed format is rejected too: decoding never executes data.
    with pytest.raises(codec.CodecError, match="tag 255"):
        codec.loads(pickled_value_frame([1, 2]))


def test_wrong_version_is_rejected():
    blob = bytearray(codec.dumps([1, 2]))
    blob[2] = codec.VERSION + 1
    with pytest.raises(codec.CodecError):
        codec.loads(bytes(blob))
    # The flags byte is reserved: any non-zero value is rejected.
    blob = bytearray(codec.dumps([1, 2]))
    assert blob[4] == 0
    blob[4] = 0x01
    with pytest.raises(codec.CodecError, match="flags"):
        codec.loads(bytes(blob))


def test_bad_magic_is_rejected():
    blob = b"ZZ" + codec.dumps("x")[2:]
    with pytest.raises(codec.CodecError):
        codec.loads(blob)


def test_gid_overflow_raises_codec_error():
    """Unencodable input fails at encode time with the typed error."""
    bundle = {
        "verts": [(2**63, (0.0, 0.0, 0.0), None)],
        "mids": [],
        "element": (2, 2**63, TRI, (2**63,), None),
    }
    with pytest.raises(codec.CodecError):
        codec.encode_element_batch([bundle])
    # Types outside the closed format have no encoding.
    with pytest.raises(codec.CodecError, match="object"):
        codec.dumps(object())
    with pytest.raises(codec.CodecError):
        codec.dumps(np.array([{"a": 1}, None], dtype=object))


def test_value_batch_round_trip_and_corruption():
    rng = random.Random(77)
    items = [
        (
            Ent(0, rng.randrange(10**6)),
            np.asarray([rng.uniform(-5, 5) for _ in range(3)]),
        )
        for _ in range(17)
    ]
    blob = codec.encode_value_batch(items)
    back = codec.decode_value_batch(blob)
    assert [e for e, _ in back] == [e for e, _ in items]
    for (_, v1), (_, v2) in zip(items, back):
        assert (v1 == v2).all()
        assert v2.flags.writeable
    assert codec.encode_value_batch(back) == blob
    with pytest.raises(codec.CodecError):
        codec.decode_value_batch(blob[:-3])


def test_int_rows_round_trip_includes_extremes():
    rows = [(0,), (), (1, -(2**62), 2**62, 5)]
    blob = codec.encode_int_rows(rows)
    assert codec.decode_int_rows(blob) == rows
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    with pytest.raises(codec.CodecError):
        codec.decode_int_rows(bytes(flipped))
