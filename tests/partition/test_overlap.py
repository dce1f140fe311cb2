"""Depth-k overlap semantics: exact regions, Overlap config, arguments."""

import pytest

from repro.mesh import rect_tri
from repro.partition import Overlap, delete_ghosts, distribute, ghost_layer
from repro.partition.ghosting import _resolve_overlap


def strip(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def blocks(mesh, per_axis=2):
    """A per_axis × per_axis block partition — rings wrap part corners."""
    assignment = []
    for e in mesh.entities(mesh.dim()):
        c = mesh.centroid(e)
        ix = min(int(c[0] * per_axis), per_axis - 1)
        iy = min(int(c[1] * per_axis), per_axis - 1)
        assignment.append(ix * per_axis + iy)
    return assignment


def element_key(mesh, e):
    """Partition-independent element identity: its rounded centroid."""
    return tuple(round(float(c), 9) for c in mesh.centroid(e))


def expected_regions(mesh, assignment, nparts, depth, bridge_dim):
    """Serial reference: expand each part's elements ``depth`` rings.

    One ring adds every element sharing a bridge-dim entity with the
    current region.  Returns per part the *ghost* element key set (the
    expanded region minus the part's own elements).
    """
    dim = mesh.dim()
    elements = list(mesh.entities(dim))
    own = {pid: set() for pid in range(nparts)}
    for e, pid in zip(elements, assignment):
        own[pid].add(e)
    regions = {}
    for pid in range(nparts):
        region = set(own[pid])
        for _ring in range(depth):
            front = set()
            for e in region:
                front.update(mesh.adjacent(e, bridge_dim))
            grown = set(region)
            for b in front:
                grown.update(mesh.adjacent(b, dim))
            region = grown
        regions[pid] = {
            element_key(mesh, e) for e in region if e not in own[pid]
        }
    return regions


def actual_regions(dm):
    """Per part, the key set of its ghost elements."""
    dim = dm.element_dim()
    out = {}
    for part in dm:
        out[part.pid] = {
            element_key(part.mesh, g)
            for g in part.ghosts
            if g.dim == dim
        }
    return out


@pytest.mark.parametrize("depth", (1, 2, 3))
@pytest.mark.parametrize(
    "maker,nparts",
    (
        (lambda mesh: strip(mesh, 4), 4),
        (lambda mesh: strip(mesh, 8), 8),
        (lambda mesh: blocks(mesh, 2), 4),
    ),
    ids=("strip4", "strip8", "blocks2x2"),
)
def test_depth_k_region_is_exact(maker, nparts, depth):
    """The distributed overlap equals the serial ring expansion, exactly.

    The 2×2 block partition is the hard case: the second ring wraps part
    corners onto diagonal neighbors the first ring never talked to, which
    only the referral pass can reach.
    """
    mesh = rect_tri(8)
    assignment = maker(mesh)
    dm = distribute(mesh, assignment)
    stats = ghost_layer(dm, overlap=Overlap(depth=depth))
    dm.verify()
    assert stats.layers == depth
    expected = expected_regions(mesh, assignment, nparts, depth, bridge_dim=0)
    assert actual_regions(dm) == expected


def test_without_closure_is_subset_and_matches_at_depth_one():
    mesh = rect_tri(8)
    assignment = blocks(mesh, 2)
    dm = distribute(mesh, assignment)
    ghost_layer(dm, overlap=Overlap(depth=1, include_closure=False))
    shallow = actual_regions(dm)
    delete_ghosts(dm)
    ghost_layer(dm, overlap=Overlap(depth=1))
    assert actual_regions(dm) == shallow  # depth 1 needs no referrals
    delete_ghosts(dm)

    ghost_layer(dm, overlap=Overlap(depth=2, include_closure=False))
    truncated = actual_regions(dm)
    delete_ghosts(dm)
    ghost_layer(dm, overlap=Overlap(depth=2))
    full = actual_regions(dm)
    for pid in full:
        assert truncated[pid] <= full[pid]
    # On the corner-wrapping block partition the approximation really is
    # smaller somewhere — otherwise this test tests nothing.
    assert any(truncated[pid] < full[pid] for pid in full)


def test_depth_zero_is_a_noop():
    mesh = rect_tri(4)
    dm = distribute(mesh, strip(mesh, 2))
    stats = ghost_layer(dm, overlap=Overlap(depth=0))
    assert stats.ghosts_created == 0 and stats.supersteps == 0
    assert all(not part.ghosts for part in dm)


def test_overlap_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Overlap(depth=-1)
    with pytest.raises(ValueError):
        Overlap(bridge_dim=3)
    ov = Overlap(depth=2, bridge_dim=1, include_closure=False)
    assert Overlap.coerce(ov) is ov
    assert Overlap.coerce(ov.to_dict()) == ov
    with pytest.raises(TypeError):
        Overlap.coerce(2)
    # Overlap above the element dimension is caught at the mesh.
    mesh = rect_tri(2)
    dm = distribute(mesh, strip(mesh, 2))
    with pytest.raises(ValueError):
        ghost_layer(dm, overlap=Overlap(bridge_dim=2))


def test_argument_spellings_are_exclusive():
    mesh = rect_tri(2)
    dm = distribute(mesh, strip(mesh, 2))
    with pytest.raises(ValueError):
        ghost_layer(dm, overlap=Overlap(), depth=1)
    # The overlap is keyword-only; the retired bridge_dim/layers spelling
    # is no longer accepted at all.
    with pytest.raises(TypeError):
        ghost_layer(dm, 0)
    with pytest.raises(TypeError):
        ghost_layer(dm, bridge_dim=0, layers=2)
    assert _resolve_overlap(None, 3) == Overlap(depth=3)
    assert _resolve_overlap(None, None) == Overlap()
