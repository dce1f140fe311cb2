"""Golden receive-path tables: what migration and ghosting build, pinned.

The receive side of a data move finds-or-creates every entity of the
closures it is sent.  Handle order is observable — ParMA's choices and the
refinement order follow handles — so the entities each part ends up with
must keep their exact handles, global ids, vertex rows, classification and
ghost marking.  Each scenario's result is serialized per part and
dimension (handle -> gid, vertex gids, classification) and compared against
a committed JSON table.

The migration scenario moves elements twice so the second, multi-source
move lands on parts whose free-lists hold the handles the first move
released.

Regenerate the tables (after an *intentional* change) with::

    PYTHONPATH=src python tests/partition/test_receive_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.mesh import box_tet, rect_tri
from repro.partition import delete_ghosts, distribute, ghost_layer, migrate

GOLDEN_DIR = Path(__file__).parent / "golden"


def _strips(mesh, nparts, axis=0):
    return [
        min(int(mesh.centroid(e)[axis] * nparts), nparts - 1)
        for e in mesh.entities(mesh.dim())
    ]


def _box():
    mesh = box_tet(3)
    return distribute(mesh, _strips(mesh, 4))


def _rect():
    mesh = rect_tri(6)
    return distribute(mesh, _strips(mesh, 4, axis=1))


def _ghosted(make):
    dm = make()
    ghost_layer(dm, depth=1)
    return dm


def _plan(dm, moves):
    """``{src: dest}`` -> a plan moving every third element of each src."""
    plan = {}
    for src, dest in moves.items():
        elements = sorted(dm.part(src).mesh.entities(dm.element_dim()))
        plan[src] = {e: dest for e in elements[::3]}
    return plan


def _migrated(make):
    dm = make()
    # A ghost layer and its deletion leave freed handles on every part.
    ghost_layer(dm, depth=1)
    delete_ghosts(dm)
    migrate(dm, _plan(dm, {0: 1, 2: 1, 3: 2}))
    migrate(dm, _plan(dm, {1: 0, 2: 3, 3: 2}))
    return dm


SCENARIOS = {
    "box_tet_3_ghost": lambda: _ghosted(_box),
    "box_tet_3_migrate": lambda: _migrated(_box),
    "rect_tri_6_ghost": lambda: _ghosted(_rect),
    "rect_tri_6_migrate": lambda: _migrated(_rect),
}


def _row(part, ent):
    """``"gid vertex-gids dim.tag"`` with ``-`` for an unset gid or class."""
    mesh = part.mesh
    gent = mesh.classification(ent)
    gid = part.gid(ent) if part.has_gid(ent) else "-"
    verts = ",".join(str(part.gid(v)) for v in mesh.verts_of(ent))
    cls = f"{gent.dim}.{gent.tag}" if gent is not None else "-"
    return f"{gid} {verts} {cls}"


def receive_table(dm):
    """Per part and dimension: handle -> (gid, vertex gids, classification)."""
    parts = {}
    for part in dm:
        parts[str(part.pid)] = {
            "dims": {
                str(d): {
                    str(ent.idx): _row(part, ent)
                    for ent in part.mesh.entities(d)
                }
                for d in range(4)
            },
            # "dim.handle <- home part.home handle" per ghost.
            "ghosts": sorted(
                f"{g.dim}.{g.idx} <- {home[0]}."
                + ("-" if home[1] is None else str(home[1].idx))
                for g, home in part.ghost_home.items()
            ),
        }
    return parts


def _dump(table):
    return json.dumps(table, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_receive_path_matches_golden(name):
    dm = SCENARIOS[name]()
    dm.verify()
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _dump(receive_table(dm)) == expected


def _regen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in sorted(SCENARIOS.items()):
        (GOLDEN_DIR / f"{name}.json").write_text(_dump(receive_table(build())))
        print(f"wrote {name}.json")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
