"""Unit tests for the b-rep model topology."""

import pytest

from repro.gmodel import Model, ModelEntity, box_model, rect_model


def test_entity_handle_identity():
    assert ModelEntity(1, 3) == ModelEntity(1, 3)
    assert ModelEntity(1, 3) != ModelEntity(2, 3)
    assert repr(ModelEntity(2, 5)) == "G2_5"


def test_entity_dimension_validated():
    with pytest.raises(ValueError):
        ModelEntity(4, 0)
    with pytest.raises(ValueError):
        ModelEntity(-1, 0)


def test_add_is_idempotent():
    model = Model()
    a = model.add(0, 1)
    b = model.add(0, 1)
    assert a == b
    assert model.count(0) == 1


def test_adjacency_one_level():
    model = Model()
    v0 = model.add(0, 0)
    v1 = model.add(0, 1)
    e = model.add(1, 0)
    model.add_adjacency(e, v0)
    model.add_adjacency(e, v1)
    assert model.downward(e) == [v0, v1]
    assert model.upward(v0) == [e]


def test_adjacency_must_step_one_dimension():
    model = Model()
    v = model.add(0, 0)
    f = model.add(2, 0)
    with pytest.raises(ValueError):
        model.add_adjacency(f, v)


def test_adjacency_requires_known_entities():
    model = Model()
    e = model.add(1, 0)
    with pytest.raises(KeyError):
        model.downward(ModelEntity(2, 9))
    with pytest.raises(KeyError):
        model.add_adjacency(e, ModelEntity(0, 9))


def test_rect_model_counts():
    model = rect_model()
    assert model.count(0) == 4
    assert model.count(1) == 4
    assert model.count(2) == 1
    assert model.count(3) == 0
    assert model.dim() == 2
    model.check()


def test_rect_model_face_closure():
    model = rect_model()
    face = model.find(2, 0)
    closure = model.closure(face)
    assert len(closure) == 1 + 4 + 4


def test_box_model_counts():
    model = box_model()
    assert model.count(0) == 8
    assert model.count(1) == 12
    assert model.count(2) == 6
    assert model.count(3) == 1
    assert model.dim() == 3
    model.check()


def test_box_model_each_face_has_four_edges():
    model = box_model()
    for face in model.entities(2):
        assert len(model.downward(face)) == 4


def test_box_model_each_edge_bounds_two_faces():
    model = box_model()
    for edge in model.entities(1):
        assert len(model.upward(edge)) == 2


def test_box_model_each_vertex_bounds_three_edges():
    model = box_model()
    for vert in model.entities(0):
        assert len(model.upward(vert)) == 3


def test_multi_level_adjacency():
    model = box_model()
    region = model.find(3, 0)
    assert len(model.adjacent(region, 0)) == 8
    vert = model.find(0, 0)
    assert len(model.adjacent(vert, 2)) == 3
    assert model.adjacent(vert, 0) == [vert]


def test_check_detects_dangling_entity():
    model = Model()
    model.add(1, 0)  # an edge with no boundary vertices
    with pytest.raises(AssertionError):
        model.check()


def test_caches_follow_topology_changes():
    """Closure sets, sorted entity tuples and the classification table are
    cached; add/add_adjacency must drop them when they change the answer."""
    from repro.gmodel import (
        BoxShape,
        PointShape,
        classify_from_closure,
        classify_point,
    )

    model = Model()
    v0, v1 = model.add(0, 0), model.add(0, 1)
    e0, e1 = model.add(1, 0), model.add(1, 1)
    face = model.add(2, 0)
    model.add_adjacency(e0, v0)
    model.add_adjacency(e1, v1)
    model.add_adjacency(face, e0)
    model.add_adjacency(face, e1)
    assert classify_from_closure(model, [v0, v1]) == face
    assert model.closure_set(e0) == {e0, v0}

    # e0 now spans both vertices: it covers the set before the face does.
    model.add_adjacency(e0, v1)
    assert model.closure_set(e0) == {e0, v0, v1}
    assert classify_from_closure(model, [v0, v1]) == e0

    # A vertex added at a point the face's shape contains takes it over.
    model.set_shape(face, BoxShape([0.0, 0.0], [1.0, 1.0]))
    assert classify_point(model, [0.5, 0.5]) == face
    assert list(model.entities(0)) == [v0, v1]
    v2 = model.add(0, 2)
    model.set_shape(v2, PointShape([0.5, 0.5]))
    assert list(model.entities(0)) == [v0, v1, v2]
    assert classify_point(model, [0.5, 0.5]) == v2
