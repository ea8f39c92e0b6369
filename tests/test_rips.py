"""Proximity complexes: strict threshold, clique expansion, inclusion maps."""

from __future__ import annotations

import json
import os
import re
import tempfile
from itertools import chain, combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripshadow.cli import _write_json
from ripshadow.limits import _rips_stages
from ripshadow.models import PointCloud, euclidean_metric
from ripshadow.oracle import brute_maximal_cliques, brute_rips
from ripshadow.rips import (
    CliqueBudgetError,
    CliqueList,
    IntRows,
    SimplicialComplex,
    SimplicialMap,
    build_rips,
    inclusion_map,
    maximal_cliques,
    rows_text,
)


def _unit_square() -> PointCloud:
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def test_threshold_is_strict_at_an_exact_distance():
    met = euclidean_metric(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])))
    complex_ = build_rips(met, 1.0, cap=1)
    assert not complex_.has_simplex((0, 1))
    # a hair above the distance the edge appears
    assert build_rips(met, 1.0 + 1e-12, cap=1).has_simplex((0, 1))


def test_square_counts_by_scale():
    met = euclidean_metric(_unit_square())
    # sides only: four edges, no triangles (diagonals are sqrt(2))
    sides = build_rips(met, 1.001, cap=2)
    assert sides.counts() == [4, 4]
    # just under the diagonal nothing changes
    assert build_rips(met, np.sqrt(2.0) - 1e-9, cap=2).counts() == [4, 4]
    # past the diagonal the square fills in completely
    full = build_rips(met, np.sqrt(2.0) + 1e-9, cap=3)
    assert full.counts() == [4, 6, 4, 1]


def _closure(n: int, cap: int, tops) -> SimplicialComplex:
    """The complex of every face of the given simplices."""
    faces: dict[int, set] = {}
    for top in tops:
        for k in range(1, len(top) + 1):
            for face in combinations(top, k):
                faces.setdefault(k - 1, set()).add(face)
    return SimplicialComplex(n, cap, {d: sorted(g) for d, g in sorted(faces.items())})


# integer grid points: many pairs sit at exactly the same distance, so a
# scale read off the distance matrix ties with all of them at once
_GRID_CLOUDS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=20)


@settings(max_examples=80, deadline=None)
@given(_GRID_CLOUDS, st.integers(0, 4), st.data())
def test_matches_subset_scan_on_random_clouds(points, cap, data):
    met = euclidean_metric(PointCloud(np.array(points, dtype=float)))
    ties = sorted(set(met.d[met.d > 0].tolist()))
    beta = data.draw(st.sampled_from(ties) if ties else st.just(1.0))
    fast = build_rips(met, beta, cap=cap)
    slow = brute_rips(met, beta, cap=cap)
    assert fast.simplices == slow.simplices
    assert list(fast.simplices) == list(slow.simplices)
    # every face position is the index of that face in the list one down
    for d in range(1, fast.dim + 1):
        index = {s: i for i, s in enumerate(fast.simplices[d - 1])}
        want = [[index[f] for f in combinations(s, d)] for s in fast.simplices[d]]
        assert fast.face_positions(d).tolist() == want


@settings(max_examples=80, deadline=None)
@given(_GRID_CLOUDS, st.integers(0, 3), st.data())
def test_masked_stages_equal_their_own_expansions(points, cap, data):
    met = euclidean_metric(PointCloud(np.array(points, dtype=float)))
    ties = sorted(set(met.d[met.d > 0].tolist()))
    grid = data.draw(st.lists(st.sampled_from(ties), min_size=1, max_size=4)) if ties else [1.0]
    # a repeated scale, and one below every positive distance
    grid += [grid[-1], min(ties, default=1.0) / 2]
    stages = _rips_stages([met] * len(grid), grid, cap)
    for beta, got in zip(grid, stages):
        want = build_rips(met, beta, cap=cap)
        assert got == want
        assert got.simplices == want.simplices
        for d in range(1, want.dim + 1):
            assert np.array_equal(got.face_positions(d), want.face_positions(d))


def test_subcomplex_refuses_a_mask_that_drops_a_face():
    cx = _closure(4, 2, [(0, 1, 2), (2, 3)])
    keep = {d: np.ones(k, bool) for d, k in enumerate(cx.counts())}
    keep[1][cx.simplices[1].index((0, 2))] = False
    with pytest.raises(ValueError, match=re.escape("face (0, 2) of (0, 1, 2) missing")):
        cx.subcomplex(keep)
    keep[2][:] = False
    sub = cx.subcomplex(keep)
    assert sub == _closure(4, 2, [(0, 1), (1, 2), (2, 3)])
    assert sub.face_positions(1).tolist() == [[0, 1], [1, 2], [2, 3]]
    keep[0][3] = False
    with pytest.raises(ValueError, match=re.escape("vertex singleton [3] missing")):
        cx.subcomplex(keep)
    keep[1] = keep[1][:-1]
    with pytest.raises(ValueError, match=re.escape("mask of dimension 1 must have 4 entries")):
        cx.subcomplex(keep)


_VERTEX_QUERIES = st.one_of(st.integers(-2, 7), st.sampled_from([-(2**63), 2**63 - 1]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True), max_size=6), st.data())
def test_locate_matches_a_dict_lookup(tops, data):
    cx = _closure(6, 3, [tuple(sorted(t)) for t in tops] + [(v,) for v in range(6)])
    index = {s: i for group in cx.simplices.values() for i, s in enumerate(group)}
    for d in range(4):  # dimensions the complex may leave empty
        queries = data.draw(st.lists(st.lists(_VERTEX_QUERIES, min_size=d + 1, max_size=d + 1)))
        present = cx.simplices.get(d, [])
        queries += [list(s) for s in present]
        # a present last vertex moved by a multiple of n: out of range, absent
        queries += [[*s[:-1], t[-1] + k * 6] for s in present for t in present for k in (-2, -1, 1, 2)]
        rows = np.array(queries, dtype=np.int64).reshape(len(queries), d + 1)
        want = [index.get(tuple(q), -1) for q in queries]
        assert cx._locate(d, rows).tolist() == want


def test_monotone_images_equal_the_sorting_route():
    source = _closure(5, 3, [(0, 1, 2, 3), (1, 2, 4)])
    wide = _closure(9, 3, [(0, 2, 3, 5), (2, 3, 8), (0, 1, 2, 3), (1, 2, 4), (6,), (7,)])
    flat = _closure(3, 3, [(0, 1, 2)])
    maps = {
        "identity": SimplicialMap(source, source, range(5)),
        "embedding": SimplicialMap(source, wide, (0, 2, 3, 5, 8)),
        "collapse": SimplicialMap(source, flat, (0, 0, 1, 2, 2)),
    }
    assert [f._increasing for f in maps.values()] == [True, True, False]
    for f in maps.values():
        for d, s in source.simplices.items():
            at, img = f.image_rows(np.array(s, dtype=np.int64))
            # the rows whose image keeps d+1 vertices, and those images
            kept = [i for i, t in enumerate(s) if len(f.map_simplex(t)) == d + 1]
            assert at.tolist() == kept
            assert img.shape == (len(kept), d + 1)
            assert list(map(tuple, img.tolist())) == [f.map_simplex(s[i]) for i in kept]
    at, img = maps["identity"].image_rows(np.empty((0, 2), np.int64))
    assert at.size == 0 and img.shape == (0, 2)


def _as_arrays(groups: dict) -> dict:
    """The same groups as (m, d+1) int64 arrays."""
    return {d: np.array(g, dtype=np.int64).reshape(len(g), d + 1) for d, g in groups.items()}


@pytest.mark.parametrize(
    "simplices, message",
    [
        ({0: [(0,), (0,), (1,), (2,)]}, "unsorted or repeated simplices (0,), (0,) in dimension 0"),
        ({1: [(0, 1), (1, 0)]}, "malformed simplex (1, 0) in dimension 1"),
        ({1: [(0, 0)]}, "malformed simplex (0, 0) in dimension 1"),
        ({1: [(0, 1), (0, 2), (0, 1)]}, "unsorted or repeated simplices (0, 2), (0, 1)"),
        ({1: [(0, 1), (0, 2), (0, 2)]}, "unsorted or repeated simplices (0, 2), (0, 2)"),
        ({1: [(1, 2), (0, 3)]}, "vertex out of range in (0, 3)"),
        ({0: [(0,), (-1,)]}, "vertex out of range in (-1,)"),
        ({1: [(1, 2), (0, 2)]}, "unsorted or repeated simplices (1, 2), (0, 2)"),
        ({1: [(1, 0), (0, 1)]}, "malformed simplex (1, 0) in dimension 1"),
        ({-1: [()]}, "malformed simplex () in dimension -1"),
        ({3: []}, "simplex of dimension 3 above cap 2"),
        ({2: [(0, 1, 2), (0, 1, 2)]}, "unsorted or repeated simplices (0, 1, 2), (0, 1, 2)"),
    ],
)
def test_malformed_simplices_are_named(simplices, message):
    for rows in (simplices, _as_arrays(simplices)):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimplicialComplex(3, 2, rows)


@pytest.mark.parametrize(
    "simplices, message",
    [
        ({0: [(0.7,), (1.2,)]}, "non-integer vertices of type float64 in dimension 0"),
        ({0: [(0,), (1,)], 1: [(0.0, 1.0)]}, "non-integer vertices of type float64 in dimension 1"),
        ({0: [(True,), (False,)]}, "non-integer vertices of type bool in dimension 0"),
        ({0: [(0,), (None,)]}, "non-integer vertices of type object in dimension 0"),
    ],
    ids=["float", "float-edge", "bool", "object"],
)
def test_non_integer_vertices_are_named(simplices, message):
    arrays = {d: np.asarray(g) for d, g in simplices.items()}
    for rows in (simplices, arrays):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimplicialComplex(2, 1, rows)


def test_vertex_lookup_is_a_range_test():
    cx = SimplicialComplex(3, 1, {0: [(0,), (1,), (2,)], 1: [(0, 2)]})
    assert cx._locate(0, [[-1], [0], [2], [3], [2**62]]).tolist() == [-1, 0, 2, -1, -1]
    assert SimplicialComplex(0, 1, {})._locate(0, [[0]]).tolist() == [-1]
    assert cx.has_simplex((2,)) and not cx.has_simplex((3,))


def test_order_is_decided_by_the_first_differing_vertex():
    # the last vertex of (0, 2, 4) is larger and the middle one equal, but
    # its first is smaller, so it may not follow (1, 2, 3)
    rows = {0: np.arange(5)[:, None], 2: [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 4)]}
    with pytest.raises(ValueError, match=re.escape("(1, 2, 3), (0, 2, 4) in dimension 2")):
        SimplicialComplex(5, 2, rows)


def test_empty_dimensions_are_dropped():
    cx = SimplicialComplex(3, 2, {0: [(0,), (1,), (2,)], 1: [], 2: np.empty((0, 3))})
    assert cx == SimplicialComplex(3, 2, {0: [(0,), (1,), (2,)]})
    assert cx.simplices == {0: [(0,), (1,), (2,)]}
    assert cx.dim == 0 and cx.counts() == [3]
    assert SimplicialComplex(0, 2, {0: []}).simplices == {}


@pytest.mark.parametrize(
    "simplices, message",
    [
        ({0: [(0,)]}, "vertex singleton [1] missing"),
        ({0: [(0,), (2,)], 1: [(0, 2)]}, "vertex singleton [1] missing"),
        ({0: [(0,), (1,)], 1: [(0, 1)]}, "vertex singleton [2] missing"),
        ({1: [(0, 1)]}, "vertex singleton [0] missing"),
    ],
    ids=["first-only", "middle", "last", "no-vertices"],
)
def test_missing_vertex_singletons_are_named(simplices, message):
    for rows in (simplices, _as_arrays(simplices)):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimplicialComplex(3, 1, rows)


def test_json_load_sorts_and_deduplicates():
    cx = _closure(5, 2, [(0, 1, 2), (1, 3), (2, 3, 4)])
    flat = cx.to_json_dict()["simplices"]
    shuffled = [flat[i] for i in np.random.default_rng(1).permutation(len(flat))]
    back = SimplicialComplex.from_json_dict(
        {"n": 5, "cap": 2, "simplices": shuffled + shuffled[:7]}
    )
    assert back.simplices == cx.simplices
    with pytest.raises(ValueError, match=re.escape("face (0, 2) of (0, 1, 2) missing")):
        SimplicialComplex.from_json_dict(
            {"n": 3, "cap": 2, "simplices": [[2], [0, 1, 2], [1, 2], [0], [1], [0, 1]]}
        )
    for bad in ([[0], [1], [0, 2**70]], [[0], [1], [0, 1], []]):
        with pytest.raises(ValueError):
            SimplicialComplex.from_json_dict({"n": 3, "cap": 2, "simplices": bad})


def _closure_on_arrays(n: int, cap: int, tops, missing=None) -> SimplicialComplex:
    """``_closure`` of the tops and of every vertex 0..n-1, less the face
    ``missing``; the n singletons are one array, not n tuples."""
    faces: dict[int, set] = {}
    for top in tops:
        for k in range(2, len(top) + 1):
            faces.setdefault(k - 1, set()).update(combinations(top, k))
    rows = {d: np.array(sorted(g - {missing}), dtype=np.int64) for d, g in faces.items()}
    rows[0] = np.arange(n, dtype=np.int64)[:, None]
    return SimplicialComplex(n, cap, rows)


def test_keys_are_exact_for_large_vertex_ids():
    # a base-n key of a 3-simplex on n = 2**22 vertices needs 88 bits; cut
    # to 64, (v0, b, c, d) would match (v0', b, c, d) for any v0, v0', and
    # the triangles (a, b, c) and (a + 2**20, b, c) would match too
    n = 2**22
    tet = (2**21, 2**21 + 2**20 + 1, n - 2, n - 1)
    twin = (2**21 + 1, n - 2, n - 1)  # tet[1:] with 2**20 taken off its first vertex
    whole = _closure_on_arrays(n, 3, [tet, twin])
    whole.validate_face_closed()
    assert whole.has_simplex(tet) and whole.has_simplex(tet[1:]) and whole.has_simplex(twin)
    assert not whole.has_simplex((0,) + tet[1:])
    assert not whole.has_simplex((tet[1] + 2**20, n - 2, n - 1))
    assert not whole.has_simplex((tet[0] - 2**20, tet[1], n - 2))
    holed = _closure_on_arrays(n, 3, [tet, twin], missing=tet[1:])
    with pytest.raises(ValueError, match=re.escape(f"face {tet[1:]} of {tet} missing")):
        holed.validate_face_closed()
    tetra = _closure(4, 3, [(0, 1, 2, 3)])
    SimplicialMap(tetra, whole, tet)
    with pytest.raises(ValueError, match=re.escape(f"image {tet[1:]} of (1, 2, 3) missing")):
        SimplicialMap(tetra, holed, tet)
    # collapsing the tetrahedron onto the twin's vertices lands in dimension 2
    SimplicialMap(tetra, holed, (tet[2], twin[0], tet[2], tet[3]))


def _simplicial_by_definition(source, target, vertex_map):
    """The first source simplex whose image is not a target simplex, or None."""
    present = set(chain.from_iterable(target.simplices.values()))
    for s in chain.from_iterable(source.simplices[d] for d in sorted(source.simplices)):
        if tuple(sorted({vertex_map[v] for v in s})) not in present:
            return s
    return None


def test_collapsing_map_needs_every_image():
    source = _closure(4, 3, [(0, 1, 2, 3)])
    vertex_map = (0, 0, 1, 2)  # the tetrahedron collapses to a triangle
    hollow = _closure(3, 2, [(0, 1), (0, 2), (1, 2)])
    assert _simplicial_by_definition(source, hollow, vertex_map) == (0, 2, 3)
    with pytest.raises(ValueError, match=re.escape("image (0, 1, 2) of (0, 2, 3) missing")):
        SimplicialMap(source, hollow, vertex_map)
    filled = _closure(3, 2, [(0, 1, 2)])
    assert _simplicial_by_definition(source, filled, vertex_map) is None
    SimplicialMap(source, filled, vertex_map)


_TOPS = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(_TOPS, _TOPS, st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_map_verification_matches_the_definition(src_tops, dst_tops, vertex_map):
    source = _closure(6, 3, src_tops + [(v,) for v in range(6)])
    target = _closure(6, 3, dst_tops + [(v,) for v in range(6)])
    first_bad = _simplicial_by_definition(source, target, vertex_map)
    if first_bad is None:
        f = SimplicialMap(source, target, vertex_map)
        # the kept images are each simplex's target row, or -1 where the
        # image drops a dimension
        assert f.images.keys() == source.simplices.keys()
        for d, simplices in source.simplices.items():
            images = [f.map_simplex(s) for s in simplices]
            rows = [target.simplices[d].index(t) if len(t) == d + 1 else -1 for t in images]
            assert f.images[d].dtype == np.int64
            assert f.images[d].tolist() == rows
    else:
        image = tuple(sorted({vertex_map[v] for v in first_bad}))
        with pytest.raises(ValueError, match=re.escape(f"image {image} of {first_bad} missing")):
            SimplicialMap(source, target, vertex_map)


def test_a_source_that_is_not_face_closed_is_refused():
    # every edge has its vertices, but the triangle lacks its edge (1, 2)
    open_ = SimplicialComplex(3, 2, {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2)], 2: [(0, 1, 2)]})
    with pytest.raises(ValueError, match=re.escape("face (1, 2) of (0, 1, 2) missing")):
        SimplicialMap(open_, open_, range(3))
    with pytest.raises(ValueError, match=re.escape("face (1, 2) of (0, 1, 2) missing")):
        SimplicialMap(open_, _closure(1, 2, [(0,)]), (0, 0, 0))


def test_complex_is_face_closed_and_json_stable(tmp_path):
    met = euclidean_metric(_unit_square())
    complex_ = build_rips(met, 1.5, cap=2)
    complex_.validate_face_closed()
    path = tmp_path / "cx.json"
    _write_json(str(path), complex_.to_json_dict())
    back = SimplicialComplex.load(str(path))
    assert back.simplices == complex_.simplices
    assert back.n == complex_.n and back.cap == complex_.cap


def test_int_rows_read_as_the_list_of_their_rows():
    # interleaved widths, an empty row and both ends of int64
    lists = [[3, 4], [5], [0, 1], [], [-(2**63), 2**63 - 1]]
    rows = IntRows.from_lists(lists)
    assert len(rows) == 5 and list(rows) == lists and rows[2] == [0, 1] and rows[-1] == lists[-1]
    assert rows == lists and rows == IntRows.from_lists(lists) and rows != lists[:-1]
    assert repr(rows) == repr(lists) and json.dumps(rows) == json.dumps(lists)
    assert rows_text(rows, 1).decode() == json.dumps(lists, indent=2).replace("\n", "\n  ")


@st.composite
def _file_complexes(draw):
    """Face-closed complexes on up to 20,000 vertices, so that vertex ids
    have 1 to 5 digits, with some dimensions up to the cap left empty."""
    n = draw(st.sampled_from([0, 1, 10, 99, 100, 10_000, 20_000]) | st.integers(0, 20_000))
    cap = draw(st.integers(0, 3))
    tops = []
    if n >= 2 and cap >= 1:
        simplex = st.sets(st.integers(0, n - 1), min_size=2, max_size=cap + 1)
        tops = draw(st.lists(simplex.map(sorted).map(tuple), max_size=30))
    return _closure_on_arrays(n, cap, tops)


def _load_outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _json_route(path):
    with open(path) as fh:
        return SimplicialComplex.from_json_dict(json.load(fh))


@settings(max_examples=40, deadline=None)
@given(_file_complexes())
def test_written_complex_files_load_on_arrays(cx):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cx.json")
        _write_json(path, cx.to_json_dict())
        want = _json_route(path)
        with mock.patch("json.loads", side_effect=AssertionError("the json route was taken")):
            got = SimplicialComplex.load(path)
    assert got == want == cx


def _redump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _shuffled(obj: dict) -> str:
    flat = obj["simplices"]
    order = np.random.default_rng(3).permutation(len(flat))
    return _redump({**obj, "simplices": [flat[i] for i in order] + flat[2:9]})


# (mutation of the canonical text and of its object, does the array route
# read it); the sign and the leading zero take an indent space, so that only
# the reader's byte comparison, not the file length, can reject them
_MUTATIONS = {
    "negative-vertex": (lambda text, obj: text.replace("\n      3\n", "\n     -3\n", 1), False),
    "leading-zero": (lambda text, obj: text.replace("\n      3\n", "\n     03\n", 1), False),
    "19-digit-vertex": (
        lambda text, obj: text.replace("\n      3\n", "\n      9999999999999999999\n", 1),
        False,
    ),
    "19-digit-int64-vertex": (
        lambda text, obj: text.replace("\n      3\n", "\n      1000000000000000003\n", 1),
        False,
    ),
    "unsorted-and-duplicate-rows": (lambda text, obj: _shuffled(obj), True),
    "missing-singleton": (
        lambda text, obj: _redump({**obj, "simplices": [s for s in obj["simplices"] if s != [3]]}),
        True,
    ),
    "crlf": (lambda text, obj: text.replace("\n", "\r\n"), False),
    "no-final-newline": (lambda text, obj: text[:-1], False),
    "extra-key-last": (lambda text, obj: _redump({**obj, "source": "x"}), False),
    "extra-key-first": (lambda text, obj: _redump({**obj, "beta": 0.5}), False),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_mutated_complex_files_load_as_the_json_route_reads_them(tmp_path, name):
    mutate, on_arrays = _MUTATIONS[name]
    path = str(tmp_path / "cx.json")
    _write_json(path, _closure_on_arrays(12, 2, [(0, 1, 2), (2, 3), (9, 10, 11)]).to_json_dict())
    with open(path) as fh:
        text = fh.read()
    with open(path, "w", newline="") as fh:
        fh.write(mutate(text, json.loads(text)))
    want = _load_outcome(_json_route, path)
    with mock.patch("json.loads", wraps=json.loads) as spy:
        got = _load_outcome(SimplicialComplex.load, path)
    assert got == want
    assert spy.called is not on_arrays


def test_has_simplex_requires_sorted_vertices():
    met = euclidean_metric(_unit_square())
    complex_ = build_rips(met, 1.1, cap=1)
    assert complex_.has_simplex((0, 1))
    assert not complex_.has_simplex((2, 0))  # diagonal, absent at this scale


def test_maximal_cliques_on_the_square():
    met = euclidean_metric(_unit_square())
    cliques = maximal_cliques(met, 1.001)
    assert sorted(cliques.cliques) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    full = maximal_cliques(met, 2.0)
    assert sorted(full.cliques) == [(0, 1, 2, 3)]
    # the budget counts cliques and stops at the first one past it
    assert len(maximal_cliques(met, 1.001, budget=4)) == 4
    with pytest.raises(CliqueBudgetError) as info:
        maximal_cliques(met, 1.001, budget=3)
    assert (info.value.budget, info.value.count) == (3, 4)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12), st.data())
def test_maximal_cliques_match_the_subset_scan(points, data):
    # scales read off the distance matrix: every pair at exactly beta is left out
    met = euclidean_metric(PointCloud(np.array(points, dtype=float)))
    ties = sorted(set(met.d[met.d > 0].tolist()))
    beta = data.draw(st.sampled_from(ties) if ties else st.just(1.0))
    assert list(maximal_cliques(met, beta).cliques) == brute_maximal_cliques(met, beta)


def test_clique_budget_guards_blowup():
    # a path graph has one maximal clique per edge, here more than the budget
    pts = np.stack([np.arange(12.0), np.zeros(12)], axis=1)
    met = euclidean_metric(PointCloud(pts))
    with pytest.raises(CliqueBudgetError) as info:
        maximal_cliques(met, 1.1, budget=10)
    assert (info.value.budget, info.value.count) == (10, 11)


def test_clique_list_requires_sorted_tuples():
    with pytest.raises(ValueError):
        CliqueList(3, ((1, 0),))


def test_simplicial_map_verifies_images():
    met = euclidean_metric(_unit_square())
    sides = build_rips(met, 1.001, cap=2)
    # rotating the square by one vertex is simplicial on the side graph
    rot = SimplicialMap(sides, sides, [1, 2, 3, 0])
    assert rot.map_simplex((0, 1)) == (1, 2)
    # collapsing everything onto one vertex is fine too
    SimplicialMap(sides, sides, [0, 0, 0, 0])
    # sending a side to a non-edge is not
    full = build_rips(met, 2.0, cap=2)
    with pytest.raises(ValueError):
        SimplicialMap(full, sides, [0, 2, 1, 3])


def test_inclusion_map_checks_scale_monotonicity():
    met = euclidean_metric(_unit_square())
    small = build_rips(met, 1.001, cap=2)
    large = build_rips(met, 1.5, cap=2)
    inc = inclusion_map(small, large, src_scale=1.001, dst_scale=1.5)
    assert list(inc.vertex_map) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        inclusion_map(large, small, src_scale=1.5, dst_scale=1.001)


def test_inclusion_map_with_prefix_embedding():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    small = build_rips(euclidean_metric(PointCloud(pts[:2])), 1.1, cap=1)
    large = build_rips(euclidean_metric(PointCloud(pts)), 1.1, cap=1)
    inc = inclusion_map(small, large, embedding=range(2))
    assert inc.map_simplex((0, 1)) == (0, 1)
