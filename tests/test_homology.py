"""Mod-2 homology, induced maps, subdivision, and rank stabilization tables."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripshadow.homology import (
    CarrierVerificationError,
    ChainComplexZ2,
    Gf2Matrix,
    HomologyTower,
    InternalConsistencyError,
    barycentric_subdivision,
    betti,
    carrier_map_to_nerve,
    composite_rank_table,
    detect_plateau,
    homology_basis,
    induced_from_chain_columns,
    induced_map_on_bases,
    persistence_pairs,
    subdivision_chain_columns,
    tower_ranks,
    _echelon_basis,
)
from ripshadow.models import Circle, PointCloud, SamplerSpec, euclidean_metric, sample
from ripshadow.oracle import brute_barycentric_subdivision, brute_homology
from ripshadow.rips import (
    CliqueList,
    SimplicialComplex,
    SimplicialMap,
    build_rips,
    inclusion_map,
    maximal_cliques,
)
from ripshadow.shadow import ConvexCellSystem, build_nerve


def _cycle(n: int) -> SimplicialComplex:
    # cap 2 so homology in dimension one is certified complete
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return SimplicialComplex(n, 2, {0: [(i,) for i in range(n)], 1: sorted(edges)})


def _cone_over_square() -> SimplicialComplex:
    ring = [(0, 1), (1, 2), (2, 3), (0, 3)]
    spokes = [(i, 4) for i in range(4)]
    walls = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
    return SimplicialComplex(
        5,
        2,
        {0: [(i,) for i in range(5)], 1: sorted(ring + spokes), 2: sorted(walls)},
    )


def _tetra_boundary() -> SimplicialComplex:
    from itertools import combinations

    return SimplicialComplex(
        4,
        3,
        {
            0: [(i,) for i in range(4)],
            1: list(combinations(range(4), 2)),
            2: list(combinations(range(4), 3)),
        },
    )


# ---------------------------------------------------------------------------
# betti numbers


def test_cycle_graph_has_one_loop():
    assert betti(_cycle(7), 1) == [1, 1]


def test_two_components_show_in_dimension_zero():
    c = SimplicialComplex(4, 2, {0: [(0,), (1,), (2,), (3,)], 1: [(0, 1), (2, 3)]})
    assert betti(c, 1) == [2, 0]


def test_tetrahedron_boundary_is_a_sphere():
    assert betti(_tetra_boundary(), 2) == [1, 0, 1]


def test_cone_is_contractible_through_dimension_one():
    assert betti(_cone_over_square(), 1) == [1, 0]


def test_homology_refuses_uncertified_dimensions():
    with pytest.raises(ValueError):
        homology_basis(_cycle(5), 1 + 1)


def test_ranks_match_dense_oracle_on_random_complexes():
    rng = np.random.default_rng(9)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(n, 2)))
        complex_ = build_rips(euclidean_metric(cloud), float(rng.uniform(0.2, 0.9)), cap=3)
        for m in range(3):
            assert homology_basis(complex_, m).rank(m) == brute_homology(complex_, m)


_PLANAR_POINTS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(_PLANAR_POINTS, st.floats(0.05, 1.2), st.sampled_from([2, 3]))
def test_both_routes_match_dense_oracle_on_random_planar_clouds(points, beta, cap):
    cloud = PointCloud(np.array(points, dtype=float))
    complex_ = build_rips(euclidean_metric(cloud), beta, cap=cap)
    want = [brute_homology(complex_, m) for m in range(cap)]
    assert betti(complex_, cap - 1) == want
    assert homology_basis(complex_, cap - 1).ranks == want


def _column_echelon_pairs(masks: list[int]) -> dict[int, int]:
    """Nonzero columns of a left-to-right echelon, mapped to their pivots."""
    piv: dict[int, int] = {}
    pairs = {}
    for j, col in enumerate(masks):
        while col and col.bit_length() - 1 in piv:
            col ^= piv[col.bit_length() - 1]
        if col:
            piv[col.bit_length() - 1] = col
            pairs[j] = col.bit_length() - 1
    return pairs


def test_coboundary_pairs_equal_boundary_pivots():
    cloud = sample(SamplerSpec(Circle(), 400, tau=0.01, seed=7))
    complex_ = build_rips(euclidean_metric(cloud), 0.3, cap=2)
    chain = ChainComplexZ2(complex_)
    pairs = persistence_pairs(chain, 1)
    for m in (1, 2):
        masks = [sum(1 << f for f in faces) for faces in chain.boundary_columns(m).tolist()]
        assert pairs[m] == _column_echelon_pairs(masks)
        assert set(pairs[m].values()) == set(_echelon_basis(masks))
    # union-find leaves one column to clear per non-root vertex
    assert len(pairs[1]) == complex_.n - 1
    assert betti(complex_, 1) == [1, 1]


# ---------------------------------------------------------------------------
# induced maps


def _induced_ranks(f: SimplicialMap, up_to: int) -> list[int]:
    mats = induced_map_on_bases(
        f, homology_basis(f.source, up_to), homology_basis(f.target, up_to)
    )
    return [mat.rank() for mat in mats]


def test_identity_induces_identity_ranks():
    c = _cycle(6)
    assert _induced_ranks(SimplicialMap(c, c, list(range(6))), 1) == [1, 1]


def test_coning_off_kills_the_loop():
    square = _cycle(4)
    cone = _cone_over_square()
    assert _induced_ranks(SimplicialMap(square, cone, [0, 1, 2, 3]), 1) == [1, 0]


def test_induced_map_respects_composition_rank():
    # two nested scales on one cloud; the composite factors through the middle
    cloud = sample(SamplerSpec(Circle(1.0), 24, seed=3))
    met = euclidean_metric(cloud)
    a = build_rips(met, 0.3, cap=2)
    b = build_rips(met, 0.4, cap=2)
    c = build_rips(met, 0.5, cap=2)
    ha, hb, hc = (homology_basis(x, 1) for x in (a, b, c))
    f = induced_map_on_bases(inclusion_map(a, b, src_scale=0.3, dst_scale=0.4), ha, hb)
    g = induced_map_on_bases(inclusion_map(b, c, src_scale=0.4, dst_scale=0.5), hb, hc)
    gf = induced_map_on_bases(inclusion_map(a, c, src_scale=0.3, dst_scale=0.5), ha, hc)
    assert g[1].matmul(f[1]).rank() == gf[1].rank() == 1


# ---------------------------------------------------------------------------
# barycentric subdivision


def _carrier_list(carriers) -> list[tuple[int, ...]]:
    """Carrier rows as one tuple per subdivision vertex, in vertex order."""
    return [tuple(r) for a in carriers for r in a.tolist()]


def test_subdivision_counts_on_a_cycle():
    sd, carriers = barycentric_subdivision(_cycle(5))
    assert sd.counts() == [10, 10]
    # each new vertex carries the simplex it subdivides
    flat = _carrier_list(carriers)
    assert len(flat) == sd.n
    dims = sorted(len(carrier) for carrier in flat)
    assert dims == [1] * 5 + [2] * 5


def test_subdivision_counts_on_a_filled_triangle():
    tri = SimplicialComplex(3, 2, {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2)]})
    sd, _ = barycentric_subdivision(tri)
    assert sd.counts() == [7, 12, 6]
    assert betti(sd, 1) == [1, 0]
    _check_subdivision_against_references(tri)


def test_subdivision_preserves_betti_numbers():
    cloud = sample(SamplerSpec(Circle(1.0), 16, seed=0))
    complex_ = build_rips(euclidean_metric(cloud), 0.6, cap=2)
    sd, _ = barycentric_subdivision(complex_)
    assert betti(sd, 1) == betti(complex_, 1)


def test_subdivision_chain_map_is_an_isomorphism_on_homology():
    cloud = sample(SamplerSpec(Circle(1.0), 14, seed=2))
    complex_ = build_rips(euclidean_metric(cloud), 0.7, cap=2)
    sd, carriers = barycentric_subdivision(complex_)
    src = homology_basis(complex_, 1)
    dst = homology_basis(sd, 1)
    cols = subdivision_chain_columns(complex_, sd, 1)
    mats = induced_from_chain_columns(cols, src, dst, 1)
    for m in range(2):
        assert mats[m].rank() == src.rank(m) == dst.rank(m)


@st.composite
def _closed_complexes(draw) -> SimplicialComplex:
    """The closure of a few random simplices on up to six vertices, cap 0-3."""
    n = draw(st.integers(1, 6))
    cap = draw(st.integers(0, 3))
    tops = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=cap + 1), max_size=8)
    )
    groups: dict[int, set] = {0: {(i,) for i in range(n)}}
    for top in tops:
        t = tuple(sorted(top))
        for size in range(2, len(t) + 1):
            groups.setdefault(size - 1, set()).update(combinations(t, size))
    return SimplicialComplex(n, cap, {d: sorted(g) for d, g in groups.items()})


def _reference_chain_columns(complex_, sd, carriers, up_to):
    """Subdivision chain columns by a loop over vertex permutations."""
    vertex_of = {s: i for i, s in enumerate(carriers)}
    sd_index = {d: {s: i for i, s in enumerate(g)} for d, g in sd.simplices.items()}
    out = {}
    for m in range(up_to + 1):
        cols = []
        for s in complex_.simplices.get(m, []):
            acc = 0
            for perm in permutations(s):
                flag = tuple(vertex_of[tuple(sorted(perm[: k + 1]))] for k in range(m + 1))
                acc ^= 1 << sd_index[m][tuple(sorted(flag))]
            cols.append(acc)
        out[m] = cols
    return out


def _check_subdivision_against_references(complex_: SimplicialComplex) -> None:
    sd, carriers = barycentric_subdivision(complex_)
    ref_sd, ref_carriers = brute_barycentric_subdivision(complex_)
    assert sd == ref_sd
    assert sd.simplices == ref_sd.simplices
    assert _carrier_list(carriers) == ref_carriers
    assert subdivision_chain_columns(complex_, sd, complex_.cap) == _reference_chain_columns(
        complex_, sd, _carrier_list(carriers), complex_.cap
    )


@settings(max_examples=60, deadline=None)
@given(_closed_complexes())
def test_subdivision_matches_the_oracle(complex_):
    _check_subdivision_against_references(complex_)


def test_subdivision_with_an_empty_top_dimension_matches_the_oracle():
    complex_ = SimplicialComplex(3, 2, {0: [(0,), (1,), (2,)], 1: [(0, 1)], 2: []})
    sd, _ = barycentric_subdivision(complex_)
    assert sd.counts() == [4, 2]
    _check_subdivision_against_references(complex_)


def test_subdivision_of_a_single_vertex_is_itself():
    complex_ = SimplicialComplex(1, 0, {0: [(0,)]})
    sd, carriers = barycentric_subdivision(complex_)
    assert sd == complex_
    assert _carrier_list(carriers) == [(0,)]
    _check_subdivision_against_references(complex_)


def test_induced_from_chain_columns_rejects_a_non_chain_map():
    basis = homology_basis(_cycle(5), 1)
    identity = {0: [1 << i for i in range(5)], 1: [1 << j for j in range(5)]}
    assert [m.rank() for m in induced_from_chain_columns(identity, basis, basis, 1)] == [1, 1]
    # the loop goes to the single edge 0, which is not a cycle
    to_one_edge = {0: identity[0], 1: [1, 0, 0, 0, 0]}
    with pytest.raises(InternalConsistencyError, match="not a cycle"):
        induced_from_chain_columns(to_one_edge, basis, basis, 1)
    reps = basis.representatives
    doubled = replace(basis, representatives={0: reps[0], 1: reps[1] * 2})
    with pytest.raises(InternalConsistencyError, match="dependent"):
        induced_from_chain_columns(identity, basis, doubled, 1)


def test_carrier_map_reaches_the_nerve():
    cloud = sample(SamplerSpec(Circle(1.0), 12, seed=0))
    met = euclidean_metric(cloud)
    complex_ = build_rips(met, 0.7, cap=2)
    cells = maximal_cliques(met, 0.7)
    system = ConvexCellSystem(cloud, cells)
    nerve = build_nerve(system, cap=2)
    sd, carriers = barycentric_subdivision(complex_)
    cm = carrier_map_to_nerve(sd, carriers, system, nerve)
    assert cm.source is sd
    assert cm.target is nerve.complex
    assert all(0 <= v < nerve.complex.n for v in cm.vertex_map)


def test_carrier_map_rejects_a_simplex_no_cell_holds_and_a_missing_image():
    # the edge (0, 2) lies in neither cell (0, 1) nor cell (1, 2)
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    system = ConvexCellSystem(cloud, CliqueList(3, ((0, 1), (1, 2))))
    nerve = build_nerve(system, cap=1)
    path = SimplicialComplex(3, 1, {0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)]})
    triangle = SimplicialComplex(3, 1, {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]})
    sd, carriers = barycentric_subdivision(triangle)
    with pytest.raises(CarrierVerificationError, match=r"simplex \(0, 2\) is not contained in any cell"):
        carrier_map_to_nerve(sd, carriers, system, nerve)
    # the cells meet at vertex 1, but a nerve of cap 0 has no edge for them
    sd, carriers = barycentric_subdivision(path)
    assert carrier_map_to_nerve(sd, carriers, system, nerve).vertex_map == (0, 0, 1, 0, 1)
    with pytest.raises(CarrierVerificationError, match="not simplicial"):
        carrier_map_to_nerve(sd, carriers, system, build_nerve(system, cap=0))


# ---------------------------------------------------------------------------
# mod-2 matrices


def test_gf2_matmul_against_hand_product():
    a = Gf2Matrix(2, [0b11, 0b10])
    b = Gf2Matrix(2, [0b01, 0b11])
    assert a.matmul(b).cols == [0b11, 0b01]
    assert a.matmul(Gf2Matrix(2, [0b01, 0b10])).cols == a.cols


def test_gf2_rank_counts_independent_columns():
    assert Gf2Matrix(3, [0b001, 0b010, 0b011]).rank() == 2
    assert Gf2Matrix(5, [1 << i for i in range(5)]).rank() == 5
    assert Gf2Matrix(4, [0, 0, 0]).rank() == 0


def test_gf2_matmul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Gf2Matrix(2, [0b11]).matmul(Gf2Matrix(2, [0b01, 0b10]))


# ---------------------------------------------------------------------------
# towers and plateaus


def test_composite_table_diagonal_holds_stage_ranks():
    steps = [Gf2Matrix(1, [1]), Gf2Matrix(1, [1])]
    table = composite_rank_table([1, 1, 1], steps)
    assert table == [[1, 1, 1], [None, 1, 1], [None, None, 1]]


def test_plateau_found_at_origin_for_constant_table():
    table = [[1, 1, 1], [None, 1, 1], [None, None, 1]]
    p = detect_plateau(table)
    assert (p.rank, p.i0, p.j0, p.length) == (1, 0, 0, 3)


def test_plateau_skips_a_noisy_first_stage():
    table = [
        [2, 1, 1, 1],
        [None, 1, 1, 1],
        [None, None, 1, 1],
        [None, None, None, 1],
    ]
    p = detect_plateau(table)
    assert (p.rank, p.i0, p.j0, p.length) == (1, 0, 1, 3)


def test_no_plateau_when_ranks_keep_dropping():
    table = [[3, 2, 1], [None, 2, 1], [None, None, 1]]
    assert detect_plateau(table) is None


def test_tower_of_identities_reports_a_plateau():
    c = _cycle(8)
    maps = [SimplicialMap(c, c, list(range(8))) for _ in range(3)]
    tower = HomologyTower([c] * 4, maps, up_to=1)
    report = tower_ranks(tower)
    assert report.plateaus[1] is not None
    assert report.plateaus[1].rank == 1
    assert report.rank_table[1][0][3] == 1
