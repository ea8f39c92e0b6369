"""Mod-2 simplicial homology: Betti numbers, induced maps, towers.

Chains are bit masks (Python ints) over the lexicographically ordered
simplex basis of each dimension.  Ranks come from the persistence pairs of
that order.  Union-find pairs vertices with the edges of a spanning forest;
each higher dimension m reduces the coboundary columns of the (m-1)-simplices
from last to first, with the lowest coface as pivot, and clears (skips) the
columns of simplices already paired one dimension down (Chen & Kerber, 2011;
de Silva, Morozov & Vejdemo-Johansson, 2011).  By duality these pairs are the
pivots of column echelon on the boundary matrices with the highest set bit as
pivot, processed in basis order.  So ``betti`` only counts pairs, and
``homology_basis`` reduces only the boundary columns that survive, plus one
cycle per unpaired (essential) simplex.

Every rank, cycle representative, and induced matrix is deterministic for a
given complex.  Reports carry only ranks, which do not depend on the basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .rips import SimplicialComplex, SimplicialMap
from .shadow import ConvexCellSystem, NerveComplex, hulls_intersect

# fewest stages, counted from the last, that a composite-rank plateau spans
PLATEAU_MIN_LENGTH = 3


class InternalConsistencyError(RuntimeError):
    """A chain expected to be a cycle or boundary failed to reduce; this
    indicates a bug rather than bad input."""


class CarrierVerificationError(RuntimeError):
    """The carrier assignment failed its re-verification against the cells."""


# ---------------------------------------------------------------------------
# bit-column linear algebra


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _column_mask(indices: list[int]) -> int:
    """``_mask`` of an increasing index list, set as bits of one byte string.

    Cheaper than summing shifts once a column holds more than a few bits
    far up, as coboundary columns do.
    """
    bits = np.zeros(indices[-1] + 1, np.uint8)
    bits[indices] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _reduce(vec: int, piv: dict[int, int], used: list[int] | None = None) -> int:
    """Residue of vec against an echelon keyed by highest set bit.

    The pivots added on the way are appended to ``used`` when it is given.
    """
    while vec:
        p = vec.bit_length() - 1
        other = piv.get(p)
        if other is None:
            break
        vec ^= other
        if used is not None:
            used.append(p)
    return vec


def _echelon_basis(vectors: list[int]) -> dict[int, int]:
    """Reduce vectors into a pivot->vector echelon dictionary."""
    piv: dict[int, int] = {}
    for v in vectors:
        residue = _reduce(v, piv)
        if residue:
            piv[residue.bit_length() - 1] = residue
    return piv


class Gf2Matrix:
    """Matrix over GF(2); column j is the integer bit mask cols[j]."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: list[int]):
        self.rows = rows
        self.cols = list(cols)

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """self @ other; other's columns are combined from self's columns."""
        if other.rows != self.ncols:
            raise ValueError("dimension mismatch in mod-2 matrix product")
        out = []
        for c in other.cols:
            acc = 0
            rem = c
            while rem:
                low = rem & -rem
                acc ^= self.cols[low.bit_length() - 1]
                rem ^= low
            out.append(acc)
        return Gf2Matrix(self.rows, out)

    def rank(self) -> int:
        return len(_echelon_basis(self.cols))


# ---------------------------------------------------------------------------
# chain complexes and persistence pairs


@dataclass
class ChainComplexZ2:
    """Boundary maps of a complex over the per-dimension simplex bases."""

    complex: SimplicialComplex
    _faces: dict[int, np.ndarray] = field(init=False, default_factory=dict, repr=False)

    def size(self, m: int) -> int:
        """Number of m-simplices, the length of the m-th basis."""
        return len(self.complex._rows.get(m, ()))

    def boundary_columns(self, m: int) -> np.ndarray:
        """Row j = indices of the faces of the j-th m-simplex in the (m-1) basis."""
        if m <= 0:
            return np.empty((self.size(m), 0), np.int64)
        return self.complex.face_positions(m)

    def faces(self, m: int) -> np.ndarray:
        """``boundary_columns(m)``, built once per dimension."""
        got = self._faces.get(m)
        if got is None:
            got = self._faces[m] = self.boundary_columns(m)
        return got


def _forest_pairs(chain: ChainComplexZ2) -> dict[int, int]:
    """Edges of the spanning forest, each mapped to the vertex it kills.

    Edges are taken in order; each component keeps its smallest vertex as
    root, so an edge joining two components kills the larger root.
    """
    parent = list(range(chain.size(0)))
    pairs = {}
    for j, (a, b) in enumerate(chain.faces(1).tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            pairs[j] = b
    return pairs


def _coboundary_pairs(
    faces: np.ndarray, n_lower: int, cleared: dict[int, int]
) -> dict[int, int]:
    """Pairs from the reduced coboundary columns of the lower simplices.

    Columns are coface index lists, processed from the last lower simplex
    to the first, with the lowest coface as pivot.  One stable sort of the
    face array lists every lower simplex's cofaces in increasing order.  A
    column turns into a bit mask only when it has to be reduced or another
    column is reduced by it; until then the simplex that owns a pivot
    stands for its column.
    """
    flat = faces.ravel()
    cofaces = (np.argsort(flat, kind="stable") // faces.shape[1]).tolist()
    bounds = [0] + np.cumsum(np.bincount(flat, minlength=n_lower)).tolist()
    reduced: dict[int, int] = {}  # pivot -> reduced column, once it is a mask
    pairs = {}
    for tau in range(n_lower - 1, -1, -1):
        lo, hi = bounds[tau], bounds[tau + 1]
        if lo == hi or tau in cleared:
            continue
        low = cofaces[lo]
        if low in pairs:
            cur = _column_mask(cofaces[lo:hi])
            while cur:
                low = (cur & -cur).bit_length() - 1
                owner = pairs.get(low)
                if owner is None:
                    break
                other = reduced.get(low)
                if other is None:
                    other = reduced[low] = _column_mask(cofaces[bounds[owner] : bounds[owner + 1]])
                cur ^= other
            if not cur:
                continue
            reduced[low] = cur
        pairs[low] = tau
    return pairs


def persistence_pairs(chain: ChainComplexZ2, up_to: int) -> dict[int, dict[int, int]]:
    """Persistence pairs of the lexicographic order, dimensions 1..up_to+1.

    ``pairs[m]`` maps each negative m-simplex (one whose boundary column
    survives reduction) to the (m-1)-simplex it kills, the pivot of that
    column.  Dimension m clears the columns of the keys of ``pairs[m-1]``.
    """
    pairs = {1: _forest_pairs(chain)}
    for m in range(2, up_to + 2):
        pairs[m] = _coboundary_pairs(chain.faces(m), chain.size(m - 1), pairs[m - 1])
    return pairs


def _check_certified(complex_: SimplicialComplex, up_to: int, what: str) -> None:
    if up_to > complex_.cap - 1:
        raise ValueError(
            f"{what} above dimension {complex_.cap - 1} is not certified at "
            f"cap {complex_.cap}; rebuild with a larger cap"
        )


def betti(complex_: SimplicialComplex, up_to: int) -> list[int]:
    """Betti numbers b_0..b_up_to: simplices minus the negative ones in
    dimensions m and m+1."""
    _check_certified(complex_, up_to, "betti")
    chain = ChainComplexZ2(complex_)
    pairs = persistence_pairs(chain, up_to)
    return [
        chain.size(m) - len(pairs.get(m, ())) - len(pairs[m + 1])
        for m in range(up_to + 1)
    ]


# ---------------------------------------------------------------------------
# homology bases


@dataclass
class HomologyBasis:
    """Cycle representatives spanning homology, one list per dimension."""

    complex: SimplicialComplex
    up_to: int
    ranks: list[int]
    representatives: dict[int, list[int]]
    boundary_echelon: dict[int, dict[int, int]]

    def rank(self, m: int) -> int:
        return self.ranks[m] if 0 <= m <= self.up_to else 0


@dataclass
class _BoundaryEchelon:
    """Reduced boundary columns of the negative simplices of one dimension."""

    pivots: dict[int, int]  # pivot -> reduced column
    owner: dict[int, int]  # pivot -> simplex whose column it is
    added: dict[int, list[int]]  # simplex -> simplices added to its column

    @classmethod
    def build(
        cls, faces: np.ndarray, negative: dict[int, int]
    ) -> "_BoundaryEchelon":
        ech = cls({}, {}, {})
        for j in sorted(negative):
            used: list[int] = []
            col = _reduce(_mask(faces[j].tolist()), ech.pivots, used)
            p = negative[j]
            if col.bit_length() - 1 != p:
                raise InternalConsistencyError(
                    f"boundary column {j} does not reduce to the pivot {p} "
                    "its coboundary pair names"
                )
            ech.pivots[p] = col
            ech.owner[p] = j
            ech.added[j] = [ech.owner[q] for q in used]
        return ech

    def cycle(self, j: int, faces: np.ndarray) -> int:
        """Simplex j plus the negative simplices whose boundaries sum to its own."""
        used: list[int] = []
        if _reduce(_mask(faces[j].tolist()), self.pivots, used):
            raise InternalConsistencyError(f"essential simplex {j} is not a cycle")
        chain = 1 << j
        pending = _mask(self.owner[q] for q in used)
        while pending:
            # a column only ever adds earlier columns, so the highest
            # pending simplex is final when it is reached
            k = pending.bit_length() - 1
            chain ^= 1 << k
            pending ^= 1 << k
            for a in self.added[k]:
                pending ^= 1 << a
        return chain


def homology_basis(complex_: SimplicialComplex, up_to: int) -> HomologyBasis:
    _check_certified(complex_, up_to, "homology")
    chain = ChainComplexZ2(complex_)
    pairs = persistence_pairs(chain, up_to)
    ranks, reps, bnds = [], {}, {}
    below: _BoundaryEchelon | None = None  # echelon of the boundary into m-1
    for m in range(up_to + 1):
        above = _BoundaryEchelon.build(chain.faces(m + 1), pairs[m + 1])
        paired = pairs.get(m, {}).keys() | set(pairs[m + 1].values())
        essential = [j for j in range(chain.size(m)) if j not in paired]
        if m == 0:
            reps[m] = [1 << j for j in essential]
        else:
            reps[m] = [below.cycle(j, chain.faces(m)) for j in essential]
        ranks.append(len(essential))
        bnds[m] = above.pivots
        below = above
    return HomologyBasis(complex_, up_to, ranks, reps, bnds)


# ---------------------------------------------------------------------------
# induced maps


def _vertex_chain_columns(f: SimplicialMap, m: int) -> list[int]:
    """Chain map columns of a simplicial map: degenerate images drop to zero."""
    rows = f.source._rows.get(m, np.empty((0, m + 1), np.int64))
    cols = [0] * len(rows)
    full = f.image_rows(rows).get(m + 1)
    if full is not None:
        at, img = full
        for j, p in zip(at.tolist(), f.target._locate(m, img).tolist()):
            cols[j] = 1 << p
    return cols


def _sum_used(coeff: dict[int, int], used: list[int]) -> int:
    """XOR of the representative sums recorded at the pivots in ``used``."""
    out = 0
    for p in used:
        out ^= coeff.get(p, 0)
    return out


def induced_from_chain_columns(
    chain_cols: dict[int, list[int]],
    src_basis: HomologyBasis,
    dst_basis: HomologyBasis,
    up_to: int,
) -> list[Gf2Matrix]:
    """Express images of source cycle representatives in the target basis.

    The target representatives are reduced into the target boundary
    echelon, each new pivot recording the representatives it sums
    (boundary pivots sum none).  An image's coordinates are the XOR of
    those sums over the pivots its reduction uses; a nonzero residue would
    mean the input was not a chain map and raises InternalConsistencyError.
    """
    mats = []
    for m in range(up_to + 1):
        piv = dict(dst_basis.boundary_echelon[m])
        coeff: dict[int, int] = {}
        for idx, rep in enumerate(dst_basis.representatives[m]):
            used: list[int] = []
            cur = _reduce(rep, piv, used)
            if cur == 0:
                raise InternalConsistencyError("dependent homology representatives")
            p = cur.bit_length() - 1
            piv[p] = cur
            coeff[p] = (1 << idx) ^ _sum_used(coeff, used)
        cols = chain_cols[m]
        n_dst = len(dst_basis.complex._rows.get(m, ()))
        images = Gf2Matrix(n_dst, cols).matmul(
            Gf2Matrix(len(cols), src_basis.representatives[m])
        )
        out_cols = []
        for img in images.cols:
            used = []
            if _reduce(img, piv, used):
                raise InternalConsistencyError(
                    "image of a cycle is not a cycle modulo boundaries"
                )
            out_cols.append(_sum_used(coeff, used))
        mats.append(Gf2Matrix(dst_basis.rank(m), out_cols))
    return mats


def induced_map_on_bases(
    f: SimplicialMap, src: HomologyBasis, dst: HomologyBasis
) -> list[Gf2Matrix]:
    """Homology matrices of a simplicial map, one per dimension up to the
    lower of the two bases' dimensions."""
    if src.complex is not f.source or dst.complex is not f.target:
        raise ValueError("bases do not belong to the map's complexes")
    up_to = min(src.up_to, dst.up_to)
    cols = {m: _vertex_chain_columns(f, m) for m in range(up_to + 1)}
    return induced_from_chain_columns(cols, src, dst, up_to)


# ---------------------------------------------------------------------------
# barycentric subdivision


def _flag_patterns(d: int) -> dict[int, list[tuple[tuple[int, ...], ...]]]:
    """Chains of faces of a d-simplex that end at the simplex, by length - 1.

    Faces are tuples of vertex positions 0..d.  A chain of k+1 faces is a
    map of the positions onto the steps 0..k: face i holds the positions
    of step at most i.  The chains of length d+1 are the full flags, one
    per permutation of the positions.
    """
    out: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
    for steps in product(range(d + 1), repeat=d + 1):
        k = max(steps)
        if len(set(steps)) == k + 1:
            out.setdefault(k, []).append(
                tuple(
                    tuple(p for p in range(d + 1) if steps[p] <= i) for i in range(k + 1)
                )
            )
    return out


def _vertex_offsets(complex_: SimplicialComplex) -> tuple[dict[int, int], int]:
    """First subdivision vertex of each dimension's simplices, and the total."""
    offsets, total = {}, 0
    for d in sorted(complex_._rows):
        offsets[d] = total
        total += len(complex_._rows[d])
    return offsets, total


def _face_vertices(
    complex_: SimplicialComplex, offsets: dict[int, int], d: int
) -> dict[tuple[int, ...], np.ndarray]:
    """Subdivision vertex of each face of every d-simplex, keyed by the
    face's vertex positions."""
    rows = complex_._rows[d]
    out = {}
    for size in range(1, d + 2):
        for pos in combinations(range(d + 1), size):
            at = complex_._locate(size - 1, rows[:, pos])
            if (at < 0).any():
                s = tuple(rows[int(np.argmax(at < 0))].tolist())
                face = tuple(s[p] for p in pos)
                raise ValueError(f"face {face} of {s} missing")
            out[pos] = offsets[size - 1] + at
    return out


def barycentric_subdivision(
    complex_: SimplicialComplex,
) -> tuple[SimplicialComplex, list[np.ndarray]]:
    """First barycentric subdivision and its carrier rows.

    New vertices are the simplices of the input, ordered by (dimension,
    lexicographic): the i-th d-simplex is vertex ``offset(d) + i``, where
    ``offset(d)`` counts the simplices of lower dimension.  The carrier rows
    are the input's row arrays in dimension order, so their rows, read in
    turn, are the carriers of the new vertices in order.  New simplices
    are the chains of proper inclusions.  The chains that end at a
    d-simplex follow one fixed list of face-position patterns per d
    (``_flag_patterns``), so each pattern maps the whole (m, d+1) row array
    to rows of new vertices at once; since ids grow with dimension, those
    rows are already increasing.
    """
    offsets, total = _vertex_offsets(complex_)
    blocks: dict[int, list[np.ndarray]] = {}
    for d, rows in sorted(complex_._rows.items()):
        faces = _face_vertices(complex_, offsets, d)
        for k, flags in _flag_patterns(d).items():
            blocks.setdefault(k, []).extend(
                np.stack([faces[pos] for pos in flag], axis=1) for flag in flags
            )
    sd_rows = {}
    for k, parts in sorted(blocks.items()):
        rows = np.concatenate(parts)
        sd_rows[k] = rows[np.lexsort(rows.T[::-1])]
    sd = SimplicialComplex(total, complex_.cap, sd_rows)
    return sd, [complex_._rows[d] for d in sorted(complex_._rows)]


def subdivision_chain_columns(
    complex_: SimplicialComplex, sd: SimplicialComplex, up_to: int
) -> dict[int, list[int]]:
    """Chain map sending each simplex to the sum of its subdivided pieces.

    The pieces of an m-simplex are its full flags: chains of faces with one
    face in every dimension 0..m.  This chain map induces the subdivision
    isomorphism on homology.
    """
    offsets, _ = _vertex_offsets(complex_)
    cols_by_dim: dict[int, list[int]] = {}
    for m in range(up_to + 1):
        if m not in complex_._rows:
            cols_by_dim[m] = []
            continue
        faces = _face_vertices(complex_, offsets, m)
        at = np.stack(
            [
                sd._locate(m, np.stack([faces[pos] for pos in flag], axis=1))
                for flag in _flag_patterns(m)[m]
            ],
            axis=1,
        )
        cols_by_dim[m] = [_mask(row) for row in at.tolist()]
    return cols_by_dim


def composed_chain_columns(
    f: SimplicialMap, inner: dict[int, list[int]]
) -> dict[int, list[int]]:
    """Chain map columns of f_# after ``inner``, whose columns are chains
    on f's source, in every dimension of ``inner``."""
    out = {}
    for m, cols in inner.items():
        outer = _vertex_chain_columns(f, m)
        n_dst = len(f.target._rows.get(m, ()))
        out[m] = Gf2Matrix(n_dst, outer).matmul(Gf2Matrix(len(outer), cols)).cols
    return out


def carrier_map_to_nerve(
    sd: SimplicialComplex,
    carriers: list[np.ndarray],
    system: ConvexCellSystem,
    nerve: NerveComplex,
) -> SimplicialMap:
    """Send each subdivision vertex to the first cell containing its carrier.

    ``carriers`` are the carrier rows `barycentric_subdivision` returns.
    The distinct image simplices are re-verified against the cells by the
    exact intersection test, one batch per dimension; failure would falsify
    the carrier argument, so it aborts rather than degrade.
    """
    assignment = []
    for rows in carriers:
        at = system.first_cells_containing(rows)
        if (at < 0).any():
            s = tuple(rows[int(np.argmax(at < 0))].tolist())
            raise CarrierVerificationError(f"simplex {s} is not contained in any cell")
        assignment.extend(at.tolist())
    try:
        f = SimplicialMap(sd, nerve.complex, tuple(assignment))
    except ValueError as exc:
        raise CarrierVerificationError(str(exc)) from exc
    # the distinct image simplices, read off as target rows by size (every
    # image is one, or the map above would have raised)
    target = nerve.complex
    images: dict[int, list[np.ndarray]] = {}
    for rows in sd._rows.values():
        for k, (_, img) in f.image_rows(rows).items():
            images.setdefault(k, []).append(target._locate(k - 1, img))
    for k, found in sorted(images.items()):
        img = target._rows[k - 1][np.unique(np.concatenate(found))]
        met = hulls_intersect(system, img)
        if not met.all():
            cells = tuple(img[int(np.argmin(met))].tolist())
            raise CarrierVerificationError(
                f"cells {cells} do not share a point; carrier assignment is wrong"
            )
    return f


# ---------------------------------------------------------------------------
# towers


@dataclass
class HomologyTower:
    """Stages connected by simplicial maps, with homology along the way."""

    complexes: list[SimplicialComplex]
    maps: list[SimplicialMap]
    up_to: int
    bases: list[HomologyBasis] = field(init=False)
    step_matrices: list[list[Gf2Matrix]] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.maps) != len(self.complexes) - 1:
            raise ValueError("a tower with k stages needs k-1 connecting maps")
        for i, f in enumerate(self.maps):
            if f.source is not self.complexes[i] or f.target is not self.complexes[i + 1]:
                raise ValueError(f"map {i} does not connect stages {i} -> {i + 1}")
        self.bases = [homology_basis(c, self.up_to) for c in self.complexes]
        self.step_matrices = [
            induced_map_on_bases(f, self.bases[i], self.bases[i + 1])
            for i, f in enumerate(self.maps)
        ]

    def __len__(self) -> int:
        return len(self.complexes)


@dataclass(frozen=True)
class Plateau:
    rank: int
    i0: int
    j0: int
    length: int

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "i0": self.i0,
            "j0": self.j0,
            "length": self.length,
        }


def composite_rank_table(
    stage_ranks: list[int], step_matrices: list[Gf2Matrix]
) -> list[list[int | None]]:
    """table[i][j] = rank of the composite from stage i into stage j (i <= j)."""
    k = len(stage_ranks)
    table: list[list[int | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        table[i][i] = stage_ranks[i]
        composite: Gf2Matrix | None = None
        for j in range(i + 1, k):
            step = step_matrices[j - 1]
            composite = step if composite is None else step.matmul(composite)
            table[i][j] = composite.rank()
    return table


def detect_plateau(table: list[list[int | None]]) -> Plateau | None:
    """Earliest (j0, i0) from which every composite rank in the window agrees.

    A plateau of rank r means table[i][j] == r for all i0 <= i <= j and
    j >= j0, and the tail j0..k-1 must be at least ``PLATEAU_MIN_LENGTH``
    stages long.
    """
    k = len(table)
    for j0 in range(0, k - PLATEAU_MIN_LENGTH + 1):
        for i0 in range(0, j0 + 1):
            r = table[i0][j0]
            ok = True
            for i in range(i0, k):
                for j in range(max(i, j0), k):
                    if table[i][j] != r:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return Plateau(int(r), i0, j0, k - j0)
    return None


@dataclass
class TowerReport:
    dims: list[int]
    stages: int
    rank_table: dict[int, list[list[int | None]]]
    plateaus: dict[int, Plateau | None]

    def to_json_dict(self) -> dict:
        return {
            "dims": self.dims,
            "stages": self.stages,
            "rank_table": {str(m): self.rank_table[m] for m in self.dims},
            "plateau": {
                str(m): (p.to_json_dict() if p else None)
                for m, p in self.plateaus.items()
            },
        }


def tower_ranks(tower: HomologyTower) -> TowerReport:
    dims = list(range(tower.up_to + 1))
    tables = {}
    plateaus = {}
    for m in dims:
        stage_ranks = [b.rank(m) for b in tower.bases]
        steps = [mats[m] for mats in tower.step_matrices]
        table = composite_rank_table(stage_ranks, steps)
        tables[m] = table
        plateaus[m] = detect_plateau(table)
    return TowerReport(dims, len(tower), tables, plateaus)
