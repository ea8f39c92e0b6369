"""Vietoris-Rips complexes with a strict diameter threshold.

A subset is a simplex exactly when every pairwise distance is strictly
below the scale.  Strictness matters: a pair at distance exactly beta is
never joined, so thresholds taken from existing pairwise distances leave
those pairs out.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .models import MetricMatrix


class CliqueBudgetError(RuntimeError):
    """Raised when clique enumeration exceeds its output budget."""

    def __init__(self, budget: int, count: int):
        super().__init__(
            f"clique enumeration exceeded budget {budget}; at least {count} maximal cliques"
        )
        self.budget = budget
        self.count = count


@dataclass
class SimplicialComplex:
    """Finite simplicial complex on vertices 0..n-1, capped at dimension ``cap``.

    ``simplices`` maps dimension to a lexicographically sorted list of
    vertex tuples.  The vertex list always contains all n singletons.
    """

    n: int
    cap: int
    simplices: dict[int, list[tuple[int, ...]]]
    _sets: dict[int, set] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0 or self.cap < 0:
            raise ValueError("n and cap must be nonnegative")
        for d, group in self.simplices.items():
            if d > self.cap:
                raise ValueError(f"simplex of dimension {d} above cap {self.cap}")
            for s in group:
                if len(s) != d + 1 or list(s) != sorted(set(s)):
                    raise ValueError(f"malformed simplex {s} in dimension {d}")
                if s[0] < 0 or s[-1] >= self.n:
                    raise ValueError(f"vertex out of range in {s}")

    def _set(self, d: int) -> set:
        if self._sets is None:
            self._sets = {}
        if d not in self._sets:
            self._sets[d] = set(self.simplices.get(d, ()))
        return self._sets[d]

    def has_simplex(self, s: tuple[int, ...]) -> bool:
        return s in self._set(len(s) - 1)

    def counts(self) -> list[int]:
        return [len(self.simplices.get(d, ())) for d in range(self.dim + 1)]

    @property
    def dim(self) -> int:
        dims = [d for d, g in self.simplices.items() if g]
        return max(dims) if dims else -1

    def all_simplices(self):
        for d in sorted(self.simplices):
            yield from self.simplices[d]

    def validate_face_closed(self) -> None:
        from itertools import combinations

        for d in sorted(self.simplices):
            if d == 0:
                continue
            for s in self.simplices[d]:
                for face in combinations(s, d):
                    if not self.has_simplex(face):
                        raise ValueError(f"face {face} of {s} missing")

    def to_json_dict(self) -> dict:
        flat = []
        for d in sorted(self.simplices):
            flat.extend([list(s) for s in self.simplices[d]])
        return {"n": self.n, "cap": self.cap, "simplices": flat}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimplicialComplex":
        groups: dict[int, list[tuple[int, ...]]] = {}
        for s in obj["simplices"]:
            t = tuple(int(v) for v in s)
            groups.setdefault(len(t) - 1, []).append(t)
        for d in groups:
            groups[d] = sorted(set(groups[d]))
        cx = cls(int(obj["n"]), int(obj["cap"]), groups)
        cx.validate_face_closed()
        return cx

    @classmethod
    def load(cls, path: str) -> "SimplicialComplex":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class CliqueList:
    """Lexicographically sorted maximal cliques of a proximity graph."""

    n: int
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for c in self.cliques:
            if list(c) != sorted(set(c)):
                raise ValueError(f"malformed clique {c}")
            if c and (c[0] < 0 or c[-1] >= self.n):
                raise ValueError(f"vertex out of range in clique {c}")
        if list(self.cliques) != sorted(self.cliques):
            raise ValueError("cliques must be sorted")

    def __len__(self) -> int:
        return len(self.cliques)


@dataclass
class SimplicialMap:
    """Vertex assignment between complexes, verified simplicial on construction."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: tuple[int, ...]

    def __post_init__(self) -> None:
        self.vertex_map = tuple(int(v) for v in self.vertex_map)
        if len(self.vertex_map) != self.source.n:
            raise ValueError("vertex map must assign every source vertex")
        for v in self.vertex_map:
            if not 0 <= v < self.target.n:
                raise ValueError(f"image vertex {v} out of range")
        for s in self.source.all_simplices():
            img = self.map_simplex(s)
            if not self.target.has_simplex(img):
                raise ValueError(
                    f"map is not simplicial: image {img} of {s} missing in target"
                )

    def map_simplex(self, s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted({self.vertex_map[v] for v in s}))


def build_rips(metric: MetricMatrix, beta: float, cap: int = 2) -> SimplicialComplex:
    """All subsets of pairwise distance strictly below beta, up to dimension cap."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    n = metric.n
    d = metric.d
    simplices: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(n)]}
    if cap == 0 or n == 0:
        return SimplicialComplex(n, cap, simplices)
    above = [np.flatnonzero(d[i, i + 1 :] < beta) + (i + 1) for i in range(n)]
    edges = [(i, int(j)) for i in range(n) for j in above[i]]
    if edges:
        simplices[1] = edges
    frontier = [(e, above[e[1]][d[e[0], above[e[1]]] < beta]) for e in edges]
    dim = 1
    while dim < cap and frontier:
        nxt = []
        out = []
        for s, ext in frontier:
            for j in ext:
                s2 = s + (int(j),)
                out.append(s2)
                ext2 = ext[(ext > j) & (d[j, ext] < beta)]
                nxt.append((s2, ext2))
        if out:
            simplices[dim + 1] = out
        frontier = nxt
        dim += 1
    return SimplicialComplex(n, cap, simplices)


def maximal_cliques(
    metric: MetricMatrix, beta: float, budget: int = 200_000
) -> CliqueList:
    """Maximal cliques of the strict proximity graph, Bron-Kerbosch with pivot."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = metric.n
    if n == 0:
        return CliqueList(0, ())
    adj = [
        {int(j) for j in np.flatnonzero(metric.d[i] < beta)} - {i}
        for i in range(n)
    ]
    found: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set, x: set) -> None:
        if not p and not x:
            found.append(tuple(sorted(r)))
            if len(found) > budget:
                raise CliqueBudgetError(budget, len(found))
            return
        pivot_pool = p | x
        pivot = max(sorted(pivot_pool), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand([], set(range(n)), set())
    return CliqueList(n, tuple(sorted(found)))


def inclusion_map(
    src: SimplicialComplex,
    dst: SimplicialComplex,
    embedding=None,
    src_scale: float | None = None,
    dst_scale: float | None = None,
) -> SimplicialMap:
    """Inclusion of a subcomplex along a vertex embedding (identity by default).

    When the optional scales are given they must be ordered src <= dst, the
    direction in which strict Rips complexes can only grow.
    """
    if src_scale is not None and dst_scale is not None and src_scale > dst_scale:
        raise ValueError(
            f"scale ordering violated: source scale {src_scale} exceeds target {dst_scale}"
        )
    if embedding is None:
        if src.n > dst.n:
            raise ValueError("source has more vertices than target")
        embedding = tuple(range(src.n))
    embedding = tuple(int(v) for v in embedding)
    if len(set(embedding)) != len(embedding):
        raise ValueError("embedding must be injective")
    return SimplicialMap(src, dst, embedding)
