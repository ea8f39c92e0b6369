"""Vietoris-Rips complexes with a strict diameter threshold.

A subset is a simplex exactly when every pairwise distance is strictly
below the scale.  Strictness matters: a pair at distance exactly beta is
never joined, so thresholds taken from existing pairwise distances leave
those pairs out.

Enumeration is one flag expansion, ``_flag_rows``, shared with the nerve
of ``shadow``.  It works level by level on the strict upper-triangular
adjacency matrix ``A`` (Zomorodian's incremental expansion, 2010): a row
(s_0, ..., s_d) of one level is extended by each later neighbour j of s_d,
read from a CSR table, for which ``A[s_k, j]`` holds for every k < d.  The
parents are read in order and each one's later neighbours in increasing
order, so every level comes out lexicographic.  Parents are taken in
blocks of bounded candidate count, which bounds the temporaries, and a
caller may filter each block before the next level grows from it.

Each dimension of a complex is held as an (m, d+1) ``int64`` array, one
row per simplex, and indexed by one sorted ``int64`` key array.  Every
complex is built by ``SimplicialComplex(n, cap, rows)``, which checks that
each row is strictly increasing and that the rows are in strictly
increasing lexicographic order.  A packed key (Ripser's combinatorial
number system, Bauer 2021) outgrows 64 bits once C(n, d+1) does, so the
keys are ranks, built column by column: the code of a row's (k+1)-prefix is
``rank of its k-prefix * len(values) + rank of its k-th vertex among the
distinct values of column k``, and the rank of the prefix is the position
of that code among the distinct codes; the rank of a whole row is its
position in the array.  Both factors are below the number m of simplices,
so every code is below m**2, which fits ``int64`` for every n, dimension
and m that the constructor accepts.  Membership, face lookups and the
images of simplicial maps follow the same codes through
``np.searchsorted``, one column at a time, for whole arrays of simplices
at once.

A complex file is ``json.dumps(to_json_dict(), sort_keys=True, indent=2)``
and a newline: keys ``cap``, ``n`` and ``simplices``, the last a flat list
of vertex lists, dimension by dimension.  ``rows_text`` renders such lists
from the row arrays, and ``SimplicialComplex.load`` parses a file in this
layout on arrays, keeping the parse only when it renders back to the same
bytes; any other JSON with these keys goes through ``json``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .models import MetricMatrix

# vertex ids and every key code are int64; codes stay below m**2 for m
# simplices in a dimension, and 2**31 squared is 2**62
_MAX_VERTICES = 2**63 - 1
_MAX_SIMPLICES = 2**31
# candidate rows per block of parents in the flag expansion, and rows per
# block of a rendered complex file
_FLAG_BLOCK = 1 << 15
# a complex file as the writer lays it out: json.dumps(to_json_dict(),
# sort_keys=True, indent=2) and a newline; n and cap of at most 18 digits
_FILE_HEAD = re.compile(
    rb'\{\n  "cap": (0|[1-9][0-9]{0,17}),\n  "n": (0|[1-9][0-9]{0,17}),\n  "simplices": '
)
_FILE_TAIL = b"\n}\n"
# ``bytes.translate`` table: every byte but a digit becomes a space
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))


class CliqueBudgetError(RuntimeError):
    """Raised when clique enumeration exceeds its output budget."""

    def __init__(self, budget: int, count: int):
        super().__init__(
            f"clique enumeration exceeded budget {budget}; at least {count} maximal cliques"
        )
        self.budget = budget
        self.count = count


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values."""
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _find(sorted_: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each value in a nonempty sorted array, and whether it is there.

    Absent values get some index below ``len(sorted_)``.
    """
    at = np.minimum(np.searchsorted(sorted_, values), len(sorted_) - 1)
    return at, sorted_[at] == values


def _prefix_ranks(rows: np.ndarray) -> tuple[list, np.ndarray]:
    """Key levels of an (m, k) int64 array, and each row's lexicographic rank.

    Level j holds the distinct values of column j and the sorted distinct
    codes ``rank of the j-prefix * len(values) + rank of the value`` of the
    (j+1)-prefixes.  Ranks count distinct rows, so equal rows share one.
    """
    rank = np.zeros(len(rows), np.int64)
    levels = []
    for col in rows.T:
        values = _distinct(col)
        code = rank * len(values) + np.searchsorted(values, col)
        codes = _distinct(code)
        rank = np.searchsorted(codes, code)
        levels.append((values, codes))
    return levels, rank


def _ahead(rows: np.ndarray) -> np.ndarray:
    """Whether each row of an (m, k) array, k >= 1, precedes the next one
    in strict lexicographic order, decided from the last column to the first."""
    ahead = rows[:-1, -1] < rows[1:, -1]
    for c in range(rows.shape[1] - 2, -1, -1):
        a, b = rows[:-1, c], rows[1:, c]
        ahead = (a < b) | ((a == b) & ahead)
    return ahead


def _check_rows(rows: np.ndarray, d: int, n: int) -> None:
    """Raise for the first row that is not strictly increasing or has a
    vertex outside 0..n-1, then for the first two rows that are not in
    strictly increasing lexicographic order."""
    if len(rows) > _MAX_SIMPLICES:
        raise ValueError(f"more than {_MAX_SIMPLICES} simplices in dimension {d}")
    if not len(rows):
        return
    if d < 0:
        raise ValueError(f"malformed simplex () in dimension {d}")
    malformed = np.zeros(len(rows), bool)
    for c in range(d):
        malformed |= rows[:, c + 1] <= rows[:, c]
    bad = np.flatnonzero(malformed | (rows[:, 0] < 0) | (rows[:, -1] >= n))
    if bad.size:
        s = tuple(rows[int(bad[0])].tolist())
        if malformed[bad[0]]:
            raise ValueError(f"malformed simplex {s} in dimension {d}")
        raise ValueError(f"vertex out of range in {s}")
    wrong = np.flatnonzero(~_ahead(rows))
    if wrong.size:
        i = int(wrong[0])
        s, t = (tuple(r) for r in rows[i : i + 2].tolist())
        raise ValueError(f"unsorted or repeated simplices {s}, {t} in dimension {d}")


def _integer_rows(rows, d: int) -> np.ndarray:
    """The rows of dimension d as an (m, d+1) int64 array; raise unless they
    are integers (an empty group has no vertices to check)."""
    arr = np.asarray(rows)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"non-integer vertices of type {arr.dtype} in dimension {d}")
    return arr.astype(np.int64, copy=False).reshape(len(arr), d + 1)


def _check_singletons(rows: dict[int, np.ndarray], n: int) -> None:
    """Raise naming the first vertex of 0..n-1 whose singleton is missing;
    the vertex rows must be in range."""
    present = np.zeros(n, bool)
    present[rows.get(0, np.empty((0, 1), np.int64))[:, 0]] = True
    if not present.all():
        raise ValueError(f"vertex singleton [{int(np.argmin(present))}] missing")


def _check_header(n: int, cap: int, dims) -> None:
    """Raise for a negative n or cap, an n beyond int64, or a dimension above cap."""
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    if n > _MAX_VERTICES:
        raise ValueError(f"n must be at most {_MAX_VERTICES}")
    for d in dims:
        if d > cap:
            raise ValueError(f"simplex of dimension {d} above cap {cap}")


def _first_use(widths: np.ndarray) -> list[int]:
    """Distinct values of an int array in order of first appearance."""
    kinds, first = np.unique(widths, return_index=True)
    return kinds[np.argsort(first)].tolist()


class IntRows(list):
    """A read-only list of integer rows of mixed widths, held as arrays.

    ``widths[i]`` is the length of row i, and ``groups`` maps each width,
    in order of first use, to its rows as an (m, width) ``int64`` array in
    list order.  Read as a list (length, iteration, indexing, equality) it
    is the list of its rows, formed as Python lists on the first such
    read, so ``json.dumps`` renders it as that list; ``rows_text`` renders
    the same bytes from the arrays without forming a row.
    """

    def __init__(self, widths: np.ndarray, groups: dict[int, np.ndarray]):
        super().__init__()
        self.widths = widths
        self.groups = groups

    @classmethod
    def from_lists(cls, lists) -> "IntRows":
        """Rows of a list of integer lists.  Raises naming the first width,
        in order of first use, that holds a value outside int64."""
        widths = np.fromiter(map(len, lists), np.int64, len(lists))
        groups = {}
        for w in _first_use(widths):
            picked = [lists[i] for i in np.flatnonzero(widths == w).tolist()]
            try:
                group = np.fromiter(chain.from_iterable(picked), np.int64, w * len(picked))
            except OverflowError as exc:
                raise ValueError(f"vertex out of range in dimension {w - 1}: {exc}") from exc
            groups[w] = group.reshape(len(picked), w)
        return cls(widths, groups)

    @classmethod
    def from_flat(cls, values: np.ndarray, widths: np.ndarray) -> "IntRows":
        """Rows that concatenate to ``values``, one per entry of ``widths``;
        the rows of a width that follow each other are a view of ``values``."""
        ends = np.cumsum(widths)
        starts = ends - widths
        groups = {}
        for w in _first_use(widths):
            at = np.flatnonzero(widths == w)
            if at[-1] - at[0] == len(at) - 1:
                groups[w] = values[starts[at[0]] : ends[at[-1]]].reshape(-1, w)
            else:
                groups[w] = values[starts[at, None] + np.arange(w)]
        return cls(widths, groups)

    @cached_property
    def _lists(self) -> list[list[int]]:
        out = [None] * len(self.widths)
        for w, rows in self.groups.items():
            for i, row in zip(np.flatnonzero(self.widths == w).tolist(), rows.tolist()):
                out[i] = row
        return out

    def __len__(self) -> int:
        return len(self.widths)

    def __iter__(self):
        return iter(self._lists)

    def __getitem__(self, i):
        return self._lists[i]

    def __eq__(self, other) -> bool:
        return self._lists == (other._lists if isinstance(other, IntRows) else other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __repr__(self) -> str:
        return repr(self._lists)


def _group_text(rows: np.ndarray, inner: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The JSON text of each row of an (m, w) int64 array, one list item
    deeper than ``inner`` and preceded by ``,`` and ``inner``, as the bytes
    of all rows in order, and the (m, c) mask they were compressed with.

    Each row is laid out in c columns: the separator; per value the piece
    ``[`` or ``,``, the cell's newline and indent, a sign column when the
    group holds a negative value, and as many digit columns as its longest
    magnitude; then the row's closing piece.  The mask drops the unused
    sign and leading-digit columns.
    """
    m, w = rows.shape
    cell = inner + b"  "
    neg = rows < 0
    mag = rows.astype(np.uint64)
    mag[neg] = -mag[neg]  # modulo 2**64, so -2**63 has magnitude 2**63
    digits = len(str(int(mag.max()))) if mag.size else 1
    if digits <= 9:
        mag = mag.astype(np.uint32)  # twice as fast to divide
    sign = int(neg.any())
    slot = len(b"," + cell) + sign + digits
    lead, close = b"," + inner, inner + b"]" if w else b"[]"
    out = np.empty((m, len(lead) + w * slot + len(close)), np.uint8)
    keep = np.ones(out.shape, bool)
    # (m, w, slot) views of the value columns
    span = slice(len(lead), len(lead) + w * slot)
    values, shown = out[:, span].reshape(m, w, slot), keep[:, span].reshape(m, w, slot)
    out[:, : len(lead)] = np.frombuffer(lead, np.uint8)
    values[:] = np.frombuffer(b"," + cell + b"-" * (sign + digits), np.uint8)
    values[:, :1, 0] = ord("[")
    out[:, span.stop :] = np.frombuffer(close, np.uint8)
    if sign:
        shown[:, :, slot - digits - 1] = neg
    for i in range(digits):
        if i:
            shown[:, :, slot - 1 - i] = mag > 0
        values[:, :, slot - 1 - i] = mag % 10 + ord("0")
        mag //= 10
    return out[keep], keep


def _text_blocks(rows: IntRows, level: int):
    """The bytes of ``rows_text(rows, level)`` as consecutive uint8 arrays.

    Rows of one width that follow each other are rendered in blocks of
    ``_FLAG_BLOCK``, which bounds the temporaries; rows whose widths
    interleave are rendered per width and moved to their places.
    """
    pad = b"\n" + b"  " * level
    inner = pad + b"  "
    if not len(rows):
        yield np.frombuffer(b"[]", np.uint8)
        return
    widths = rows.widths
    if np.count_nonzero(widths[1:] != widths[:-1]) == len(rows.groups) - 1:
        # one run per width: the groups follow each other
        blocks = (
            _group_text(group[i : i + _FLAG_BLOCK], inner)[0]
            for group in rows.groups.values()
            for i in range(0, len(group), _FLAG_BLOCK)
        )
    else:
        texts = {w: _group_text(group, inner) for w, group in rows.groups.items()}
        at = {w: np.flatnonzero(widths == w) for w in texts}
        size = np.empty(len(widths), np.int64)
        for w, (_, keep) in texts.items():
            size[at[w]] = keep.sum(axis=1)
        ends = np.cumsum(size)
        body = np.empty(int(ends[-1]), np.uint8)
        for w, (chars, keep) in texts.items():
            n = size[at[w]]
            shift = ends[at[w]] - n - (np.cumsum(n) - n)
            body[np.repeat(shift, n) + np.arange(len(chars))] = chars
        blocks = iter([body])
    first = next(blocks)
    first[0] = ord("[")  # the first row's separator opens the list
    yield first
    yield from blocks
    yield np.frombuffer(pad + b"]", np.uint8)


def rows_text(rows: IntRows, level: int) -> bytes:
    """``json.dumps(rows, indent=2)`` as ASCII bytes, its lines after the
    first indented by ``level`` more steps."""
    return b"".join(_text_blocks(rows, level))


def _read_file(data: bytes) -> tuple[int, int, IntRows] | None:
    """``(n, cap, rows)`` of a complex file in the writer's layout, or
    None for any other text, including any value of more than 18 digits.

    Every non-digit is read as a space and the digits parsed as one int64
    array, whose first two values are ``cap`` and ``n``; row i holds the
    digit runs that end between the (i-1)-th and the i-th ``]``.  The parse
    stands only when the rows render back to the same bytes, which also
    rules out signs, leading zeros and every other spelling the rendering
    does not produce.
    """
    head = _FILE_HEAD.match(data)
    if head is None or not data.endswith(_FILE_TAIL):
        return None
    spaced = data.translate(_DIGITS_ONLY)
    digit = np.frombuffer(spaced, np.uint8) != ord(" ")
    # the text starts and ends with a non-digit, so the digit runs are
    # [starts[i], ends[i]); the first two are cap and n
    starts, ends = (np.flatnonzero(digit[1:] != digit[:-1]) + 1).reshape(-1, 2)[2:].T
    del digit
    if len(starts) and int((ends - starts).max()) > 18:
        return None
    values = np.fromstring(spaced, np.int64, sep=" ")[2:]
    del spaced
    raw = np.frombuffer(data, np.uint8)
    closes = np.flatnonzero(raw == ord("]"))
    widths = np.diff(np.searchsorted(ends, closes[:-1], "right"), prepend=0)
    if len(values) != len(starts) or not widths.all():
        return None
    rows = IntRows.from_flat(values, widths)
    at = head.end()
    for block in _text_blocks(rows, 1):
        if not np.array_equal(raw[at : at + len(block)], block):
            return None
        at += len(block)
    if at != len(data) - len(_FILE_TAIL):
        return None
    return int(head[2]), int(head[1]), rows


class SimplicialComplex:
    """Finite simplicial complex on vertices 0..n-1, capped at dimension ``cap``;
    every vertex is a 0-simplex of it.

    ``rows`` maps each dimension d to its simplices as an (m, d+1) integer
    array (or a list of equal-length tuples), rows strictly increasing and
    in strictly increasing lexicographic order; empty dimensions are
    dropped.  Each dimension is held as an int64 array, indexed by the
    sorted keys of the module docstring.
    """

    def __init__(self, n: int, cap: int, rows: dict[int, np.ndarray]):
        _check_header(n, cap, rows)
        rows = {d: _integer_rows(r, d) for d, r in rows.items()}
        for d, r in rows.items():
            _check_rows(r, d, n)
        self._rows = {d: r for d, r in rows.items() if len(r)}
        _check_singletons(self._rows, n)
        self.n = n
        self.cap = cap
        self._keys: dict[int, list | None] = {}
        self._faces: dict[int, np.ndarray] = {}

    @property
    def simplices(self) -> dict[int, list[tuple[int, ...]]]:
        """Each dimension's simplices as a sorted list of vertex tuples,
        formed on every read."""
        return {d: list(zip(*r.T.tolist())) for d, r in self._rows.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            (self.n, self.cap) == (other.n, other.cap)
            and self._rows.keys() == other._rows.keys()
            and all(np.array_equal(r, other._rows[d]) for d, r in self._rows.items())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, cap={self.cap}, counts={self.counts()})"

    def _locate(self, d: int, rows) -> np.ndarray:
        """Row in dimension d of each row of an (r, d+1) array, or -1 where
        the row is absent.  The rows are sorted and distinct, so the rank of
        a row among them is its position; the vertex rows are 0..n-1."""
        if d == 0:
            v = np.asarray(rows, dtype=np.int64)[:, 0]
            return np.where((v >= 0) & (v < self.n), v, -1)
        if d not in self._keys:
            have = self._rows.get(d)
            self._keys[d] = None if have is None else _prefix_ranks(have)[0]
        rows = np.asarray(rows, dtype=np.int64)
        pos = np.full(len(rows), -1, np.int64)
        levels = self._keys[d]
        if levels is None:
            return pos
        rank = np.zeros(len(rows), np.int64)
        hit = np.ones(len(rows), bool)
        for (values, codes), col in zip(levels, rows.T):
            at, there = _find(values, col)
            rank, known = _find(codes, rank * len(values) + at)
            hit &= there & known
        pos[hit] = rank[hit]
        return pos

    def has_simplex(self, s: tuple[int, ...]) -> bool:
        # a non-integer or beyond-int64 vertex names no simplex
        row = np.asarray([s])
        return row.dtype.kind in "iu" and bool(self._locate(len(s) - 1, row)[0] >= 0)

    def counts(self) -> list[int]:
        return [len(self._rows.get(d, ())) for d in range(self.dim + 1)]

    @property
    def dim(self) -> int:
        return max(self._rows, default=-1)

    def face_positions(self, d: int) -> np.ndarray:
        """Entry (i, j): row in dimension d-1 of the j-th face of the i-th
        d-simplex, faces in the order of ``combinations(s, d)``.

        Raises for a missing face, naming the first in that order.  The
        array is computed once per dimension and is read-only.
        """
        if d in self._faces:
            return self._faces[d]
        rows = self._rows.get(d, np.empty((0, d + 1), np.int64))
        out = np.empty((len(rows), d + 1), np.int64)
        for j in range(d + 1):
            out[:, j] = self._locate(d - 1, np.delete(rows, d - j, axis=1))
        missing = np.flatnonzero(out.ravel() < 0)
        if missing.size:
            i, j = divmod(int(missing[0]), d + 1)
            s = tuple(rows[i].tolist())
            raise ValueError(f"face {s[: d - j] + s[d - j + 1 :]} of {s} missing")
        out.flags.writeable = False
        self._faces[d] = out
        return out

    def validate_face_closed(self) -> None:
        for d in sorted(self._rows):
            if d > 0:
                self.face_positions(d)

    def to_json_dict(self) -> dict:
        """``n``, ``cap`` and the simplices, dimension by dimension, as one
        ``IntRows`` over the row arrays."""
        dims = sorted(self._rows)
        widths = np.repeat(np.array(dims, np.int64) + 1, [len(self._rows[d]) for d in dims])
        rows = IntRows(widths, {d + 1: self._rows[d] for d in dims})
        return {"n": self.n, "cap": self.cap, "simplices": rows}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimplicialComplex":
        """Complex from a flat simplex list, grouped by size, sorted and deduplicated.

        ``n``, ``cap`` and every vertex must be JSON integers, and the list
        must hold the singleton of every vertex 0..n-1.
        """
        n, cap, flat = obj["n"], obj["cap"], obj["simplices"]
        for name, value in (("n", n), ("cap", cap)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
        if not isinstance(flat, list) or set(map(type, flat)) - {list}:
            raise ValueError("simplices must be a list of vertex lists")
        if set(map(type, chain.from_iterable(flat))) - {int}:
            s = next(s for s in flat if any(type(v) is not int for v in s))
            v = next(v for v in s if type(v) is not int)
            raise ValueError(f"non-integer vertex {json.dumps(v)} in simplex {json.dumps(s)}")
        if not all(flat):
            raise ValueError("malformed simplex () in dimension -1")
        return cls._from_groups(n, cap, IntRows.from_lists(flat).groups)

    @classmethod
    def _from_groups(cls, n: int, cap: int, groups: dict[int, np.ndarray]) -> "SimplicialComplex":
        """Complex from int64 simplex rows grouped by size, sorted and
        deduplicated, checked face-closed."""
        rows = {}
        for size, group in groups.items():
            if not _ahead(group).all():
                rank = _prefix_ranks(group)[1]
                rows[size - 1] = np.empty((int(rank.max()) + 1, size), np.int64)
                rows[size - 1][rank] = group
            else:
                rows[size - 1] = group
        cx = cls(n, cap, rows)
        cx.validate_face_closed()
        return cx

    @classmethod
    def load(cls, path: str) -> "SimplicialComplex":
        """Complex of a JSON file with the keys of ``to_json_dict``.  A file
        in the writer's layout is parsed on arrays; any other goes through
        ``json`` and ``from_json_dict``."""
        with open(path, "rb") as fh:
            read = _read_file(fh.read())
        if read is None:
            with open(path) as fh:
                return cls.from_json_dict(json.load(fh))
        n, cap, rows = read
        return cls._from_groups(n, cap, rows.groups)


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
        for d, rows in sorted(self.source._rows.items()):
            found = np.zeros(len(rows), bool)
            for k, (at, img) in self.image_rows(rows).items():
                found[at] = self.target._locate(k - 1, img) >= 0
            missing = np.flatnonzero(~found)
            if missing.size:
                s = tuple(rows[int(missing[0])].tolist())
                raise ValueError(
                    f"map is not simplicial: image {self.map_simplex(s)} of {s} missing in target"
                )

    def image_rows(self, rows: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Images of an (m, d+1) array of source simplices, grouped by size.

        Maps k to the indices of the rows whose image has k vertices and
        those images as a sorted (r, k) array; a repeated vertex drops the
        image a dimension.
        """
        img = np.sort(np.array(self.vertex_map, dtype=np.int64)[rows], axis=1)
        new = np.ones(img.shape, bool)
        new[:, 1:] = img[:, 1:] != img[:, :-1]
        size = new.sum(axis=1)
        out = {}
        for k in range(1, img.shape[1] + 1):
            at = np.flatnonzero(size == k)
            if at.size:
                out[k] = (at, img[at][new[at]].reshape(-1, k))
        return out

    def map_simplex(self, s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted({self.vertex_map[v] for v in s}))


def _flag_rows(adj: np.ndarray, cap: int, keep=None) -> dict[int, np.ndarray]:
    """Rows of dimensions 1..cap of the flag complex of a strict
    upper-triangular boolean adjacency, each level in lexicographic order.

    ``keep(rows)``, when given, returns a boolean mask over an array of
    candidate rows of one level; only the rows it keeps are stored and
    extended, and the edges it keeps replace ``adj``.  Empty levels are
    left out.
    """
    n = len(adj)

    def kept(cand: np.ndarray) -> np.ndarray:
        if keep is None:
            return cand
        mask = np.zeros(len(cand), bool)
        for i in range(0, len(cand), _FLAG_BLOCK):
            mask[i : i + _FLAG_BLOCK] = keep(cand[i : i + _FLAG_BLOCK])
        return cand[mask]

    rows = kept(np.argwhere(adj)) if cap >= 1 else np.empty((0, 2), np.int64)
    if keep is not None:
        adj = np.zeros((n, n), bool)
        adj[rows[:, 0], rows[:, 1]] = True
    levels = {}
    # CSR of later neighbours: those of i are nbrs[indptr[i]:indptr[i + 1]]
    indptr = np.searchsorted(rows[:, 0], np.arange(n + 1))
    nbrs = rows[:, 1]
    for d in range(1, cap + 1):
        if not len(rows):
            break
        levels[d] = rows
        if d == cap:
            break
        lo = indptr[rows[:, -1]]
        count = indptr[rows[:, -1] + 1] - lo
        ends = np.cumsum(count)
        # candidate g of the level is nbrs[g + shift[parent of g]]
        shift = lo - (ends - count)
        blocks = []
        first = 0
        while first < len(rows):
            # parents first..last-1: at most _FLAG_BLOCK candidates, or one parent
            base = ends[first] - count[first]
            last = max(int(np.searchsorted(ends, base + _FLAG_BLOCK, "right")), first + 1)
            par = np.repeat(np.arange(first, last), count[first:last])
            at = np.arange(base, ends[last - 1]) + shift[par]
            j = nbrs[at]
            ok = np.ones(len(j), bool)
            for k in range(d):
                ok &= adj[rows[par, k], j]
            blocks.append(kept(np.column_stack((rows[par[ok]], j[ok]))))
            first = last
        rows = np.concatenate(blocks)
    return levels


def build_rips(metric: MetricMatrix, beta: float, cap: int = 2) -> SimplicialComplex:
    """All subsets of pairwise distance strictly below beta, up to dimension cap.

    One flag expansion of the strict adjacency; see the module docstring.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    n = metric.n
    rows = {0: np.arange(n, dtype=np.int64)[:, None]}
    rows.update(_flag_rows(np.triu(metric.d < beta, 1), cap))
    return SimplicialComplex(n, cap, rows)


def maximal_cliques(
    metric: MetricMatrix, beta: float, budget: int = 200_000
) -> CliqueList:
    """Maximal cliques of the strict proximity graph, sorted.

    Bron-Kerbosch on Python-int bitsets, one per vertex, read from the
    ``np.packbits`` rows of the adjacency, each call pivoting on a vertex
    of P | X with the most neighbours in P (Tomita, Tanaka & Takahashi,
    2006).  Raises ``CliqueBudgetError`` as soon as more than ``budget``
    cliques are found.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = metric.n
    adj = metric.d < beta
    np.fill_diagonal(adj, False)
    packed = np.packbits(adj, axis=1, bitorder="little")
    nbr = [int.from_bytes(row.tobytes(), "little") for row in packed]
    found: list[tuple[int, ...]] = []

    def report(r: list[int]) -> None:
        found.append(tuple(sorted(r)))
        if len(found) > budget:
            raise CliqueBudgetError(budget, len(found))

    def expand(r: list[int], p: int, x: int) -> None:
        """Report every maximal clique that holds r, adds vertices of the
        nonempty P and avoids X."""
        # no vertex of P | X has more than |P| neighbours in P
        size, most, pivot, rest = p.bit_count(), -1, 0, p | x
        while rest and most < size:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            here = (p & nbr[u]).bit_count()
            if here > most:
                most, pivot = here, u
        cand = p & ~nbr[pivot]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            pv, xv = p & nbr[v], x & nbr[v]
            if pv:
                expand(r + [v], pv, xv)
            elif not xv:
                report(r + [v])
            p ^= low
            x |= low

    if n:
        expand([], (1 << n) - 1, 0)
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
