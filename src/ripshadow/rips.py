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
row per simplex.  Every complex is built by ``SimplicialComplex(n, cap,
rows)``, which checks that each row is strictly increasing and that the
rows are in strictly increasing lexicographic order.  A packed key
(Ripser's combinatorial number system, Bauer 2021) outgrows 64 bits once
C(n, d+1) does, so a dimension is indexed by the ranks of its row
prefixes instead, built in one linear pass over the sorted rows with no
sort and no search: the distinct (k+1)-prefixes follow each other, a
prefix's rank counts the prefixes that begin before it, and the rank of a
whole row is its position.  The first level is an O(n) table from a vertex
to the rank of its 1-prefix, or -1; level k >= 1 holds the codes ``rank of
the k-prefix * n + k-th vertex`` of the distinct (k+1)-prefixes, which come
out increasing in row order.  Every complex holds the singletons of its n
vertices, so n and every rank are at most 2**31 and every code is below
2**62, which fits ``int64`` for every dimension.  Membership, face lookups
and the images of a simplicial map look up whole arrays of rows at once: a
table gather for the first vertex, then one ``np.searchsorted`` per further
vertex.  A map looks up each dimension's images once and keeps them as its
chain map, one target row per source simplex and -1 where the image drops
a dimension.  Cuts of one complex by row masks
(``SimplicialComplex.subcomplex``) look nothing up: a cut gathers its face
arrays through the renumbered masks and keeps its parent and masks, and
the identity map between two cuts of one complex, or between a cut and
the complex, reads each image's row off the target's mask and checks
inclusion as mask containment.

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
from dataclasses import dataclass, field
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


def _find(sorted_: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each value in a nonempty sorted array, and whether it is there.

    Absent values get some index below ``len(sorted_)``.
    """
    at = np.minimum(np.searchsorted(sorted_, values), len(sorted_) - 1)
    return at, sorted_[at] == values


def _prefix_keys(rows: np.ndarray, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lookup levels of a nonempty (m, k) array of sorted distinct rows on
    vertices 0..n-1: the table from each vertex to the rank of its 1-prefix
    (or -1), and for j = 1..k-1 the increasing codes ``rank of the j-prefix
    * n + column j`` of the distinct (j+1)-prefixes."""
    col = rows[:, 0]
    new = np.ones(len(rows), bool)  # where a prefix differs from the row above's
    np.not_equal(col[1:], col[:-1], out=new[1:])
    table = np.full(n, -1, np.int64)
    table[col[new]] = np.arange(np.count_nonzero(new))
    rank = table[col]
    levels = []
    for j in range(1, rows.shape[1]):
        col = rows[:, j]
        new[1:] |= col[1:] != col[:-1]
        levels.append((rank * n + col)[new])
        if j + 1 < rows.shape[1]:
            rank = np.cumsum(new) - 1
    return table, levels


def _missing_face(rows: np.ndarray, i: int, j: int) -> ValueError:
    """The error for the j-th face, in the order of ``combinations(s, d)``,
    of the simplex s in row i of an (m, d+1) array."""
    s = tuple(rows[i].tolist())
    d = len(s) - 1
    return ValueError(f"face {s[: d - j] + s[d - j + 1 :]} of {s} missing")


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
        # the complex this one was cut from and the row masks of the cut
        self._cut: tuple[SimplicialComplex, dict[int, np.ndarray]] | None = None

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
        the row is absent."""
        rows = np.asarray(rows, dtype=np.int64)
        if d < 0:
            return np.full(len(rows), -1, np.int64)
        return self._locate_columns(d, rows.T)

    def _locate_columns(self, d: int, cols) -> np.ndarray:
        """``_locate`` of the rows whose d+1 columns are the arrays ``cols``.

        The vertex rows are 0..n-1; any other dimension follows the levels
        of the module docstring, built on its first lookup.
        """
        n = self.n
        v = cols[0]
        ok = (v >= 0) & (v < n)
        if d == 0:
            return np.where(ok, v, -1)
        if d not in self._keys:
            have = self._rows.get(d)
            self._keys[d] = None if have is None else _prefix_keys(have, n)
        if self._keys[d] is None:
            return np.full(len(v), -1, np.int64)
        table, levels = self._keys[d]
        rank = table[np.where(ok, v, 0)]
        ok &= rank >= 0
        for codes, v in zip(levels, cols[1:]):
            ok &= (v >= 0) & (v < n)
            rank, there = _find(codes, rank * n + v)
            ok &= there
        return np.where(ok, rank, -1)

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
            cols = [rows[:, c] for c in range(d + 1) if c != d - j]
            out[:, j] = self._locate_columns(d - 1, cols)
        missing = np.flatnonzero(out.ravel() < 0)
        if missing.size:
            raise _missing_face(rows, *divmod(int(missing[0]), d + 1))
        out.flags.writeable = False
        self._faces[d] = out
        return out

    def subcomplex(self, keep: dict[int, np.ndarray]) -> "SimplicialComplex":
        """The simplices that ``keep[d]``, a boolean mask over the d-simplices,
        marks in each dimension d of this face-closed complex.

        The kept rows stay sorted and distinct.  One gather per dimension
        checks that every face of a kept simplex is kept, raising for the
        first that is not, and the subcomplex's face arrays are this
        complex's gathered through the renumbered masks.  The subcomplex
        keeps this complex and a read-only copy of the masks as its cut, so
        an inclusion between two cuts of one complex reads its images off
        the masks (see ``SimplicialMap``).
        """
        keep = {d: np.array(keep[d], bool) for d in self._rows}
        for d, r in self._rows.items():
            if keep[d].shape != (len(r),):
                raise ValueError(f"mask of dimension {d} must have {len(r)} entries")
        rows = {d: np.compress(keep[d], r, axis=0) for d, r in self._rows.items()}
        sub = SimplicialComplex(self.n, self.cap, rows)
        for d in sorted(sub._rows)[1:]:
            faces = np.compress(keep[d], self.face_positions(d), axis=0)
            kept = keep[d - 1][faces]
            if not kept.all():
                raise _missing_face(sub._rows[d], *divmod(int(np.argmin(kept)), d + 1))
            out = (np.cumsum(keep[d - 1]) - 1)[faces]
            out.flags.writeable = False
            sub._faces[d] = out
        for mask in keep.values():
            mask.flags.writeable = False
        sub._cut = (self, keep)
        return sub

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
                group = group[np.lexsort(group.T[::-1])]
                repeat = np.zeros(len(group), bool)
                repeat[1:] = (group[1:] == group[:-1]).all(axis=1)
                group = group[~repeat]
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


@dataclass(eq=False)
class SimplicialMap:
    """Vertex assignment between complexes, verified simplicial on construction.

    The source must be face-closed.  ``vertex_map`` is a read-only int64
    array.  ``images[d]`` is the chain map in dimension d: per source
    d-simplex in row order, the target row of its image, or -1 where a
    repeated vertex drops the image a dimension.  Only the images that keep
    d+1 vertices are looked up and checked: a dropped image of s is the
    image of a face of s, checked one dimension lower, so the first error
    names the same simplex as a check of every image would.

    The identity vertex map between two cuts of one complex (or a cut and
    the complex itself, see ``SimplicialComplex.subcomplex``) reads its
    images off the masks: a source row's row in the complex is a position
    of its mask, the check is that the target's mask holds it, and its
    target row is that position of ``cumsum(target mask) - 1``.  Any other
    map looks its images up in the target.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: np.ndarray
    images: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vertex_map = vmap = np.array(self.vertex_map, dtype=np.int64)
        vmap.flags.writeable = False
        if len(vmap) != self.source.n:
            raise ValueError("vertex map must assign every source vertex")
        bad = np.flatnonzero((vmap < 0) | (vmap >= self.target.n))
        if bad.size:
            raise ValueError(f"image vertex {int(vmap[bad[0]])} out of range")
        self.source.validate_face_closed()
        self._increasing = bool((vmap[1:] > vmap[:-1]).all())
        # a strictly increasing map onto 0..target.n-1 is the identity
        identity = self._increasing and len(vmap) == self.target.n
        src_root, src_keep = self.source._cut or (self.source, None)
        dst_root, dst_keep = self.target._cut or (self.target, None)
        by_masks = identity and src_root is dst_root
        self.images = {}
        for d, rows in sorted(self.source._rows.items()):
            if by_masks:
                at = np.arange(len(rows))
                found = at if src_keep is None else np.flatnonzero(src_keep[d])
                if dst_keep is not None:
                    held = dst_keep[d]
                    found = np.where(held[found], (np.cumsum(held) - 1)[found], -1)
            else:
                at, img = self.image_rows(rows)
                found = self.target._locate(d, img)
            missing = np.flatnonzero(found < 0)
            if missing.size:
                s = tuple(rows[int(at[missing[0]])].tolist())
                raise ValueError(
                    f"map is not simplicial: image {self.map_simplex(s)} of {s} missing in target"
                )
            table = np.full(len(rows), -1, np.int64)
            table[at] = found
            self.images[d] = table

    def image_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images of an (m, d+1) array of source simplices that keep d+1
        vertices: the indices of those rows, and their images as a sorted
        (r, d+1) array.  A strictly increasing vertex map keeps every row's
        order and size, so its images need no sort."""
        img = self.vertex_map[rows]
        if self._increasing:
            return np.arange(len(img)), img
        img.sort(axis=1)
        at = np.flatnonzero((img[:, 1:] != img[:, :-1]).all(axis=1))
        return at, img[at]

    def map_simplex(self, s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(set(self.vertex_map[list(s)].tolist())))


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


def simplex_diameters(complex_: SimplicialComplex, metric: MetricMatrix) -> dict[int, np.ndarray]:
    """Diameter of every simplex of a complex on the metric's points, per
    dimension: 0 for a vertex, ``metric.d`` for an edge, and above that the
    largest diameter of the simplex's faces."""
    rows = complex_._rows
    out = {0: np.zeros(complex_.n)}
    if 1 in rows:
        out[1] = metric.d[rows[1][:, 0], rows[1][:, 1]]
    for d in sorted(rows)[2:]:
        low, faces = out[d - 1], complex_.face_positions(d)
        out[d] = low[faces[:, 0]]
        for j in range(1, d + 1):
            np.maximum(out[d], low[faces[:, j]], out=out[d])
    return out


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
        return SimplicialMap(src, dst, np.arange(src.n))
    embedding = np.asarray(embedding, dtype=np.int64)
    if len(np.unique(embedding)) != len(embedding):
        raise ValueError("embedding must be injective")
    return SimplicialMap(src, dst, embedding)
