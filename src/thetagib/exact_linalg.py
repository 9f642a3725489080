"""Exact linear algebra over Q and over the rational function field Q(a_1..a_s).

The central object is a matrix whose entries are homogeneous linear forms in
indeterminates a_1, ..., a_s.  Its *generic rank* (the rank over the function
field) is what index computations consume.  Scaling a row by a nonzero
constant keeps that rank, so a matrix stores every row with its denominators
cleared: all coefficients are ints, and each routine below reads them as
they are.  Three routines bracket the rank:

* ``probabilistic_rank``: evaluate at random points of a large prime field.
  The result is a lower bound for the generic rank and equals it with
  overwhelming probability (Schwartz-Zippel: a nonzero minor of degree d
  vanishes at a uniform point with probability at most d/p).
* ``ground_field_reduce``: shrink the matrix without changing its generic
  rank by replacing rows (then columns) with a Q-basis of their span, the
  rows being read as vectors of coefficient tuples over Q.
* ``certified_rank``: exact generic rank via fraction-free (Bareiss)
  elimination over Z[a_1..a_s], run after ``ground_field_reduce``.

The elimination keeps each polynomial as a dict from a packed exponent to
an int coefficient.  An exponent vector is one int made of s fields of
``width`` bits, variable a_1 in the most significant field, so lex order is
int order and a monomial product is one int addition.  At Bareiss step r
every cell is homogeneous of degree r + 1, so no numerator formed before a
division has degree above 2*min(rows, cols); ``certified_rank`` fixes
``width = (2*min(rows, cols)).bit_length() + 1`` per call, and the top bit
of each field is a guard bit that stays zero.  With ``GUARD`` the mask of
all guard bits, a monomial d divides e exactly when
``((e | GUARD) - d) & GUARD == GUARD``: a field where d exceeds e borrows
its guard bit away, and no borrow crosses into the next field.  Exact
division is heap division after Monagan & Pearce (J. Symb. Comput. 2011).

All values are immutable after construction; every routine here is pure, so
independent rank computations can run in parallel without shared state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heappop, heappush, heapreplace
from math import lcm
from time import monotonic
from typing import Mapping, Sequence

#: The F_p rank runs in pure Python; the name stays because the benchmark
#: worker records it with each run.
USING_COMPILED_KERNEL = False

#: Evaluation field for randomized rank: the prime p = 2**31 - 1, at which a
#: nonzero minor of degree d vanishes at a random point with probability <= d/p.
EVAL_PRIME = 2147483647

DEFAULT_TRIALS = 3

#: Abort certified elimination once any intermediate polynomial carries more
#: terms than this; the caller then reports "undecided" instead of guessing.
DEFAULT_TERM_LIMIT = 10**6


class ResourceLimitExceeded(Exception):
    """Certified rank exceeded its polynomial-size or wall-clock budget."""


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class LinearForm:
    """Homogeneous linear form sum_k c_k * a_k with rational coefficients.

    Indeterminates are indexed from 0; display names are 1-based (``a1``).
    Zero coefficients are never stored; int coefficients stay ints, any
    other becomes a Fraction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(c, int):
                    c = Fraction(c)
                if c:
                    clean[int(k)] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        res = LinearForm.__new__(LinearForm)
        res.coeffs = out
        return res

    def __neg__(self) -> "LinearForm":
        res = LinearForm.__new__(LinearForm)
        res.coeffs = {k: -c for k, c in self.coeffs.items()}
        return res

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def scaled(self, c) -> "LinearForm":
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return LinearForm()
        res = LinearForm.__new__(LinearForm)
        res.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return res

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for k, c in self.coeffs.items():
            total += c * _as_rational(point[k])
        return total

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            name = f"a{k + 1}"
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class LinearFormMatrix:
    """rows x cols matrix of ``LinearForm`` entries in s indeterminates.

    The constructor stores each row multiplied by the lcm of its coefficient
    denominators, so every stored coefficient is an int: ``[[a1/2, a2/3]]``
    is kept as ``[[3*a1, 2*a2]]``.  Row scaling keeps the generic rank, and
    the rank layers then run over Z without rescaling.
    """

    __slots__ = ("rows", "cols", "num_indeterminates", "entries")

    def __init__(self, entries: Sequence[Sequence[LinearForm]], num_indeterminates: int,
                 cols: int | None = None):
        rows = len(entries)
        if rows:
            cols = len(entries[0])
        elif cols is None:
            cols = 0
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            scale = 0  # lcm of the row's denominators; 0 while all are ints
            for e in row:
                for k, c in e.coeffs.items():
                    if not 0 <= k < num_indeterminates:
                        raise ValueError(
                            f"indeterminate index {k} out of range "
                            f"(s={num_indeterminates})"
                        )
                    if type(c) is not int:
                        scale = lcm(scale or 1, c.denominator)
            if scale:
                row = [LinearForm({k: int(c * scale) for k, c in e.coeffs.items()})
                       for e in row]
            grid.append(tuple(row))
        self.rows = rows
        self.cols = cols
        self.num_indeterminates = num_indeterminates
        self.entries = tuple(grid)

    def evaluate(self, point: Sequence) -> list[list[Fraction]]:
        """Substitute a point for (a_1, ..., a_s); exact rational result."""
        if len(point) != self.num_indeterminates:
            raise ValueError(
                f"point has length {len(point)}, expected {self.num_indeterminates}"
            )
        pt = [_as_rational(x) for x in point]
        return [[e.evaluate(pt) for e in row] for row in self.entries]

    def permuted(self, row_order: Sequence[int], col_order: Sequence[int]) -> "LinearFormMatrix":
        grid = [[self.entries[i][j] for j in col_order] for i in row_order]
        return LinearFormMatrix(grid, self.num_indeterminates)

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries
        )
        return f"LinearFormMatrix({self.rows}x{self.cols}, s={self.num_indeterminates}, {body})"


# ---------------------------------------------------------------------------
# Rank over Q of a scalar matrix (used by the reducers and by evaluation).


def scalar_rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank over Q of a dense matrix of rationals."""
    m = [[_as_rational(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, nrows):
            f = m[r][col]
            if f:
                f *= inv
                for c in range(col, ncols):
                    m[r][c] -= f * m[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# Probabilistic rank.


def rank_at_point_mod(M: LinearFormMatrix, point: Sequence[int],
                      p: int = EVAL_PRIME) -> int:
    """Rank over F_p of M evaluated at an integer point (reduced mod p).

    An integer matrix reduced mod p can only lose rank, so this is a lower
    bound for the generic rank of M.
    """
    nrows, ncols = M.rows, M.cols
    m = []
    for row in M.entries:
        vals = []
        for e in row:
            v = 0
            for k, c in e.coeffs.items():
                v += c * point[k]
            vals.append(v % p)
        m.append(vals)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        inv = pow(prow[col], p - 2, p)
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                f = f * inv % p
                mr = m[r]
                for c in range(col, ncols):
                    mr[c] = (mr[c] - f * prow[c]) % p
        rank += 1
    return rank


def probabilistic_rank(M: LinearFormMatrix, trials: int = DEFAULT_TRIALS,
                       seed: int = 0) -> int:
    """Best rank of M over F_p at ``trials`` independent random points.

    Always a lower bound for the generic rank; equal to it unless every
    trial point hits the zero set of a top-size minor.  Deterministic for a
    fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if M.rows == 0 or M.cols == 0:
        return 0
    rng = random.Random(seed)
    s = M.num_indeterminates
    best = 0
    limit = min(M.rows, M.cols)
    for _ in range(trials):
        point = [rng.randrange(EVAL_PRIME) for _ in range(s)]
        best = max(best, rank_at_point_mod(M, point, EVAL_PRIME))
        if best == limit:
            break
    return best


# ---------------------------------------------------------------------------
# Ground-field reduction.


def _coeff_div(a, b):
    """a / b without drifting through floats; stays int when it can."""
    if isinstance(a, int) and isinstance(b, int):
        q, rem = divmod(a, b)
        if rem == 0:
            return q
        return Fraction(a, b)
    return _as_rational(a) / _as_rational(b)


def _independent_indices(vectors: list[dict[int, int]]) -> list[int]:
    """Indices of a maximal Q-independent subset (greedy, order-preserving)."""
    basis: list[tuple[int, dict]] = []  # (pivot position, reduced vector)
    keep = []
    for idx, vec in enumerate(vectors):
        w = dict(vec)
        for pivot, bvec in basis:
            c = w.get(pivot)
            if c:
                f = _coeff_div(c, bvec[pivot])
                for k, v in bvec.items():
                    nv = w.get(k, 0) - f * v
                    if nv:
                        w[k] = nv
                    else:
                        w.pop(k, None)
        if w:
            basis.append((next(iter(w)), w))
            keep.append(idx)
    return keep


def _row_vector(row: Sequence[LinearForm], s: int) -> dict[int, int]:
    vec = {}
    for j, e in enumerate(row):
        for k, c in e.coeffs.items():
            vec[j * s + k] = c
    return vec


def ground_field_reduce(M: LinearFormMatrix) -> LinearFormMatrix:
    """Drop rows and columns until both are Q-bases of their spans.

    Rows are read as coefficient vectors in Q^(cols*s); a maximal linearly
    independent subset spans the same row space over Q, hence over Q(a), so
    the generic rank is unchanged.  The same is then applied to columns.
    """
    s = M.num_indeterminates
    row_keep = _independent_indices([_row_vector(row, s) for row in M.entries])
    kept_rows = [M.entries[i] for i in row_keep]
    if not kept_rows:
        return LinearFormMatrix([], s)
    col_vectors = []
    for j in range(M.cols):
        vec = {}
        for i, row in enumerate(kept_rows):
            for k, c in row[j].coeffs.items():
                vec[i * s + k] = c
        col_vectors.append(vec)
    col_keep = _independent_indices(col_vectors)
    if not col_keep:
        return LinearFormMatrix([], s)
    grid = [[row[j] for j in col_keep] for row in kept_rows]
    return LinearFormMatrix(grid, s)


# ---------------------------------------------------------------------------
# Certified (fraction-free) rank over Z[a].


def _packing(nvars: int, max_degree: int) -> tuple[int, int]:
    """(width, guard) for exponent vectors of total degree <= max_degree.

    Each variable gets a field of ``width`` bits, variable 0 the most
    significant; the top bit of every field is a guard bit, and ``guard`` is
    the mask of all of them.
    """
    width = max_degree.bit_length() + 1
    return width, sum(1 << (k * width + width - 1) for k in range(nvars))


def _cross(a: dict, piv: dict, left: dict, b: dict, cap: int) -> dict[int, int]:
    """a*piv - left*b, aborting once the accumulated terms pass ``cap``."""
    out: dict[int, int] = {}
    get = out.get
    for x, y, sign in ((a, piv, 1), (left, b, -1)):
        for e1, c1 in x.items():
            c1 *= sign
            for e2, c2 in y.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
            if len(out) > cap:
                raise ResourceLimitExceeded(
                    f"intermediate polynomial passed {cap} terms during a product")
    return {e: c for e, c in out.items() if c}


def _div_heap(num: dict, divisor: dict, guard: int) -> dict[int, int]:
    """num / divisor over Z[a]; ``ArithmeticError`` unless it is exact.

    Heap division after Monagan & Pearce: the dividend is read in
    descending order while a heap merges the products q_i * g_j of the
    quotient terms found so far with the divisor's non-leading terms, one
    pending product per quotient term, so the next monomial to cancel is
    always at the top instead of being searched for in a remainder.
    """
    g = sorted(divisor.items(), reverse=True)
    lead_e, lead_c = g[0]
    rest = g[1:]
    terms = sorted(num.items(), reverse=True)
    nterms = len(terms)
    quot: list[tuple[int, int]] = []
    heap: list[tuple[int, int, int]] = []  # (-(q_i + g_j) exponent, i, j)
    pos = 0
    while pos < nterms or heap:
        if heap and (pos == nterms or -heap[0][0] >= terms[pos][0]):
            key = heap[0][0]
            e = -key
            c = 0
            if pos < nterms and terms[pos][0] == e:
                c = terms[pos][1]
                pos += 1
            while heap and heap[0][0] == key:
                _, i, j = heap[0]
                qe, qc = quot[i]
                c -= qc * rest[j][1]
                j += 1
                if j < len(rest):
                    heapreplace(heap, (-(qe + rest[j][0]), i, j))
                else:
                    heappop(heap)
            if not c:
                continue
        else:
            e, c = terms[pos]
            pos += 1
        q, rem = divmod(c, lead_c)
        if rem or ((e | guard) - lead_e) & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        qe = e - lead_e
        if rest:
            heappush(heap, (-(qe + rest[0][0]), len(quot), 0))
        quot.append((qe, q))
    return dict(quot)


def _bareiss_rank(grid: list[list[dict]], guard: int, max_terms: int,
                 deadline: float | None) -> int:
    """Fraction-free elimination with sparsest-pivot selection.

    ``deadline`` is a ``time.monotonic`` value checked before each row
    operation, or None for no limit.
    """
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    prev: dict | None = None  # divisor for the current step; None = 1
    r = 0
    while r < nrows and r < ncols:
        best = None
        for i in range(r, nrows):
            row = grid[i]
            for j in range(r, ncols):
                e = row[j]
                if e and (best is None or len(e) < best[0]):
                    best = (len(e), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != r:
            grid[r], grid[pi] = grid[pi], grid[r]
        if pj != r:
            for row in grid:
                row[r], row[pj] = row[pj], row[r]
        pivot_row = grid[r]
        piv = pivot_row[r]
        for i in range(r + 1, nrows):
            if deadline is not None and monotonic() >= deadline:
                raise ResourceLimitExceeded("certification passed its time limit")
            row = grid[i]
            left = row[r]
            for j in range(r + 1, ncols):
                cell = _cross(row[j], piv, left, pivot_row[j], max_terms)
                if prev is not None:
                    cell = _div_heap(cell, prev, guard)
                if len(cell) > max_terms:
                    raise ResourceLimitExceeded(
                        f"intermediate polynomial has {len(cell)} terms "
                        f"(limit {max_terms})"
                    )
                row[j] = cell
            row[r] = {}
        prev = piv
        r += 1
    return r


def certified_rank(M: LinearFormMatrix, max_terms: int = DEFAULT_TERM_LIMIT,
                   timeout: float | None = None) -> int:
    """Exact generic rank of M over Q(a_1..a_s).

    Applies ``ground_field_reduce`` first, then Bareiss elimination over the
    polynomial ring Z[a], the matrix rows having integer coefficients.  Raises
    ``ResourceLimitExceeded`` when an intermediate polynomial outgrows
    ``max_terms``, or when ``timeout`` seconds (None: no limit) have passed
    at the start of a row operation; the caller decides what "too expensive"
    means for its verdict.
    """
    deadline = None if timeout is None else monotonic() + timeout
    reduced = ground_field_reduce(M)
    if reduced.rows == 0 or reduced.cols == 0:
        return 0
    s = reduced.num_indeterminates
    # at step r every cell is homogeneous of degree r + 1, so no numerator
    # formed before a division has degree above 2 * min(rows, cols)
    width, guard = _packing(s, 2 * min(reduced.rows, reduced.cols))
    grid = [[{1 << ((s - 1 - k) * width): c for k, c in e.coeffs.items()} for e in row]
            for row in reduced.entries]
    return _bareiss_rank(grid, guard, max_terms, deadline)
