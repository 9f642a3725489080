"""Exact linear algebra over Q and over the rational function field Q(a_1..a_s).

The central object is a matrix of homogeneous linear forms in a_1, ..., a_s,
stored as sparse integer rows: row i maps the column of each nonzero cell
to its form, a dict from an indeterminate's 0-based index to its nonzero
int coefficient.  Every routine below works on the stored cells only, but
an F_p point has s coordinates.  The *generic rank* (the rank over the
function field) is what index computations consume.  Row scaling keeps it,
so a builder with rational data clears each row's denominators.  Three
routines bracket it:

* ``probabilistic_rank``: evaluate at a random point of a large prime field.
  The result is a lower bound for the generic rank and equals it with
  overwhelming probability (Schwartz-Zippel: a nonzero minor of degree d
  vanishes at a uniform point with probability at most d/p).  p is the
  largest prime below 2**30, so every residue is one 30-bit CPython digit.
  The points of one seed are prefixes of one stream: coordinate t is the
  t-th 30-bit draw of ``random.Random(seed)`` that is below p, so one
  stream per seed serves every matrix.
* ``ground_field_reduce``: shrink the matrix without changing its generic
  rank by replacing rows (then columns) with a Q-basis of their span, the
  rows being read as vectors of coefficient tuples over Q and eliminated
  fraction-free in integers.
* ``certified_rank``: exact generic rank via fraction-free (Bareiss)
  elimination over Z[a_1..a_s] on the sparse rows of the
  ``ground_field_reduce`` matrix, skipped when the reduced shape equals a
  proven lower bound.

The elimination keeps each polynomial as a dict from a packed exponent to
an int coefficient.  An exponent vector is one int with a field of ``width``
bits for each indeterminate that occurs in the matrix, the least-numbered in
the most significant field, so lex order is int order and a monomial product
is one int addition.  At Bareiss step r every cell is homogeneous of degree
r + 1, so no numerator formed before a division has degree above
2*min(rows, cols); ``certified_rank`` fixes
``width = (2*min(rows, cols)).bit_length() + 1`` per call, and the top bit
of each field is a guard bit that stays zero.  With ``GUARD`` the mask of
all guard bits, a monomial d divides e exactly when
``((e | GUARD) - d) & GUARD == GUARD``: a field where d exceeds e borrows
its guard bit away, and no borrow crosses into the next field.  Exact
division by a one-term divisor is one pass over the terms; by a longer one
it is heap division after Monagan & Pearce (J. Symb. Comput. 2011).

Each Bareiss step pivots on a cell with the fewest terms, ties broken by
the least Markowitz count (r_i - 1)(c_j - 1) of nonzero cells in its row
and column of the remaining block (Markowitz, Management Sci. 1957), then
by row-major order of the positions that the pivot swaps so far give.  The
update a*piv - left*b of a zero cell a is zero when left or b is, so such
a cell is not stored and is skipped: it costs no product, no division and
no clock read.  A row whose pivot-column cell is zero only gains the
factor piv/prev, which for one-term pivots keeps every zero pattern and
term count, all that the pivot rule reads; such a row is left alone until
it is next read, and then rescaled once by the product of the factors it
missed (see ``_bareiss_rank``).  Least-fill pivots almost always have one
term, so most of those products are never made.  Any pivot order gives
the exact rank.

Matrices share their rows and forms, and no routine modifies a row, a form
or a matrix; every routine here is pure, so independent rank computations can
run in parallel.  The one state they share is the memo of point streams,
which is extended under a lock, so each stream stays the same sequence.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from itertools import chain
from math import gcd
from time import monotonic
from typing import Callable, Mapping, Sequence

#: The F_p rank runs in pure Python; the name stays because the benchmark
#: worker records it with each run.
USING_COMPILED_KERNEL = False

#: Evaluation field for randomized rank: p = 2**30 - 35, the largest prime
#: below 2**30, at which a nonzero minor of degree d vanishes at a random point
#: with probability <= d/p.  Every residue is one 30-bit CPython digit, so a
#: product of two has at most two digits and ``% p`` divides by one digit.
EVAL_PRIME = 1073741789

#: Abort certified elimination once any intermediate polynomial carries more
#: terms than this; the caller then reports "undecided" instead of guessing.
DEFAULT_TERM_LIMIT = 10**6


class ResourceLimitExceeded(Exception):
    """Certified rank exceeded its polynomial-size or wall-clock budget."""


class LinearFormMatrix:
    """rows x cols matrix of homogeneous linear forms in s indeterminates.

    Row i is the dict ``cells[i] = {j: {k: c_k}}`` of its nonzero cells:
    the form at column j is sum_k c_k * a_(k+1), indeterminates numbered
    from 0.  A zero form has no key, and a form holds only nonzero ``int``
    coefficients, which the constructor checks once per stored cell
    (``ValueError`` otherwise).  Scaling a row by a nonzero constant keeps
    the generic rank, so a builder with rational data clears each row's
    denominators first.  Rows and forms are shared between matrices, and no
    routine modifies one.
    """

    __slots__ = ("rows", "cols", "num_indeterminates", "cells")

    def __init__(self, cells: Sequence[Mapping[int, Mapping[int, int]]],
                 num_indeterminates: int, cols: int):
        for row in cells:
            for j, form in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} out of range (cols={cols})")
                if not form:
                    raise ValueError(f"the zero form is stored at column {j}")
                for k, c in form.items():
                    if not 0 <= k < num_indeterminates:
                        raise ValueError(f"indeterminate index {k} out of range "
                                         f"(s={num_indeterminates})")
                    if type(c) is not int or not c:
                        raise ValueError(f"coefficient {c!r} is not a nonzero int")
        self.rows = len(cells)
        self.cols = cols
        self.num_indeterminates = num_indeterminates
        self.cells = tuple(cells)

    @property
    def entries(self) -> tuple[tuple[Mapping[int, int], ...], ...]:
        """The dense grid of forms, ``{}`` at each zero cell, built on each read."""
        zero: dict[int, int] = {}
        return tuple(tuple(row.get(j, zero) for j in range(self.cols))
                     for row in self.cells)

    def permuted(self, row_order: Sequence[int], col_order: Sequence[int]) -> "LinearFormMatrix":
        """The rows ``row_order`` and the distinct columns ``col_order``, in that order."""
        new_col = {j: t for t, j in enumerate(col_order)}
        cells = [{new_col[j]: e for j, e in self.cells[i].items() if j in new_col}
                 for i in row_order]
        return LinearFormMatrix(cells, self.num_indeterminates, len(col_order))

    def __repr__(self) -> str:
        return (f"LinearFormMatrix({self.rows}x{self.cols}, s={self.num_indeterminates}, "
                f"{list(self.cells)})")


# ---------------------------------------------------------------------------
# Probabilistic rank.


def _rank_limit(M: LinearFormMatrix, ceiling: int | None) -> int:
    """min(rows, cols, ceiling): the highest rank an elimination of M need find."""
    if ceiling is None:
        return min(M.rows, M.cols)
    if ceiling < 0:
        raise ValueError(f"ceiling must be >= 0, got {ceiling}")
    return min(M.rows, M.cols, ceiling)


def pivot_columns_mod(M: LinearFormMatrix, point: Sequence[int],
                      ceiling: int | None = None) -> list[int]:
    """Pivot columns of M at an integer point mod ``EVAL_PRIME``, the one F_p elimination.

    ``ceiling``, if given, must be a proven upper bound for the generic
    rank: the elimination stops once its rank reaches it, which then is the
    rank at the point.  Only a caller that has such a proof may pass one
    (the orbit driver has dim - min(r)); a wrong ceiling caps it silently.

    The work follows the stored cells: each row is evaluated as a dict
    ``{col: value mod p}`` of its nonzero values and reduced against the
    pivot rows found so far, always at its leftmost column, until that
    column has no pivot row (the row becomes one) or the row is zero.  A
    pivot row keeps its other values times -1/pivot, so a reduction adds a
    multiple of them at those columns only.  So the pivots are the columns
    that earlier columns do not span.
    """
    limit = _rank_limit(M, ceiling)
    if limit == 0:
        return []
    p = EVAL_PRIME
    pivots: dict[int, list[tuple[int, int]]] = {}  # leftmost column -> scaled rest
    for row in M.cells:
        vals = {}
        for j, e in row.items():
            v = 0
            for k, c in e.items():
                v += c * point[k]
            v %= p
            if v:
                vals[j] = v
        while vals:
            col = min(vals)
            f = vals.pop(col)
            prow = pivots.get(col)
            if prow is None:
                neg_inv = p - pow(f, -1, p)
                pivots[col] = [(c, v * neg_inv % p) for c, v in vals.items()]
                if len(pivots) == limit:
                    return list(pivots)
                break
            for c, scaled in prow:
                v = (vals.get(c, 0) + f * scaled) % p
                if v:
                    vals[c] = v
                else:
                    del vals[c]
    return list(pivots)


def rank_at_point_mod(M: LinearFormMatrix, point: Sequence[int],
                      ceiling: int | None = None) -> int:
    """Rank over F_p of M at an integer point: the number of ``pivot_columns_mod``.

    A lower bound for the generic rank, as reducing mod p only loses rank.
    ``index_engine.transversal_slice`` takes as J the non-pivot columns,
    then checks with this rank that the pivot columns have full rank: any
    full-rank pivot set gives a slice, and that check, not how J was
    found, proves that e_J completes the rows.
    """
    return len(pivot_columns_mod(M, point, ceiling))


@lru_cache(maxsize=64)
def _point_stream(rng: type, seed: int) -> tuple[list[int], threading.Lock,
                                                Callable[[int], int]]:
    """The coordinates drawn so far from ``rng(seed)``, the lock that extends
    them, and its ``getrandbits``.

    Keyed by the generator class too, so a stream is never shared with
    another generator.  A stream that is evicted is drawn again, the same.
    """
    return [], threading.Lock(), rng(seed).getrandbits


def probabilistic_rank(M: LinearFormMatrix, *, seed: int = 0,
                       ceiling: int | None = None) -> int:
    """Rank of M over F_p at one random point, drawn from ``seed``.

    Always a lower bound for the generic rank; equal to it unless the point
    hits the zero set of a top-size minor.  The elimination stops once it
    reaches min(rows, cols) or ``ceiling``, a proven upper bound for the
    generic rank that only a caller with a proof may pass (see
    ``pivot_columns_mod``).  No point rank exceeds the generic rank, so a
    true ceiling changes no result; at ceiling 0 no point is drawn.

    Coordinate t of the point is the t-th ``getrandbits(30)`` draw of
    ``random.Random(seed)`` that is below p: a draw outside F_p is skipped
    where it falls, so each coordinate stays uniform on F_p, and the point
    in s coordinates is the prefix of every longer point of the same seed.
    So one stream per seed serves every matrix, and is drawn only as far
    as the most indeterminates asked of it.
    """
    if _rank_limit(M, ceiling) == 0:
        return 0
    s = M.num_indeterminates
    coords, lock, bits = _point_stream(random.Random, seed)
    if len(coords) < s:
        width = EVAL_PRIME.bit_length()
        with lock:
            while len(coords) < s:
                x = bits(width)
                if x < EVAL_PRIME:
                    coords.append(x)
    return rank_at_point_mod(M, coords[:s], ceiling)


# ---------------------------------------------------------------------------
# Ground-field reduction.


def _independent_indices(vectors: list[dict[int, int]]) -> list[int]:
    """Indices of a maximal Q-independent subset (greedy, order-preserving).

    Eliminates in integers, with the termination of ``pivot_columns_mod``:
    a kept vector is stored primitive under its least key, its pivot, and
    a vector is reduced only at its least key while that key is a pivot.
    With w_p and b_p the two values there and g = gcd(w_p, b_p) > 0, w
    becomes (b_p/g) w - (w_p/g) b, which clears key p and changes only
    greater keys.  So the least key grows until it is no pivot, and w,
    independent of the kept vectors, is kept; or w is zero.  Which subset
    greedy independence keeps does not depend on the pivots.  The vectors
    are reduced in place, so the caller passes dicts of its own.
    """
    basis: dict[int, tuple[int, dict[int, int]]] = {}  # pivot -> (value there, the rest)
    keep = []
    for idx, w in enumerate(vectors):
        while w:
            key = min(w)
            f = w.pop(key)
            pivot = basis.get(key)
            if pivot is None:
                if f != 1 and f != -1:
                    content = gcd(f, *w.values())
                    if content != 1:
                        f //= content
                        w = {k: v // content for k, v in w.items()}
                basis[key] = (f, w)
                keep.append(idx)
                break
            piv, rest = pivot
            if piv < 0:
                piv, f = -piv, -f
            if piv != 1:
                g = gcd(f, piv)
                if g != piv:
                    scale = piv // g
                    w = {k: v * scale for k, v in w.items()}
                f //= g
            for k, v in rest.items():
                nv = w.get(k, 0) - f * v
                if nv:
                    w[k] = nv
                else:
                    del w[k]
    return keep


def ground_field_reduce(M: LinearFormMatrix) -> LinearFormMatrix:
    """Drop rows and columns until both are Q-bases of their spans.

    Rows are read as coefficient vectors in Q^(cols*s); a maximal linearly
    independent subset spans the same row space over Q, hence over Q(a), so
    the generic rank is unchanged.  The same is then applied to columns,
    read off one pass over the kept rows' cells.  Both subsets are greedy
    in the given order, and the elimination runs in integers (see
    ``_independent_indices``).
    """
    s = M.num_indeterminates
    row_keep = _independent_indices([{j * s + k: c for j, e in row.items() for k, c in e.items()}
                                     for row in M.cells])
    kept_rows = [M.cells[i] for i in row_keep]
    columns: dict[int, dict[int, int]] = {}
    for i, row in enumerate(kept_rows):
        for j, e in row.items():
            columns.setdefault(j, {}).update((i * s + k, c) for k, c in e.items())
    nonzero = sorted(columns)  # a zero column is never independent
    keep = _independent_indices([columns[j] for j in nonzero])
    col_keep = {nonzero[t]: new for new, t in enumerate(keep)}
    cells = [{col_keep[j]: e for j, e in row.items() if j in col_keep}
             for row in kept_rows]
    return LinearFormMatrix(cells, s, len(col_keep))


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


def _cross(a: dict, piv: dict, left: dict, b: dict, cap: int,
           deadline: float | None = None) -> dict[int, int]:
    """a*piv - left*b, aborting once the accumulated terms pass ``cap``.

    ``deadline`` (a ``time.monotonic`` value, or None) is read with the
    term cap, after the products of each term of ``a`` and ``left``.
    """
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
            if deadline is not None and monotonic() >= deadline:
                raise ResourceLimitExceeded("certification passed its time limit")
    return {e: c for e, c in out.items() if c}


def _div_heap(num: dict, divisor: dict, guard: int,
              deadline: float | None = None) -> dict[int, int]:
    """num / divisor over Z[a]; ``ArithmeticError`` unless it is exact.

    A one-term divisor c*x^d divides each term in one pass, in the order of
    ``num``: a coefficient remainder or a field of d above the term's
    exponent (a guard-bit borrow) raises, and ``deadline`` is read once,
    after the pass.  A longer divisor goes through heap division after
    Monagan & Pearce: the dividend is read in descending order while a heap
    merges the products q_i * g_j of the quotient terms found so far with
    the divisor's non-leading terms, one pending product per quotient term,
    so the next monomial to cancel is always at the top instead of being
    searched for in a remainder.  There ``deadline`` (a ``time.monotonic``
    value, or None) is read once per quotient term.
    """
    if len(divisor) == 1:
        (lead_e, lead_c), = divisor.items()
        quot = {}
        for e, c in num.items():
            q, rem = divmod(c, lead_c)
            if rem or ((e | guard) - lead_e) & guard != guard:
                raise ArithmeticError("inexact polynomial division")
            quot[e - lead_e] = q
        if deadline is not None and monotonic() >= deadline:
            raise ResourceLimitExceeded("certification passed its time limit")
        return quot
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
        if deadline is not None and monotonic() >= deadline:
            raise ResourceLimitExceeded("certification passed its time limit")
        qe = e - lead_e
        if rest:
            heappush(heap, (-(qe + rest[0][0]), len(quot), 0))
        quot.append((qe, q))
    return dict(quot)


def _least_fill_pivot(rows: list[dict[int, dict]], r: int, pos: list[int]) -> tuple[int, int]:
    """Row and column positions of the step-r pivot of ``_bareiss_rank``; (-1, -1) if none.

    The pivot is a nonzero cell of ``rows[r:]`` with the fewest terms; ties
    go to the least Markowitz count (r_i - 1)(c_j - 1), where r_i and c_j
    count the nonzero cells in its row and column of the block, and then
    to the first in row-major order of the positions, ``pos`` mapping each
    column to its own.  Only zero patterns and term counts are read.
    """
    col_count = Counter(chain.from_iterable(rows[r:]))
    pi = pj = -1  # the pivot's positions, or -1 while none is found
    for i in range(r, len(rows)):
        row = rows[i]
        fill = len(row) - 1
        for j, e in row.items():
            terms = len(e)
            if pi >= 0 and terms > best_terms:
                continue
            count = fill * (col_count[j] - 1)
            # rows come in position order, so a tie within a row goes
            # to the lesser column position, and across rows to the first
            if (pi < 0 or terms < best_terms or count < best_count
                    or count == best_count and i == pi and pos[j] < pj):
                pi, pj, best_terms, best_count = i, pos[j], terms, count
    return pi, pj


def _bareiss_rank(rows: list[dict[int, dict]], ncols: int, guard: int, max_terms: int,
                 deadline: float | None) -> int:
    """Fraction-free elimination of the sparse rows ``{j: poly}``, least fill first.

    Each step pivots on the cell ``_least_fill_pivot`` picks.  Rows and
    columns are not moved: two position lists record the pivot swaps, so
    positions, and with them the tie-break and the order in which cells are
    computed, are those of a dense grid that swaps its rows and columns.
    Any pivot order gives the exact rank.  A zero cell whose row has a zero
    in the pivot column, or whose column has a zero in the pivot row, stays
    zero and is skipped without a product, a division or a clock read.
    ``deadline`` is a ``time.monotonic`` value checked before each other
    cell is computed and within its product and division, or None for no
    limit.

    The rest of a row whose pivot-column cell is zero only gains the factor
    piv_r / piv_(r-1) at step r, and while both pivots have one term the
    row is left as it is: the factors telescope.  When the row is next read,
    as the pivot row, with a nonzero pivot-column cell or at a step with a
    longer pivot, each of its cells is multiplied once by piv_(r-1) and
    divided by piv_(s-1) in ``_div_heap``, s being the step the row was last
    brought up to date at (no division when s is 0).  That rescale makes no
    term check, as a one-term factor keeps every term count, and reads the
    clock once per cell it divides.  Nor does it change a zero pattern, so
    the pivots, the rank and every product still made are the dense grid's.
    """
    rows = list(rows)  # position -> row; a row below the pivot is replaced each step
    nrows = len(rows)
    since = [0] * nrows  # position -> the step whose start its row holds
    pivots: list[dict] = []  # step -> its pivot
    col_at = list(range(ncols))  # position -> column
    pos = list(range(ncols))  # column -> position
    zero: dict[int, int] = {}
    prev: dict | None = None  # divisor for the current step; None = 1
    r = 0

    def brought_up(i: int) -> dict[int, dict]:
        """The row at position i as the dense grid holds it at step r."""
        row, s = rows[i], since[i]
        if s == r:
            return row
        (ne, nc), = prev.items()
        den = pivots[s - 1] if s else None
        out = {}
        for j, poly in row.items():
            cell = {e + ne: c * nc for e, c in poly.items()}
            out[j] = cell if den is None else _div_heap(cell, den, guard, deadline)
        return out

    while r < nrows and r < ncols:
        pi, pj = _least_fill_pivot(rows, r, pos)
        if pi < 0:
            break
        rows[r], rows[pi] = rows[pi], rows[r]
        since[r], since[pi] = since[pi], since[r]
        pc = col_at[pj]
        if pj != r:
            other = col_at[r]
            col_at[r], col_at[pj] = pc, other
            pos[pc], pos[other] = r, pj
        pivot_row = brought_up(r)
        piv = pivot_row[pc]
        defer = len(piv) == 1 and (prev is None or len(prev) == 1)
        others = pivot_row.keys() - {pc}
        for i in range(r + 1, nrows):
            if defer and pc not in rows[i]:
                continue  # its factor piv / prev waits for its next read
            row = brought_up(i)
            left = row.get(pc, zero)
            if left:
                cols = row.keys() | others
                cols.remove(pc)
            else:
                cols = row.keys()
            new = {}
            for j in sorted(cols, key=pos.__getitem__):
                if deadline is not None and monotonic() >= deadline:
                    raise ResourceLimitExceeded("certification passed its time limit")
                cell = _cross(row.get(j, zero), piv, left, pivot_row.get(j, zero),
                              max_terms, deadline)
                if prev is not None:
                    cell = _div_heap(cell, prev, guard, deadline)
                if len(cell) > max_terms:
                    raise ResourceLimitExceeded(
                        f"intermediate polynomial has {len(cell)} terms "
                        f"(limit {max_terms})"
                    )
                if cell:
                    new[j] = cell
            rows[i] = new
            since[i] = r + 1
        pivots.append(piv)
        prev = piv
        r += 1
    return r


def certified_rank(M: LinearFormMatrix, max_terms: int = DEFAULT_TERM_LIMIT,
                   timeout: float | None = None, lower: int = 0) -> int:
    """Exact generic rank of M over Q(a_1..a_s).

    Applies ``ground_field_reduce`` first.  The generic rank is at most
    either side of the reduced matrix, so when the lesser side equals
    ``lower``, a proven lower bound for the generic rank (0 proves
    nothing more), that is the rank, and no elimination runs.  A bound
    above the lesser side contradicts its proof and raises ``ValueError``.
    Otherwise Bareiss elimination runs over the polynomial ring Z[a] on
    the reduced matrix's sparse rows, which have integer coefficients.
    Raises ``ResourceLimitExceeded`` when an intermediate polynomial
    outgrows ``max_terms``, or when ``timeout`` seconds (None: no limit)
    have passed; the time is read before each cell, after each term of a
    product, after each quotient term of a division by a longer divisor
    and once per division by a one-term one.  A deferred rescale divides
    each cell of its row that way, unless the row was never brought up to
    date before (then it only multiplies, with no clock read), and makes
    no term check, since it keeps every term count; so a diagonal of
    one-term forms, which forms no intermediate polynomial, certifies at
    any ``max_terms``.  The caller decides what "too expensive" means for
    its verdict.
    """
    deadline = None if timeout is None else monotonic() + timeout
    reduced = ground_field_reduce(M)
    limit = min(reduced.rows, reduced.cols)
    if lower > limit:
        raise ValueError(f"lower bound {lower} exceeds the reduced shape "
                         f"{reduced.rows}x{reduced.cols}")
    if lower == limit:
        return lower
    used = sorted({k for row in reduced.cells for form in row.values() for k in form})
    # at step r every cell is homogeneous of degree r + 1, so no numerator
    # formed before a division has degree above 2 * min(rows, cols)
    width, guard = _packing(len(used), 2 * limit)
    bit = {k: 1 << ((len(used) - 1 - t) * width) for t, k in enumerate(used)}
    rows = [{j: {bit[k]: c for k, c in form.items()} for j, form in row.items()}
            for row in reduced.cells]
    return _bareiss_rank(rows, reduced.cols, guard, max_terms, deadline)
