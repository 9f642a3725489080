"""Shared oracles and corpus builders for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: orbit enumeration is re-done by label assignment over plain
partitions, graded dimensions by counting matrix units, brackets by explicit
matrix commutators, generic ranks by sympy's own symbolic elimination,
point ranks by plain rational row reduction, ground-field reductions by
``Fraction`` elimination against every basis vector, Bareiss by a dense
grid with physical row and column swaps, and parsed documents by
accumulating ``Fraction`` coefficients.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import numpy as np
import sympy
from sympy.polys.matrices import DomainMatrix

from thetagib import ThetaRep, check_rep
from thetagib.centralizer import GradedCentralizer, XiElement
from thetagib.cli import SweepSpec, sweep_reps
import thetagib.exact_linalg as el
from thetagib.exact_linalg import DEFAULT_TERM_LIMIT, LinearFormMatrix, ResourceLimitExceeded


def rep_of(*r: int) -> ThetaRep:
    return ThetaRep.of(*r)


@lru_cache(maxsize=None)
def cached_check_rep(r: tuple, seed: int = 0, certify_all: bool = False):
    return check_rep(ThetaRep.of(*r), seed=seed, certify_all=certify_all)


#: The gradings of the benchmark sweep, m=3 n 3-10 and m=4 n 4-8, as vectors.
SWEEP_GRADINGS = [rep.r for spec in (SweepSpec(3, 10, 3, 3), SweepSpec(4, 8, 4, 4))
                  for rep in sweep_reps(spec)]


def positive_rank_reps(n_max: int, m_max: int, n_min: int = 2, m_min: int = 2):
    """Cyclically normalized vectors with min(r) >= 1 in the given box."""
    return sweep_reps(SweepSpec(n_min=n_min, n_max=n_max,
                                m_min=m_min, m_max=m_max, min_rank=1))


def all_reps(n_max: int, m_max: int, n_min: int = 1, m_min: int = 2):
    """Cyclically normalized vectors including rank zero."""
    return sweep_reps(SweepSpec(n_min=n_min, n_max=n_max,
                                m_min=m_min, m_max=m_max, min_rank=0))


# ---------------------------------------------------------------------------
# Orbit enumeration oracle: plain partitions x label assignments, dedup.


def _partitions(n, maxp=None):
    if maxp is None:
        maxp = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def brute_force_orbit_keys(rep: ThetaRep, include_zero: bool = False):
    """Canonical block multisets for ``rep`` by exhaustive label assignment."""
    found = set()
    for part in _partitions(rep.n):
        if not include_zero and part[0] == 1:
            continue
        for labels in product(range(rep.m), repeat=len(part)):
            counts = [0] * rep.m
            for length, label in zip(part, labels):
                for j in range(length):
                    counts[(label + j) % rep.m] += 1
            if counts == list(rep.r):
                found.add(tuple(sorted(zip(part, labels),
                                       key=lambda b: (-b[0], b[1]))))
    return found


def _oracle_canonical(block):
    return -block[0], block[1]


def _oracle_block_usage(length: int, label: int, m: int) -> list[int]:
    use = [length // m] * m
    for j in range(length % m):
        use[(label + j) % m] += 1
    return use


def recursive_orbit_blocks(rep: ThetaRep) -> list[tuple]:
    """Every nilpotent orbit of ``rep``, zero included, as canonical block tuples.

    Blocks are placed one at a time against per-residue budgets, length
    descending and labels ascending within a length, so each multiset comes
    once; the tuples are then sorted into canonical order.  This is the
    enumerator that orderly generation replaced.
    """
    m = rep.m
    budget = list(rep.r)
    out = []
    chosen = []

    def recurse(remaining: int, max_len: int, min_label: int) -> None:
        if remaining == 0:
            out.append(tuple(chosen))
            return
        for length in range(min(max_len, remaining), 0, -1):
            first_label = min_label if length == max_len else 0
            for label in range(first_label, m):
                use = _oracle_block_usage(length, label, m)
                if all(budget[c] >= use[c] for c in range(m)):
                    for c in range(m):
                        budget[c] -= use[c]
                    chosen.append((length, label))
                    recurse(remaining - length, length, label)
                    chosen.pop()
                    for c in range(m):
                        budget[c] += use[c]

    recurse(rep.n, rep.n, 0)
    out.sort(key=lambda blocks: tuple(map(_oracle_canonical, blocks)))
    return out


def symmetry_images(rep: ThetaRep, blocks) -> frozenset:
    """The canonical block tuples of ``blocks`` under each map that keeps ``rep``.

    Every rotation t -> t + c and reflection (l, t) -> (l, c - t - l + 1) of
    the labels is tried, and an image is kept when its residue counts are
    r again; the identity is among them.
    """
    m = rep.m
    images = set()
    for c in range(m):
        for plain in ([(l, (t + c) % m) for l, t in blocks],
                      [(l, (c - t - l + 1) % m) for l, t in blocks]):
            counts = [0] * m
            for l, t in plain:
                for c2, u in enumerate(_oracle_block_usage(l, t, m)):
                    counts[c2] += u
            if counts == list(rep.r):
                images.add(tuple(sorted(plain, key=_oracle_canonical)))
    return frozenset(images)


# ---------------------------------------------------------------------------
# Graded dimension oracle: count matrix units by eigen-exponent difference.


def brute_force_graded_dims(rep: ThetaRep):
    exponents = []
    for t, count in enumerate(rep.r):
        exponents.extend([t] * count)
    dims = [0] * rep.m
    for ex in exponents:
        for ey in exponents:
            dims[(ex - ey) % rep.m] += 1
    return dims[0], dims[1 % rep.m], dims[(-1) % rep.m]


# ---------------------------------------------------------------------------
# Explicit matrix model of the centralizer basis.


def per_element_by_degree(cent: GradedCentralizer):
    """``by_degree`` of ``cent`` rebuilt one element at a time.

    Each xi_i^{j,s} is made by ``XiElement(i, j, s)`` and put in the bucket
    of its degree (s + t(j) - t(i)) % m, in order of (i, j, s).
    """
    m = cent.m
    buckets = [[] for _ in range(m)]
    k = len(cent.lengths)
    d = [l - 1 for l in cent.lengths]
    t = cent.labels
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            lo = max(d[j - 1] - d[i - 1], 0)
            for s in range(lo, d[j - 1] + 1):
                deg = (s + t[j - 1] - t[i - 1]) % m
                buckets[deg].append(XiElement(i, j, s))
    return tuple(tuple(b) for b in buckets)


def ambient_cells(cent: GradedCentralizer):
    """Flat index for cell (block i, power u); row-major over blocks."""
    cells = {}
    pos = 0
    for i, length in enumerate(cent.lengths, start=1):
        for u in range(length):
            cells[(i, u)] = pos
            pos += 1
    return cells, pos


def xi_matrix(cent: GradedCentralizer, x) -> np.ndarray:
    """The n x n integer matrix of a basis element (columns act on cells)."""
    cells, n = ambient_cells(cent)
    mat = np.zeros((n, n), dtype=np.int64)
    d_target = cent.lengths[x.j - 1] - 1
    d_source = cent.lengths[x.i - 1] - 1
    for u in range(d_source + 1):
        if x.s + u <= d_target:
            mat[cells[(x.j, x.s + u)], cells[(x.i, u)]] = 1
    return mat


def cell_exponents(cent: GradedCentralizer):
    """Eigen-exponent of each ambient cell: label of its block plus power."""
    cells, n = ambient_cells(cent)
    exps = [0] * n
    for (i, u), pos in cells.items():
        exps[pos] = (cent.labels[i - 1] + u) % cent.m
    return exps


def bracket(cent: GradedCentralizer, x: XiElement, y: XiElement) -> dict[XiElement, int]:
    """Commutator [x, y] in ``cent`` as a signed combination of basis elements.

    The commutator rule of the ``centralizer`` module docstring, term by
    term: terms whose s-index leaves the allowed range are dropped, matching
    the convention that out-of-range symbols are zero.
    """
    out: dict[XiElement, int] = {}
    s = x.s + y.s
    if y.j == x.i and cent.in_range(y.i, x.j, s):
        z = XiElement(y.i, x.j, s)
        out[z] = out.get(z, 0) + 1
    if x.j == y.i and cent.in_range(x.i, y.j, s):
        z = XiElement(x.i, y.j, s)
        v = out.get(z, 0) - 1
        if v:
            out[z] = v
        else:
            out.pop(z, None)
    return out


def dense_action_structure_constants(cent: GradedCentralizer):
    """The action rows of ``cent`` from ``bracket`` on every pair (x, v).

    Same layout as ``action_structure_constants``: one row per x in the
    degree-0 basis, keyed by the index j of v in the degree-(m-1) basis,
    a key only for a nonzero bracket.
    """
    module = cent.by_degree[cent.m - 1]
    col = {v: k for k, v in enumerate(module)}
    rows = []
    for x in cent.by_degree[0]:
        row = {}
        for j, v in enumerate(module):
            terms = bracket(cent, x, v)
            if terms:
                row[j] = {col[z]: c for z, c in terms.items()}
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Symbolic rank oracle (sympy's elimination, independent of the Bareiss path).


def _sympy_matrix(matrix: LinearFormMatrix) -> sympy.Matrix:
    s = matrix.num_indeterminates
    syms = sympy.symbols(f"a0:{max(s, 1)}")

    def entry(i, j):
        total = sympy.Integer(0)
        for k, c in matrix.cells[i].get(j, {}).items():
            total += sympy.Integer(c) * syms[k]
        return total

    return sympy.Matrix(matrix.rows, matrix.cols, entry)


def sympy_generic_rank(matrix: LinearFormMatrix) -> int:
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    return _sympy_matrix(matrix).rank()


def sympy_field_rank(matrix: LinearFormMatrix) -> int:
    """Rank over QQ(a) by sympy's DomainMatrix elimination.

    Same answer as ``sympy_generic_rank``, but fast enough for 7x7 symbolic
    matrices, where ``Matrix.rank`` takes seconds each.
    """
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    return DomainMatrix.from_Matrix(_sympy_matrix(matrix)).to_field().rank()


def minor_expansion_rank(matrix: LinearFormMatrix) -> int:
    """Largest k with a non-vanishing k x k minor (sympy determinants)."""
    from itertools import combinations

    s = matrix.num_indeterminates
    syms = sympy.symbols(f"a0:{max(s, 1)}")
    rows = [
        [sum((sympy.Integer(c) * syms[k] for k, c in row.get(j, {}).items()),
             sympy.Integer(0))
         for j in range(matrix.cols)]
        for row in matrix.cells
    ]
    best = 0
    for k in range(1, min(matrix.rows, matrix.cols) + 1):
        found = False
        for ri in combinations(range(matrix.rows), k):
            for ci in combinations(range(matrix.cols), k):
                sub = sympy.Matrix([[rows[i][j] for j in ci] for i in ri])
                if sympy.expand(sub.det()) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


# ---------------------------------------------------------------------------
# Linear-form matrices from dense rational grids, and random ones.


def matrix_of(grid, s: int, cols: int | None = None) -> LinearFormMatrix:
    """The matrix of a dense grid of forms ``{k: c}`` with int or Fraction c.

    Zero coefficients and zero forms are dropped, and each row is multiplied
    by the lcm of its denominators, which keeps the generic rank:
    ``[[{0: 1/2}, {1: 1/3}]]`` becomes the row ``{0: {0: 3}, 1: {1: 2}}``.
    ``cols`` defaults to the length of the first row.
    """
    if cols is None:
        cols = len(grid[0]) if grid else 0
    cells = []
    for row in grid:
        assert len(row) == cols, f"a row has {len(row)} entries, expected {cols}"
        scale = lcm(*(Fraction(c).denominator for e in row for c in e.values()))
        cells.append({j: form for j, e in enumerate(row)
                      if (form := {k: int(c * scale) for k, c in e.items() if c})})
    return LinearFormMatrix(cells, s, cols)


def random_matrix(rng, max_rows=6, max_cols=6, max_vars=4) -> LinearFormMatrix:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    s = rng.randint(1, max_vars)
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            coeffs = {}
            for k in range(s):
                if rng.random() < 0.4:
                    num = rng.randint(-3, 3)
                    den = rng.choice((1, 1, 1, 2, 3))
                    if num:
                        coeffs[k] = Fraction(num, den)
            row.append(coeffs)
        grid.append(row)
    return matrix_of(grid, s)


# ---------------------------------------------------------------------------
# Rational evaluation and rank: the plain oracles for the F_p rank.


def evaluate(matrix: LinearFormMatrix, point) -> list[list[Fraction]]:
    """Substitute a point for (a_1, ..., a_s); exact rational result."""
    if len(point) != matrix.num_indeterminates:
        raise ValueError(
            f"point has length {len(point)}, expected {matrix.num_indeterminates}"
        )
    pt = [Fraction(x) for x in point]
    return [[sum((c * pt[k] for k, c in row.get(j, {}).items()), Fraction(0))
             for j in range(matrix.cols)]
            for row in matrix.cells]


def scalar_rank(matrix) -> int:
    """Exact rank over Q of a dense matrix of rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col] * inv
            if f:
                for c in range(col, ncols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Certification as it ran in Fractions and on a dense grid: the oracles for
# the integer reduction and the sparse Bareiss elimination.


def fraction_independent_indices(vectors: list[dict[int, int]]) -> list[int]:
    """Indices of a maximal Q-independent subset (greedy, order-preserving).

    Each vector is reduced in Fractions against every basis vector in turn;
    a nonzero remainder joins the basis with its first key as pivot.
    """
    basis: list[tuple[int, dict]] = []  # (pivot position, reduced vector)
    keep = []
    for idx, vec in enumerate(vectors):
        w = dict(vec)
        for pivot, bvec in basis:
            c = w.get(pivot)
            if c:
                f = Fraction(c) / bvec[pivot]
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


def fraction_ground_field_reduce(M: LinearFormMatrix) -> LinearFormMatrix:
    """``ground_field_reduce`` with ``fraction_independent_indices`` for rows, then columns."""
    s = M.num_indeterminates
    row_keep = fraction_independent_indices(
        [{j * s + k: c for j, e in row.items() for k, c in e.items()} for row in M.cells])
    kept_rows = [M.cells[i] for i in row_keep]
    columns: dict[int, dict[int, int]] = {}
    for i, row in enumerate(kept_rows):
        for j, e in row.items():
            columns.setdefault(j, {}).update((i * s + k, c) for k, c in e.items())
    nonzero = sorted(columns)
    keep = fraction_independent_indices([columns[j] for j in nonzero])
    col_keep = {nonzero[t]: new for new, t in enumerate(keep)}
    cells = [{col_keep[j]: e for j, e in row.items() if j in col_keep}
             for row in kept_rows]
    return LinearFormMatrix(cells, s, len(col_keep))


def dense_bareiss_rank(grid: list[list[dict]], guard: int, max_terms: int) -> int:
    """Bareiss on a dense grid of packed polynomials, swapping rows and columns.

    The pivot is the first cell in row-major order with the fewest terms,
    ties to the least Markowitz count; a zero cell whose update is zero is
    skipped.  Products and divisions go through ``exact_linalg._cross`` and
    ``_div_heap``, looked up at each call, so a test can record them.
    """
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    prev = None
    r = 0
    while r < nrows and r < ncols:
        row_count = [0] * nrows
        col_count = [0] * ncols
        for i in range(r, nrows):
            for j in range(r, ncols):
                if grid[i][j]:
                    row_count[i] += 1
                    col_count[j] += 1
        best = None
        for i in range(r, nrows):
            for j in range(r, ncols):
                e = grid[i][j]
                if e:
                    key = (len(e), (row_count[i] - 1) * (col_count[j] - 1))
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        grid[r], grid[pi] = grid[pi], grid[r]
        for row in grid:
            row[r], row[pj] = row[pj], row[r]
        pivot_row = grid[r]
        piv = pivot_row[r]
        for i in range(r + 1, nrows):
            row = grid[i]
            left = row[r]
            for j in range(r + 1, ncols):
                a = row[j]
                b = pivot_row[j]
                if not a and (not left or not b):
                    continue
                cell = el._cross(a, piv, left, b, max_terms)
                if prev is not None:
                    cell = el._div_heap(cell, prev, guard)
                if len(cell) > max_terms:
                    raise ResourceLimitExceeded(f"{len(cell)} terms")
                row[j] = cell
            row[r] = {}
        prev = piv
        r += 1
    return r


def dense_certified_rank(M: LinearFormMatrix, max_terms: int = DEFAULT_TERM_LIMIT) -> int:
    """Generic rank by ``dense_bareiss_rank`` on ``fraction_ground_field_reduce(M)``."""
    reduced = fraction_ground_field_reduce(M)
    if reduced.rows == 0 or reduced.cols == 0:
        return 0
    used = sorted({k for row in reduced.cells for form in row.values() for k in form})
    width, guard = el._packing(len(used), 2 * min(reduced.rows, reduced.cols))
    bit = {k: 1 << ((len(used) - 1 - t) * width) for t, k in enumerate(used)}
    grid = [[{bit[k]: c for k, c in row.get(j, {}).items()} for j in range(reduced.cols)]
            for row in reduced.cells]
    return dense_bareiss_rank(grid, guard, max_terms)


# ---------------------------------------------------------------------------
# Structure-constant documents: the rational parse the integer one replaced.


def fraction_parse(doc: dict) -> list[list[dict[int, Fraction]]]:
    """The action grid of a valid document, each coefficient an exact Fraction.

    Repeated (i, j, k) brackets accumulate and a coefficient that cancels is
    dropped; no row is rescaled.
    """
    coeffs: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, num, den in doc["brackets"]:
        entry = coeffs.setdefault((i, j), {})
        entry[k] = entry.get(k, Fraction(0)) + Fraction(num, den)
    return [[{k: c for k, c in coeffs.get((i, j), {}).items() if c}
             for j in range(doc["dim_v"])] for i in range(doc["dim_q"])]


def scale_rows(doc: dict, rng, max_den: int = 97) -> dict:
    """A copy of ``doc`` with each row's brackets times a random nonzero rational.

    Scales have either sign and numerators and denominators in 1..max_den,
    so the scaled document has the same generic rank.
    """
    scales: dict[int, Fraction] = {}
    brackets = []
    for i, j, k, num, den in doc["brackets"]:
        if i not in scales:
            scales[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, max_den),
                                 rng.randint(1, max_den))
        c = Fraction(num, den) * scales[i]
        brackets.append([i, j, k, c.numerator, c.denominator])
    return dict(doc, brackets=brackets)


#: The skew form [[0, a1, a2], [-a1, 0, a3], [-a2, -a3, 0]] of generic rank
#: 2, with the bare claim ``"rank": 1`` for its index.  Its rows and columns
#: are Q-independent, so the reduced shape (3x3) does not pin the rank.
SKEW_DOCUMENT = {
    "dim_q": 3, "dim_v": 3, "rank": 1,
    "brackets": [[0, 1, 0, 1, 1], [0, 2, 1, 1, 1], [1, 0, 0, -1, 1],
                 [1, 2, 2, 1, 1], [2, 0, 1, -1, 1], [2, 1, 2, -1, 1]],
}
