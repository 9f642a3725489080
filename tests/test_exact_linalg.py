"""Exact linear algebra: evaluation, reduction, probabilistic and certified rank."""

import random
import time
from fractions import Fraction

import pytest
from sympy import GF, isprime, prevprime
from sympy.polys.matrices import DomainMatrix

from helpers import (
    dense_certified_rank,
    evaluate,
    fraction_ground_field_reduce,
    matrix_of,
    minor_expansion_rank,
    random_matrix,
    scalar_rank,
    sympy_field_rank,
    sympy_generic_rank,
)
from thetagib import (
    LabeledPartition,
    LinearFormMatrix,
    ResourceLimitExceeded,
    build_action_matrix,
    build_centralizer,
    certified_rank,
    ground_field_reduce,
    probabilistic_rank,
)
from thetagib.exact_linalg import (
    EVAL_PRIME,
    _cross,
    _div_heap,
    _packing,
    pivot_columns_mod,
    rank_at_point_mod,
)


def lf(**kw):
    # lf(a1=2, a2=3) -> {0: 2, 1: 3}, the entry 2*a1 + 3*a2 (names are
    # 1-based, storage 0-based)
    return {int(k[1:]) - 1: v for k, v in kw.items()}


def matrix_332_orbit():
    # the (5,3)-block orbit of the order-3 grading with r=(3,3,2)
    cent = build_centralizer(LabeledPartition(((5, 0), (3, 1))), 3)
    return build_action_matrix(cent)


class TestEvaluate:
    def test_single_entry(self):
        m = matrix_of([[lf(a1=2, a2=3)]], 2)
        assert evaluate(m, [1, 1]) == [[5]]
        assert evaluate(m, [Fraction(1, 2), 0]) == [[1]]

    def test_zero_point_kills_every_entry(self):
        m = matrix_332_orbit()
        values = evaluate(m, [0] * m.num_indeterminates)
        assert all(v == 0 for row in values for v in row)

    def test_dimension_mismatch(self):
        m = matrix_of([[lf(a1=1)]], 1)
        with pytest.raises(ValueError):
            evaluate(m, [1, 2])

    def test_332_matrix_has_rank_one_at_random_points(self):
        # oracle: plain rational row reduction at 10 seeded points
        m = matrix_332_orbit()
        assert (m.rows, m.cols) == (5, 4)
        rng = random.Random(332)
        for _ in range(10):
            point = [Fraction(rng.randint(1, 10**6)) for _ in range(m.num_indeterminates)]
            assert scalar_rank(evaluate(m, point)) == 1


class TestProbabilisticRank:
    def test_zero_matrix(self):
        m = matrix_of([[{}, {}]], 2)
        assert probabilistic_rank(m, seed=1) == 0

    def test_single_nonzero_form(self):
        m = matrix_of([[lf(a1=1)]], 1)
        assert probabilistic_rank(m, seed=0) == 1

    def test_nilp_ex_matrix_rank_two(self):
        # 6x6 matrix of the (5,3,1) orbit at r=(3,3,3); its exact generic
        # rank is 2: the nilpotent part of the stabilizer acts trivially and
        # the three torus rows sum to zero.
        cent = build_centralizer(LabeledPartition(((5, 0), (3, 1), (1, 2))), 3)
        m = build_action_matrix(cent)
        assert (m.rows, m.cols) == (6, 6)
        assert probabilistic_rank(m, seed=0) == 2
        assert certified_rank(m) == 2

    def test_points_are_redrawn_into_the_field(self, monkeypatch):
        # a draw of p itself is not a residue mod p: it is skipped where it
        # falls, and the next draw below p is the next coordinate
        import thetagib.exact_linalg as el

        m = matrix_of([[lf(a1=1, a2=1, a3=1)]], 3)
        probabilistic_rank(m)  # seed 0's own stream must not serve the draws below
        draws = iter([EVAL_PRIME, 5, EVAL_PRIME, EVAL_PRIME, 7, 9])

        class Draws:
            def __init__(self, seed):
                pass

            def getrandbits(self, k):
                assert 2 ** k > EVAL_PRIME >= 2 ** (k - 1)
                return next(draws)

        points = []
        monkeypatch.setattr(el.random, "Random", Draws)
        monkeypatch.setattr(el, "rank_at_point_mod",
                            lambda m, point, ceiling: points.append(point) or 0)
        assert probabilistic_rank(m) == 0
        assert points == [[5, 7, 9]]

    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_a_point_is_the_prefix_of_longer_points(self, monkeypatch, seed):
        import thetagib.exact_linalg as el

        points = []
        monkeypatch.setattr(el, "rank_at_point_mod",
                            lambda m, point, ceiling: points.append(point) or 0)
        for s in (8, 3, 13, 8):
            probabilistic_rank(matrix_of([[lf(a1=1)]], s), seed=seed)
        bits = random.Random(seed).getrandbits
        stream = [x for x in (bits(30) for _ in range(20)) if x < EVAL_PRIME]
        assert points == [stream[:8], stream[:3], stream[:13], stream[:8]]
        assert points[2][:8] == points[0] and points[2][:3] == points[1]

    def test_threads_extending_one_stream_see_the_same_points(self, monkeypatch):
        # a draw and its append are two steps: without the stream's lock,
        # threads that extend the stream together interleave them and the
        # stream stops being the in-order draws of its seed
        import sys
        import threading

        import thetagib.exact_linalg as el

        seed = 918273645  # drawn by no other test, so the stream starts empty
        points = []
        monkeypatch.setattr(el, "rank_at_point_mod",
                            lambda m, point, ceiling: points.append(point) or 0)
        sizes = range(2000, 40001, 2000)
        matrices = [matrix_of([[lf(a1=1)]], s) for s in sizes]
        start = threading.Barrier(6)

        def work():
            start.wait(timeout=60)
            for matrix in matrices:
                probabilistic_rank(matrix, seed=seed)

        threads = [threading.Thread(target=work) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        bits = random.Random(seed).getrandbits
        stream = [x for x in (bits(30) for _ in range(40100)) if x < EVAL_PRIME]
        assert len(points) == 6 * len(sizes)
        assert all(point == stream[:len(point)] for point in points)

    def test_evaluation_prime_is_a_prime_below_two_to_the_30(self):
        assert isprime(EVAL_PRIME)
        assert EVAL_PRIME < 2 ** 30 and EVAL_PRIME == prevprime(2 ** 30)

    def test_seed_and_ceiling_are_keyword_only(self):
        # read positionally, (m, 3, 0) would be seed 3 at ceiling 0: rank 0
        m = matrix_of([[lf(a1=1)]], 1)
        with pytest.raises(TypeError):
            probabilistic_rank(m, 3, 0)

    def test_matches_scalar_rank_at_fixed_point(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_matrix(rng)
            point = [rng.randint(0, 10**6) for _ in range(m.num_indeterminates)]
            assert rank_at_point_mod(m, point) == scalar_rank(evaluate(m, point))

    def test_pivot_columns_are_a_full_rank_set_of_columns(self):
        # the pivots are the columns that the columns before them do not
        # span, which the transversal slice relies on when it reverses them
        rng = random.Random(19)
        for _ in range(25):
            m = random_matrix(rng)
            point = [rng.randint(0, 10**6) for _ in range(m.num_indeterminates)]
            values = evaluate(m, point)
            rank = rank_at_point_mod(m, point)
            for ceiling in (None, *range(rank + 1)):
                pivots = pivot_columns_mod(m, point, ceiling)
                assert len(set(pivots)) == len(pivots)
                assert len(pivots) == rank_at_point_mod(m, point, ceiling)
                assert scalar_rank([[row[j] for j in pivots] for row in values]) == len(pivots)
            pivots = pivot_columns_mod(m, point)
            for j in range(m.cols):
                spans = [scalar_rank([row[:k] for row in values]) for k in (j, j + 1)]
                assert (j in pivots) == (spans[1] > spans[0])

    def test_point_rank_matches_sympy_over_gf_p(self):
        # reference: sympy's elimination over GF(EVAL_PRIME), one indeterminate
        # evaluated at 1, so each coefficient is the entry itself
        field = GF(EVAL_PRIME)
        rng = random.Random(42)
        for _ in range(20):
            nr = rng.randint(1, 12)
            nc = rng.randint(1, 12)
            vals = [[rng.randrange(EVAL_PRIME) for _ in range(nc)] for _ in range(nr)]
            if rng.random() < 0.5 and nr >= 2:  # force rank deficiency
                vals[-1] = list(vals[0])
            m = matrix_of([[{0: v} for v in row] for row in vals], 1)
            expected = DomainMatrix([[field(v) for v in row] for row in vals],
                                    (nr, nc), field).rank()
            assert rank_at_point_mod(m, [1]) == expected

    def test_sparse_point_rank_matches_sympy_at_every_ceiling(self):
        # density 0.1-0.4 with forced zero rows, zero columns and duplicate
        # rows; some nonzero entries are multiples of p, so they vanish at
        # the point like the zeros the kernel skips
        field = GF(EVAL_PRIME)
        rng = random.Random(2024)
        for _ in range(60):
            nr = rng.randint(1, 15)
            nc = rng.randint(1, 15)
            density = rng.uniform(0.1, 0.4)
            vals = [[(EVAL_PRIME * rng.randint(1, 3) if rng.random() < 0.1
                      else rng.randrange(1, EVAL_PRIME))
                     if rng.random() < density else 0 for _ in range(nc)]
                    for _ in range(nr)]
            for _ in range(rng.randint(0, 2)):
                vals[rng.randrange(nr)] = [0] * nc
            for _ in range(rng.randint(0, 2)):
                j = rng.randrange(nc)
                for row in vals:
                    row[j] = 0
            if nr >= 2:
                for _ in range(rng.randint(0, 2)):
                    vals[rng.randrange(nr)] = list(vals[rng.randrange(nr)])
            m = matrix_of([[{0: v} if v else {} for v in row] for row in vals], 1)
            rank = DomainMatrix([[field(v) for v in row] for row in vals],
                                (nr, nc), field).rank()
            assert rank_at_point_mod(m, [1]) == rank
            for ceiling in range(min(nr, nc) + 1):
                assert rank_at_point_mod(m, [1], ceiling=ceiling) == min(rank, ceiling)

    def test_ceiling_at_or_above_the_rank_changes_nothing(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng)
            generic = certified_rank(m)
            point = [rng.randrange(EVAL_PRIME) for _ in range(m.num_indeterminates)]
            at_point = rank_at_point_mod(m, point)
            seed = rng.randrange(100)
            prob = probabilistic_rank(m, seed=seed)
            for ceiling in (generic, generic + 1, generic + 5):
                assert rank_at_point_mod(m, point, ceiling=ceiling) == at_point
                assert probabilistic_rank(m, seed=seed, ceiling=ceiling) == prob
            # below the rank, the ceiling caps: only a proven one may be passed
            for ceiling in range(at_point):
                assert rank_at_point_mod(m, point, ceiling=ceiling) == ceiling

    def test_negative_ceiling_is_rejected(self):
        m = matrix_of([[lf(a1=1)]], 1)
        with pytest.raises(ValueError, match="ceiling"):
            rank_at_point_mod(m, [1], ceiling=-1)
        with pytest.raises(ValueError, match="ceiling"):
            probabilistic_rank(m, ceiling=-1)
        with pytest.raises(ValueError, match="ceiling"):
            probabilistic_rank(matrix_of([], 1), ceiling=-1)

    def test_point_rank_loses_rank_divisible_by_prime(self):
        m = matrix_of([[lf(a1=1), {}],
                              [{}, lf(a1=EVAL_PRIME)]], 1)
        assert rank_at_point_mod(m, [1]) == 1
        assert certified_rank(m) == 2


class TestGroundFieldReduce:
    def test_identical_rows_merge(self):
        row = [lf(a1=1, a2=2), lf(a2=1)]
        m = matrix_of([row, list(row)], 2)
        red = ground_field_reduce(m)
        assert red.rows == 1
        assert red.cells == ({0: row[0], 1: row[1]},)

    def test_proportional_rows_merge(self):
        m = matrix_of([[lf(a1=1), {}],
                              [lf(a1=2), {}]], 1)
        red = ground_field_reduce(m)
        assert (red.rows, red.cols) == (1, 1)
        assert red.cells == ({0: lf(a1=1)},)

    def test_2221_orbit_reduces_to_two_rows(self):
        # the (3,3,1) orbit of r=(2,2,2,1): two nilpotent stabilizer rows are
        # zero and the three torus rows sum to zero (the center acts
        # trivially), so a Q-basis of the row space has 2 elements.
        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        m = build_action_matrix(cent)
        assert m.rows == 5
        nonzero_rows = [row for row in m.cells if row]
        assert len(nonzero_rows) == 3  # torus only
        total = {}  # (column, indeterminate) -> coefficient of the row sum
        for row in nonzero_rows:
            for j, e in row.items():
                for k, c in e.items():
                    total[j, k] = total.get((j, k), 0) + c
        assert total and not any(total.values())
        red = ground_field_reduce(m)
        assert red.rows == 2
        assert red.cols == 4

    def test_generic_rank_preserved(self):
        rng = random.Random(21)
        for _ in range(30):
            m = random_matrix(rng)
            assert certified_rank(ground_field_reduce(m)) == certified_rank(m)

    def test_reduction_equals_the_rational_oracle_on_random_matrices(self):
        # integer rows cleared from coefficients up to 3 over denominators
        # up to 3, among them integer combinations of earlier rows, so that
        # pivots other than +-1 scale the vectors they reduce
        rng = random.Random(31)
        non_unit = 0
        for _ in range(300):
            m = random_matrix(rng, max_rows=7, max_cols=6, max_vars=3)
            cells = list(m.cells)
            for _ in range(rng.randint(0, 3)):
                combo: dict[tuple[int, int], int] = {}
                for row in rng.sample(cells, min(len(cells), 3)):
                    factor = rng.choice((-3, -2, 2, 3))
                    for j, e in row.items():
                        for k, c in e.items():
                            combo[j, k] = combo.get((j, k), 0) + factor * c
                row: dict[int, dict[int, int]] = {}
                for (j, k), c in combo.items():
                    if c:
                        row.setdefault(j, {})[k] = c
                cells.insert(rng.randint(0, len(cells)), row)
            m = LinearFormMatrix(cells, m.num_indeterminates, m.cols)
            non_unit += any(abs(c) > 1 for row in cells for e in row.values() for c in e.values())
            got, want = ground_field_reduce(m), fraction_ground_field_reduce(m)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert [list(row.items()) for row in got.cells] == \
                [list(row.items()) for row in want.cells]
        assert non_unit > 200


class TestCertifiedRank:
    def test_lower_bound_at_the_reduced_shape_pins_the_rank(self, monkeypatch):
        # three proportional rows over two columns reduce to 1x2: a lower
        # bound of 1 is the rank, and 2 contradicts the shape
        import thetagib.exact_linalg as el

        m = matrix_of([[lf(a1=1), lf(a2=1)], [lf(a1=2), lf(a2=2)], [lf(a1=-3), lf(a2=-3)]], 2)
        assert certified_rank(m) == 1
        with pytest.raises(ValueError, match="exceeds the reduced shape 1x2"):
            certified_rank(m, lower=2)

        def forbidden(*a, **k):
            raise AssertionError("Bareiss ran on a pinned matrix")

        monkeypatch.setattr(el, "_bareiss_rank", forbidden)
        assert certified_rank(m, lower=1) == 1
        assert certified_rank(LinearFormMatrix([{}, {}], 1, 3)) == 0

    def test_full_rank_two_by_two(self):
        m = matrix_of([[lf(a1=1), lf(a2=1)],
                              [lf(a2=1), lf(a1=1)]], 2)
        assert certified_rank(m) == 2  # det a1^2 - a2^2 != 0

    def test_proportional_rows(self):
        m = matrix_of([[lf(a1=1), lf(a2=1)],
                              [lf(a1=2), lf(a2=2)]], 2)
        assert certified_rank(m) == 1

    def test_332_orbit_certified_rank_one(self):
        m = matrix_332_orbit()
        assert certified_rank(m) == 1
        assert minor_expansion_rank(m) == 1

    def test_against_sympy_on_random_matrices(self):
        rng = random.Random(99)
        for _ in range(15):
            m = random_matrix(rng, max_rows=5, max_cols=5)
            assert certified_rank(m) == sympy_generic_rank(m)

    def test_against_sympy_on_larger_random_matrices(self, monkeypatch):
        # 5x5 to 7x7 in 2-3 indeterminates, so that cells, and the pivots
        # divided by, carry several terms, and some pivots one; an odd
        # skew-symmetric matrix has a rank drop that no Q-reduction of its
        # rows or columns finds
        import thetagib.exact_linalg as el

        divisor_terms = []

        def recording_div(num, divisor, guard, deadline):
            divisor_terms.append(len(divisor))
            return _div_heap(num, divisor, guard, deadline)

        monkeypatch.setattr(el, "_div_heap", recording_div)
        rng = random.Random(77)
        cases = []
        while len(cases) < 8:
            m = random_matrix(rng, max_rows=7, max_cols=7, max_vars=3)
            if m.num_indeterminates >= 2 and min(m.rows, m.cols) >= 5:
                cases.append(m)
        for n in (5, 7):
            s = rng.randint(2, 3)
            upper = {(i, j): {k: rng.randint(-3, 3) for k in range(s)}
                     for i in range(n) for j in range(i + 1, n)}
            lower = {(i, j): {k: -c for k, c in e.items()} for (j, i), e in upper.items()}
            cases.append(matrix_of(
                [[upper[i, j] if i < j else lower[i, j] if i > j else {}
                  for j in range(n)] for i in range(n)], s))
        for m in cases:
            assert certified_rank(m) == sympy_field_rank(m)
        assert cases[-1].rows == 7 and certified_rank(cases[-1]) <= 6
        assert max(divisor_terms) > 1 and min(divisor_terms) == 1

    @staticmethod
    def _diagonal_products(monkeypatch, form: dict) -> int:
        """Products made while certifying ``form`` * I_6, of rank 6."""
        import thetagib.exact_linalg as el

        calls = []

        def counting_cross(*args):
            calls.append(args)
            return _cross(*args)

        monkeypatch.setattr(el, "_cross", counting_cross)
        n = 6
        grid = [[form if i == j else {} for j in range(n)] for i in range(n)]
        assert certified_rank(matrix_of(grid, 2)) == n
        return len(calls)

    def test_zero_cells_that_stay_zero_are_skipped(self, monkeypatch):
        # a1*I_6: below each pivot only the diagonal cells are nonzero, and
        # every off-diagonal cell is zero in a row whose pivot-column cell
        # is zero, so the dense grid makes 5 + 4 + 3 + 2 + 1 = 15 products
        # instead of 55; with one-term pivots each of those 15 only rescales
        # its row, and that rescale waits for a read that never comes
        assert self._diagonal_products(monkeypatch, lf(a1=1)) == 0

    def test_zero_cells_that_stay_zero_are_skipped_under_two_term_pivots(self, monkeypatch):
        # (a1 + a2)*I_6: the pivots have two terms, so the 15 products that
        # rescale the rows below each pivot are made
        assert self._diagonal_products(monkeypatch, lf(a1=1, a2=1)) == 15

    def test_pivot_ties_go_to_the_least_fill(self, monkeypatch):
        # two one-term cells: a1 at (0, 0), first in row-major order, in
        # the full 3x3 block of rows and columns 0-2, and 7*a2 at (3, 3),
        # alone in its row and column; the isolated one pivots first
        import thetagib.exact_linalg as el

        pivots = []

        def recording_cross(a, piv, left, b, *rest):
            pivots.append(piv)
            return _cross(a, piv, left, b, *rest)

        monkeypatch.setattr(el, "_cross", recording_cross)
        block = [[lf(a1=1), lf(a1=1, a2=2), lf(a1=2, a2=1)],
                 [lf(a1=1, a2=3), lf(a1=3, a2=1), lf(a1=1, a2=1)],
                 [lf(a1=2, a2=3), lf(a1=1, a2=5), lf(a1=4, a2=1)]]
        grid = [row + [{}] for row in block] + [[{}, {}, {}, lf(a2=7)]]
        assert certified_rank(matrix_of(grid, 2)) == 4
        assert list(pivots[0].values()) == [7]

    def test_against_sympy_on_sparse_one_term_matrices(self):
        # 5x5 to 8x8 of one-term forms with 30-50% zero cells, so that term
        # counts tie at every step and many cells are skipped; the odd
        # skew-symmetric ones among them have a rank drop
        rng = random.Random(2024)
        drops = 0
        for t in range(16):
            if t % 2:
                rows = cols = rng.choice((5, 7))
            else:
                rows, cols = rng.randint(5, 8), rng.randint(5, 8)
            s = rng.randint(1, 3)
            zero = rng.uniform(0.3, 0.5)
            grid = [[{} if rng.random() < zero
                     else {rng.randrange(s): rng.choice((-2, -1, 1, 2))}
                     for _ in range(cols)] for _ in range(rows)]
            if t % 2:
                grid = [[{} if i == j else grid[i][j] if i < j
                         else {k: -c for k, c in grid[j][i].items()}
                         for j in range(cols)] for i in range(rows)]
            m = matrix_of(grid, s)
            rank = certified_rank(m)
            assert rank == sympy_field_rank(m)
            drops += rank < min(rows, cols)
        assert drops

    def test_against_sympy_when_a_longer_pivot_interrupts_the_deferral(self, monkeypatch):
        # a sparse one-term block A in one indeterminate beside a planted
        # 5x5 block B of two-term forms in a1, a2, their rows and columns
        # interleaved.  A's one-term pivots come first and defer B's rows;
        # B's first pivot u = a1 + a2 has two terms, so the deferral stops
        # and those rows are brought up to date.  With v = a1 - a2, u*u -
        # v*v = 4*a1*a2, and u*x - v*v is -4*a2**2 or -4*a1**2 for x = a1 -
        # 3*a2 or -3*a1 + a2, so B's next pivots have one term and the
        # deferral resumes; scaling B's rows and columns keeps that
        import thetagib.exact_linalg as el

        calls = []

        def recorded(a, piv, left, b, cap, *rest):
            calls.append((a, piv, left, b))
            return _cross(a, piv, left, b, cap, *rest)

        monkeypatch.setattr(el, "_cross", recorded)
        u, v = lf(a1=1, a2=1), lf(a1=1, a2=-1)
        inner = [u, lf(a1=1, a2=-3), lf(a1=-3, a2=1)]
        rng = random.Random(31)
        resumed = drops = 0
        for _ in range(12):
            ra, ca, k = rng.randint(2, 5), rng.randint(2, 5), rng.randrange(3)
            a_block = [[{} if rng.random() < 0.4 else {k: rng.choice((-2, -1, 1, 2))}
                        for _ in range(ca)] for _ in range(ra)]
            b_block = [[v if (i == 0) != (j == 0) else u if i + j == 0 or 1 in (i, j)
                        else rng.choice(inner) for j in range(5)] for i in range(5)]
            rs, cs = ([rng.choice((-2, -1, 1, 2)) for _ in range(5)] for _ in range(2))
            b_block = [[{x: c * rs[i] * cs[j] for x, c in form.items()}
                        for j, form in enumerate(row)] for i, row in enumerate(b_block)]
            b_rows = sorted(rng.sample(range(ra + 5), 5))
            b_cols = sorted(rng.sample(range(ca + 5), 5))
            a_rows = [i for i in range(ra + 5) if i not in b_rows]
            a_cols = [j for j in range(ca + 5) if j not in b_cols]
            grid = [[{} for _ in range(ca + 5)] for _ in range(ra + 5)]
            for block, rows, cols in ((a_block, a_rows, a_cols), (b_block, b_rows, b_cols)):
                for i, row in zip(rows, block):
                    for j, form in zip(cols, row):
                        grid[i][j] = form
            m = matrix_of(grid, 3)
            calls.clear()
            rank = certified_rank(m)
            sparse_calls = list(calls)
            calls.clear()
            marks = []
            assert dense_certified_rank(m, marks=marks) == rank == sympy_field_rank(m)
            assert sparse_calls == [c for c, d in zip(calls, marks, strict=True) if not d]
            # a deferred product before and after one at a longer pivot
            resumed += any(True in marks[:t] and True in marks[t:]
                           for t, c in enumerate(calls) if len(c[1]) > 1)
            drops += rank < min(m.rows, m.cols)
        assert resumed >= 6 and drops

    def test_sparse_rows_make_the_dense_calls_on_tied_matrices(self, monkeypatch):
        # dense one-term cells tie on terms and often on fill, and each row's
        # cells are stored in shuffled column order, so the pivot and the
        # order of the products follow from positions alone; the dense
        # grid with physical swaps is the oracle, less the products that
        # the sparse rows defer while the pivots have one term
        import thetagib.exact_linalg as el

        calls = []

        def recorded(a, piv, left, b, cap, *rest):
            calls.append((a, piv, left, b))
            return _cross(a, piv, left, b, cap, *rest)

        monkeypatch.setattr(el, "_cross", recorded)
        rng = random.Random(12)
        deferred = kept_zero_left = 0
        for _ in range(40):
            rows, cols, s = rng.randint(3, 7), rng.randint(3, 7), rng.randint(1, 3)
            cells = []
            for _ in range(rows):
                row = [(j, {rng.randrange(s): rng.choice((-2, -1, 1, 2))})
                       for j in range(cols) if rng.random() < 0.85]
                rng.shuffle(row)
                cells.append(dict(row))
            m = LinearFormMatrix(cells, s, cols)
            calls.clear()
            sparse = certified_rank(m)
            sparse_calls = list(calls)
            calls.clear()
            marks = []
            assert dense_certified_rank(m, marks=marks) == sparse
            assert sparse_calls == [c for c, d in zip(calls, marks, strict=True) if not d]
            deferred += sum(marks)
            kept_zero_left += sum(not c[2] and not d for c, d in zip(calls, marks))
        assert deferred and kept_zero_left

    def test_full_rank_at_the_field_width_bound(self):
        # a1*I_12 with a1 added off the diagonal of the first row: with one
        # indeterminate the exponents climb to 22, near the bound
        # 2*min(rows, cols) = 24 that sets the packed field width, and past
        # what a field one bit narrower holds
        n = 12
        grid = [[lf(a1=1) if i == j or i == 0 else {} for j in range(n)]
                for i in range(n)]
        assert certified_rank(matrix_of(grid, 1)) == n

    def test_packing_covers_only_the_used_indeterminates(self, monkeypatch):
        # 10**6 indeterminates, two of them used: packing all of them would
        # build exponents of millions of bits before the first cell
        import thetagib.exact_linalg as el

        packed = []

        def packing(nvars, max_degree):
            packed.append(nvars)
            assert nvars == 2, "a field for every indeterminate"
            return _packing(nvars, max_degree)

        monkeypatch.setattr(el, "_packing", packing)
        m = LinearFormMatrix([{0: {5: 1}, 1: {999_999: 2}}, {0: {999_999: 1}, 1: {5: -1}}],
                             10**6, 2)
        assert certified_rank(m) == 2
        assert packed == [2]

    def test_resource_limit_is_catchable(self):
        rng = random.Random(4)
        grid = [[{k: rng.randint(1, 9) for k in range(6)}
                 for _ in range(6)] for _ in range(6)]
        m = matrix_of(grid, 6)
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, max_terms=2)

    def test_time_limit_is_checked_before_each_cell(self, monkeypatch):
        # a clock that ticks once per reading: the 6x6 elimination computes
        # 5*5 + 4*4 + 3*3 + 2*2 + 1*1 = 55 cells, and the limit is read
        # before each of them
        import thetagib.exact_linalg as el

        rng = random.Random(4)
        grid = [[{k: rng.randint(1, 9) for k in range(6)}
                 for _ in range(6)] for _ in range(6)]
        m = matrix_of(grid, 6)
        readings = []

        def clock():
            readings.append(len(readings))
            return readings[-1]

        monkeypatch.setattr(el, "monotonic", clock)
        # the reads within a product and a division are tested on their own
        # below; without them the clock ticks once per cell
        monkeypatch.setattr(el, "_cross", lambda *args: _cross(*args[:5]))
        monkeypatch.setattr(el, "_div_heap", lambda *args: _div_heap(*args[:3]))
        assert certified_rank(m, timeout=56) == 6
        assert len(readings) == 56  # the start, then one per cell
        readings.clear()
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, timeout=2.5)
        assert len(readings) == 4  # gave up before the third cell
        monkeypatch.undo()
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, timeout=0)

    def test_no_time_limit_reads_no_clock(self, monkeypatch):
        import thetagib.exact_linalg as el

        def clock():
            raise AssertionError("the clock was read without a time limit")

        monkeypatch.setattr(el, "monotonic", clock)
        rng = random.Random(4)
        grid = [[{k: rng.randint(1, 9) for k in range(6)}
                 for _ in range(6)] for _ in range(6)]
        assert certified_rank(matrix_of(grid, 6)) == 6

    def test_time_limit_holds_within_a_row_operation(self):
        # the reduced 17x18 (3,3,3) matrix of this orbit runs far past 1.5 s,
        # and its row operations are long enough that a deadline read only
        # before each of them overshot by up to 2.5 s
        cent = build_centralizer(LabeledPartition.parse("2^0 2^0 2^0 1^2 1^2 1^2"), 3)
        m = ground_field_reduce(build_action_matrix(cent))
        assert (m.rows, m.cols) == (17, 18)
        start = time.monotonic()
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, timeout=1.5)
        assert time.monotonic() - start < 2.25


class TestRankInvariants:
    def test_point_rank_bounded_by_generic_rank(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_matrix(rng)
            cert = certified_rank(m)
            point = [Fraction(rng.randint(-50, 50)) for _ in range(m.num_indeterminates)]
            assert scalar_rank(evaluate(m, point)) <= cert

    def test_probabilistic_below_certified_and_usually_equal(self):
        rng = random.Random(6)
        for trial in range(25):
            m = random_matrix(rng)
            prob = probabilistic_rank(m, seed=trial)
            cert = certified_rank(m)
            assert prob <= cert
            assert prob == cert  # failure odds ~ deg/p, negligible

    def test_rank_invariant_under_permutation_and_scaling(self):
        rng = random.Random(11)
        for _ in range(15):
            m = random_matrix(rng)
            cert = certified_rank(m)
            rows = list(range(m.rows))
            cols = list(range(m.cols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            assert certified_rank(m.permuted(rows, cols)) == cert
            # scale whole rows (a row operation), not individual entries
            factors = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
                       for _ in range(m.rows)]
            scaled = [[{k: c * factors[i] for k, c in row.get(j, {}).items()}
                       for j in range(m.cols)] for i, row in enumerate(m.cells)]
            assert certified_rank(matrix_of(scaled, m.num_indeterminates)) == cert


class TestIntegerRows:
    def test_fraction_row_is_stored_with_denominators_cleared(self):
        # the constructor takes ints only; the test helper clears a row's
        # denominators, as a builder with rational data must
        row = [lf(a1=Fraction(1, 2)), lf(a2=Fraction(1, 3))]
        m = matrix_of([row], 2)
        assert m.cells == ({0: {0: 3}, 1: {1: 2}},)
        assert all(type(c) is int for e in m.cells[0].values() for c in e.values())
        with pytest.raises(ValueError, match="not a nonzero int"):
            LinearFormMatrix([dict(enumerate(row))], 2, 2)

    def test_action_matrix_coefficients_are_ints(self):
        m = matrix_332_orbit()
        coeffs = [c for row in m.cells for e in row.values() for c in e.values()]
        assert coeffs and all(type(c) is int for c in coeffs)

    def test_large_coefficients_stay_exact(self):
        # the second row minus a third of the first is (0, a1); a float
        # quotient rounds it to zero and merges the rows
        big = 2**60
        m = LinearFormMatrix([{0: lf(a1=3), 1: lf(a1=3 * big)},
                              {0: lf(a1=1), 1: lf(a1=big + 1)}], 1, 2)
        assert ground_field_reduce(m).rows == 2
        assert certified_rank(m) == 2

    def test_negative_indeterminate_index_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            LinearFormMatrix([{0: {-1: 1}, 1: {0: 1}}], 2, 2)

    def test_cols_must_match_the_rows(self):
        with pytest.raises(ValueError, match="column 3 out of range"):
            LinearFormMatrix([{3: {0: 1}}], 1, 3)
        assert LinearFormMatrix([{0: {0: 1}}], 1, 1).cols == 1
        assert LinearFormMatrix([], 1, 3).cols == 3

    @pytest.mark.parametrize("row, message", [
        ({2: {0: 1}}, "column 2 out of range"),
        ({-1: {0: 1}}, "column -1 out of range"),
        ({0: {}}, "zero form"),
        ({0: {0: 0}}, "not a nonzero int"),
        ({0: {0: Fraction(1, 2)}}, "not a nonzero int"),
        ({0: {0: True}}, "not a nonzero int"),
        ({0: {2: 1}}, "indeterminate index 2 out of range"),
    ], ids=["column", "negative-column", "empty-form", "zero", "fraction", "bool",
            "indeterminate"])
    def test_constructor_rejects_a_bad_cell(self, row, message):
        with pytest.raises(ValueError, match=message):
            LinearFormMatrix([{0: {0: 1}}, row], 2, 2)

    def test_zero_coefficients_are_never_stored(self):
        # a stored zero would be a nonzero Bareiss pivot and an independent
        # row to ground_field_reduce: the constructor refuses one (above),
        # and the test helper drops it like the builders do
        m = matrix_of([[{0: 0, 1: 2}, {0: 0}]], 2)
        assert m.cells == ({0: {1: 2}},)
        zero = matrix_of([[{0: 0}]], 1)
        assert zero.cells == ({},)
        assert certified_rank(zero) == 0
        assert probabilistic_rank(zero) == 0
        assert ground_field_reduce(zero).rows == 0

    def test_entries_are_the_dense_grid_of_the_cells(self):
        m = LinearFormMatrix([{1: {0: 2}}, {}], 1, 3)
        assert m.entries == (({}, {0: 2}, {}), ({}, {}, {}))


def packed(terms, s, width):
    # {exponent tuple: coefficient} -> {packed exponent: coefficient}
    return {sum(d << ((s - 1 - k) * width) for k, d in enumerate(e)): c
            for e, c in terms.items() if c}


class TestPackedPolynomials:
    def test_product_division_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            s = rng.randint(1, 3)
            width, guard = _packing(s, 4 * s)

            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    e = tuple(rng.randint(0, 2) for _ in range(s))
                    terms[e] = rng.randint(-4, 4)
                return packed(terms, s, width)

            a, b = rand_poly(), rand_poly()
            if not a or not b:
                continue
            assert _div_heap(_cross(a, b, {}, {}, 10**6), b, guard) == a

    def test_one_term_division_gives_the_heap_result(self):
        # num / (c*x^d) in one pass against (num*h) / (c*x^d*h) through the
        # heap, h of two to four terms, and against the factor it came from
        rng = random.Random(29)
        for _ in range(60):
            s = rng.randint(1, 3)
            width, guard = _packing(s, 8)

            def rand_poly(terms):
                exps = rng.sample(range(3 ** s), min(terms, 3 ** s))
                return packed({tuple(x // 3 ** k % 3 for k in range(s)):
                               rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)) for x in exps},
                              s, width)

            a, d, h = rand_poly(rng.randint(1, 6)), rand_poly(1), rand_poly(rng.randint(2, 4))
            num = _cross(a, d, {}, {}, 10**6)
            dh = _cross(d, h, {}, {}, 10**6)
            assert len(dh) > 1
            got = _div_heap(num, d, guard)
            assert got == a == _div_heap(_cross(num, h, {}, {}, 10**6), dh, guard)
            assert list(got) == [e - next(iter(d)) for e in num]  # in num's order

    @pytest.mark.parametrize("num, den", [
        ({(2, 1): 6, (1, 2): 3}, {(1, 0): 2}),  # (6*a1^2*a2 + 3*a1*a2^2) / (2*a1)
        ({(1, 1): 2, (2, 0): 2}, {(0, 1): 2}),  # (2*a1*a2 + 2*a1^2) / (2*a2)
        ({(1, 1): 4, (0, 2): 4}, {(1, 0): 1}),  # (4*a1*a2 + 4*a2^2) / a1
    ], ids=["coefficient", "lower-field-borrow", "upper-field-borrow"])
    def test_one_term_division_checks_every_term(self, num, den):
        # the first term divides and a later one does not: by a coefficient
        # remainder, or by a field where the divisor's exponent is the
        # larger, whose guard bit the subtraction borrows
        width, guard = _packing(2, 4)
        with pytest.raises(ArithmeticError, match="inexact"):
            _div_heap(packed(num, 2, width), packed(den, 2, width), guard)

    def test_one_term_division_reads_a_passed_deadline(self):
        width, guard = _packing(2, 4)
        d = packed({(1, 0): 3}, 2, width)
        num = packed({(2, 0): 6, (1, 1): -3}, 2, width)
        with pytest.raises(ResourceLimitExceeded, match="time limit"):
            _div_heap(num, d, guard, time.monotonic() - 1)
        assert _div_heap(num, d, guard, time.monotonic() + 3600) == \
            packed({(1, 0): 2, (0, 1): -1}, 2, width)

    def test_product_and_division_read_a_passed_deadline(self):
        width, guard = _packing(2, 4)
        a = packed({(1, 0): 1, (0, 1): 2}, 2, width)
        product = _cross(a, a, {}, {}, 10**6)
        past = time.monotonic() - 1
        with pytest.raises(ResourceLimitExceeded, match="time limit"):
            _cross(a, a, {}, {}, 10**6, past)
        with pytest.raises(ResourceLimitExceeded, match="time limit"):
            _div_heap(product, a, guard, past)
        later = time.monotonic() + 3600
        assert _cross(a, a, {}, {}, 10**6, later) == product
        assert _div_heap(product, a, guard, later) == a

    def test_constant_division(self):
        width, guard = _packing(2, 2)
        p = packed({(1, 0): 6, (0, 1): 4}, 2, width)
        half = _div_heap(p, packed({(0, 0): 2}, 2, width), guard)
        assert half == packed({(1, 0): 3, (0, 1): 2}, 2, width)

    @pytest.mark.parametrize("num, den", [
        ({(0, 1): 1}, {(1, 0): 1}),                   # a2 / a1
        ({(1, 0): 3}, {(0, 0): 2}),                   # 3*a1 / 2
        ({(2, 0): 1, (0, 2): 1}, {(1, 0): 1, (0, 1): 1}),  # (a1^2 + a2^2) / (a1 + a2)
    ], ids=["monomial", "coefficient", "polynomial"])
    def test_inexact_division_raises(self, num, den):
        width, guard = _packing(2, 2)
        with pytest.raises(ArithmeticError):
            _div_heap(packed(num, 2, width), packed(den, 2, width), guard)
