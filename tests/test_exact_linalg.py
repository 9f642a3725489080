"""Exact linear algebra: evaluation, reduction, probabilistic and certified rank."""

import random
from fractions import Fraction

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from helpers import minor_expansion_rank, random_matrix, sympy_field_rank, sympy_generic_rank
from thetagib import (
    LabeledPartition,
    LinearForm,
    LinearFormMatrix,
    ResourceLimitExceeded,
    build_action_matrix,
    build_centralizer,
    certified_rank,
    ground_field_reduce,
    probabilistic_rank,
    scalar_rank,
)
from thetagib.exact_linalg import EVAL_PRIME, _cross, _div_heap, _packing, rank_at_point_mod


def lf(**kw):
    # lf(a1=2, a2=3) -> 2*a1 + 3*a2 (names are 1-based, storage 0-based)
    return LinearForm({int(k[1:]) - 1: v for k, v in kw.items()})


def matrix_332_orbit():
    # the (5,3)-block orbit of the order-3 grading with r=(3,3,2)
    cent = build_centralizer(LabeledPartition(((5, 0), (3, 1))), 3)
    return build_action_matrix(cent)


class TestEvaluate:
    def test_single_entry(self):
        m = LinearFormMatrix([[lf(a1=2, a2=3)]], 2)
        assert m.evaluate([1, 1]) == [[5]]
        assert m.evaluate([Fraction(1, 2), 0]) == [[1]]

    def test_zero_point_kills_every_entry(self):
        m = matrix_332_orbit()
        values = m.evaluate([0] * m.num_indeterminates)
        assert all(v == 0 for row in values for v in row)

    def test_dimension_mismatch(self):
        m = LinearFormMatrix([[lf(a1=1)]], 1)
        with pytest.raises(ValueError):
            m.evaluate([1, 2])

    def test_332_matrix_has_rank_one_at_random_points(self):
        # oracle: plain rational row reduction at 10 seeded points
        m = matrix_332_orbit()
        assert (m.rows, m.cols) == (5, 4)
        rng = random.Random(332)
        for _ in range(10):
            point = [Fraction(rng.randint(1, 10**6)) for _ in range(m.num_indeterminates)]
            assert scalar_rank(m.evaluate(point)) == 1


class TestProbabilisticRank:
    def test_zero_matrix(self):
        m = LinearFormMatrix([[LinearForm(), LinearForm()]], 2)
        assert probabilistic_rank(m, 5, seed=1) == 0

    def test_single_nonzero_form(self):
        m = LinearFormMatrix([[lf(a1=1)]], 1)
        assert probabilistic_rank(m, 3, seed=0) == 1

    def test_nilp_ex_matrix_rank_two(self):
        # 6x6 matrix of the (5,3,1) orbit at r=(3,3,3); its exact generic
        # rank is 2: the nilpotent part of the stabilizer acts trivially and
        # the three torus rows sum to zero.
        cent = build_centralizer(LabeledPartition(((5, 0), (3, 1), (1, 2))), 3)
        m = build_action_matrix(cent)
        assert (m.rows, m.cols) == (6, 6)
        assert probabilistic_rank(m, 3, seed=0) == 2
        assert certified_rank(m) == 2

    def test_trials_must_be_positive(self):
        m = LinearFormMatrix([[lf(a1=1)]], 1)
        with pytest.raises(ValueError):
            probabilistic_rank(m, 0)

    def test_matches_scalar_rank_at_fixed_point(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_matrix(rng)
            point = [rng.randint(0, 10**6) for _ in range(m.num_indeterminates)]
            assert rank_at_point_mod(m, point) == scalar_rank(m.evaluate(point))

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
            m = LinearFormMatrix([[LinearForm({0: v}) for v in row] for row in vals], 1)
            expected = DomainMatrix([[field(v) for v in row] for row in vals],
                                    (nr, nc), field).rank()
            assert rank_at_point_mod(m, [1]) == expected

    def test_point_rank_loses_rank_divisible_by_prime(self):
        m = LinearFormMatrix([[lf(a1=1), LinearForm()],
                              [LinearForm(), lf(a1=EVAL_PRIME)]], 1)
        assert rank_at_point_mod(m, [1]) == 1
        assert certified_rank(m) == 2


class TestGroundFieldReduce:
    def test_identical_rows_merge(self):
        row = [lf(a1=1, a2=2), lf(a2=1)]
        m = LinearFormMatrix([row, list(row)], 2)
        red = ground_field_reduce(m)
        assert red.rows == 1
        assert red.entries[0] == tuple(row)

    def test_proportional_rows_merge(self):
        m = LinearFormMatrix([[lf(a1=1), LinearForm()],
                              [lf(a1=2), LinearForm()]], 1)
        red = ground_field_reduce(m)
        assert (red.rows, red.cols) == (1, 1)
        assert red.entries[0][0] == lf(a1=1)

    def test_2221_orbit_reduces_to_two_rows(self):
        # the (3,3,1) orbit of r=(2,2,2,1): two nilpotent stabilizer rows are
        # zero and the three torus rows sum to zero (the center acts
        # trivially), so a Q-basis of the row space has 2 elements.
        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        m = build_action_matrix(cent)
        assert m.rows == 5
        nonzero_rows = [row for row in m.entries if any(row)]
        assert len(nonzero_rows) == 3  # torus only
        total = nonzero_rows[0]
        for row in nonzero_rows[1:]:
            total = tuple(a + b for a, b in zip(total, row))
        assert all(e.is_zero() for e in total)
        red = ground_field_reduce(m)
        assert red.rows == 2
        assert red.cols == 4

    def test_generic_rank_preserved(self):
        rng = random.Random(21)
        for _ in range(30):
            m = random_matrix(rng)
            assert certified_rank(ground_field_reduce(m)) == certified_rank(m)


class TestCertifiedRank:
    def test_full_rank_two_by_two(self):
        m = LinearFormMatrix([[lf(a1=1), lf(a2=1)],
                              [lf(a2=1), lf(a1=1)]], 2)
        assert certified_rank(m) == 2  # det a1^2 - a2^2 != 0

    def test_proportional_rows(self):
        m = LinearFormMatrix([[lf(a1=1), lf(a2=1)],
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
        # divided by, carry several terms; an odd skew-symmetric matrix has
        # a rank drop that no Q-reduction of its rows or columns finds
        import thetagib.exact_linalg as el

        divisor_terms = []

        def recording_div(num, divisor, guard):
            divisor_terms.append(len(divisor))
            return _div_heap(num, divisor, guard)

        monkeypatch.setattr(el, "_div_heap", recording_div)
        rng = random.Random(77)
        cases = []
        while len(cases) < 8:
            m = random_matrix(rng, max_rows=7, max_cols=7, max_vars=3)
            if m.num_indeterminates >= 2 and min(m.rows, m.cols) >= 5:
                cases.append(m)
        for n in (5, 7):
            s = rng.randint(2, 3)
            upper = {(i, j): LinearForm({k: rng.randint(-3, 3) for k in range(s)})
                     for i in range(n) for j in range(i + 1, n)}
            cases.append(LinearFormMatrix(
                [[upper[i, j] if i < j else -upper[j, i] if i > j else LinearForm()
                  for j in range(n)] for i in range(n)], s))
        for m in cases:
            assert certified_rank(m) == sympy_field_rank(m)
        assert cases[-1].rows == 7 and certified_rank(cases[-1]) <= 6
        assert max(divisor_terms) > 1

    def test_full_rank_at_the_field_width_bound(self):
        # a1*I_12 with a1 added off the diagonal of the first row: with one
        # indeterminate the exponents climb to 22, near the bound
        # 2*min(rows, cols) = 24 that sets the packed field width, and past
        # what a field one bit narrower holds
        n = 12
        grid = [[lf(a1=1) if i == j or i == 0 else LinearForm() for j in range(n)]
                for i in range(n)]
        assert certified_rank(LinearFormMatrix(grid, 1)) == n

    def test_resource_limit_is_catchable(self):
        rng = random.Random(4)
        grid = [[LinearForm({k: rng.randint(1, 9) for k in range(6)})
                 for _ in range(6)] for _ in range(6)]
        m = LinearFormMatrix(grid, 6)
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, max_terms=2)

    def test_time_limit_is_checked_before_each_row_operation(self, monkeypatch):
        # a clock that ticks once per reading: the 6x6 elimination makes
        # 5 + 4 + 3 + 2 + 1 = 15 row operations, and the limit is read
        # before each of them
        import thetagib.exact_linalg as el

        rng = random.Random(4)
        grid = [[LinearForm({k: rng.randint(1, 9) for k in range(6)})
                 for _ in range(6)] for _ in range(6)]
        m = LinearFormMatrix(grid, 6)
        readings = []

        def clock():
            readings.append(len(readings))
            return readings[-1]

        monkeypatch.setattr(el, "monotonic", clock)
        assert certified_rank(m, timeout=16) == 6
        assert len(readings) == 16  # the start, then one per row operation
        readings.clear()
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, timeout=2.5)
        assert len(readings) == 4  # gave up before the third row operation
        monkeypatch.undo()
        with pytest.raises(ResourceLimitExceeded):
            certified_rank(m, timeout=0)


class TestRankInvariants:
    def test_point_rank_bounded_by_generic_rank(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_matrix(rng)
            cert = certified_rank(m)
            point = [Fraction(rng.randint(-50, 50)) for _ in range(m.num_indeterminates)]
            assert scalar_rank(m.evaluate(point)) <= cert

    def test_probabilistic_below_certified_and_usually_equal(self):
        rng = random.Random(6)
        for trial in range(25):
            m = random_matrix(rng)
            prob = probabilistic_rank(m, 3, seed=trial)
            cert = certified_rank(m)
            assert prob <= cert
            assert prob == cert  # failure odds ~ (deg/p)^3, negligible

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
            scaled = [[e.scaled(factors[i]) for e in row]
                      for i, row in enumerate(m.entries)]
            assert certified_rank(LinearFormMatrix(scaled, m.num_indeterminates)) == cert


class TestIntegerRows:
    def test_fraction_row_is_stored_with_denominators_cleared(self):
        m = LinearFormMatrix([[lf(a1=Fraction(1, 2)), lf(a2=Fraction(1, 3))]], 2)
        assert [e.coeffs for e in m.entries[0]] == [{0: 3}, {1: 2}]
        assert all(type(c) is int for e in m.entries[0] for c in e.coeffs.values())

    def test_action_matrix_coefficients_are_ints(self):
        m = matrix_332_orbit()
        coeffs = [c for row in m.entries for e in row for c in e.coeffs.values()]
        assert coeffs and all(type(c) is int for c in coeffs)

    def test_large_coefficients_stay_exact(self):
        # the second row minus a third of the first is (0, a1); a float
        # quotient rounds it to zero and merges the rows
        big = 2**60
        m = LinearFormMatrix([[lf(a1=3), lf(a1=3 * big)],
                              [lf(a1=1), lf(a1=big + 1)]], 1)
        assert ground_field_reduce(m).rows == 2
        assert certified_rank(m) == 2

    def test_negative_indeterminate_index_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            LinearFormMatrix([[LinearForm({-1: 1}), LinearForm({0: 1})]], 2)


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
