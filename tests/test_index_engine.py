"""Action matrices, index computation, and the generic document interface."""

import json
import random
from enum import IntEnum
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    SKEW_DOCUMENT,
    cached_check_rep,
    dense_certified_rank,
    evaluate,
    fraction_ground_field_reduce,
    fraction_parse,
    positive_rank_reps,
    scalar_rank,
    scale_rows,
)
from thetagib import (
    GenericActionError,
    LabeledPartition,
    LinearFormMatrix,
    ThetaRep,
    build_action_matrix,
    build_centralizer,
    certified_rank,
    check_orbit,
    export_action,
    index_of_matrix,
    parse_action_document,
)
import thetagib.exact_linalg as el
from thetagib.exact_linalg import (
    DEFAULT_TERM_LIMIT,
    ResourceLimitExceeded,
    ground_field_reduce,
    probabilistic_rank,
)
from thetagib.index_engine import (
    DECIDED_BY_BOUND_MATCH,
    DECIDED_BY_CERTIFIED_RANK,
    DECIDED_BY_REDUCED_SHAPE,
    SLICE_FIRST_TERMS,
    SLICE_POINT_RANGE,
    UNDECIDED,
    prove_indices,
    slice_rank,
    transversal_slice,
)
from thetagib.orbits import all_nilpotent_orbits, zero_orbit


def _late_defects():
    """(bracket, message) pairs for one bad bracket in a 2 x 2 document."""
    valid = [1, 1, 0, -3, 4]
    cases = [(tuple(valid), "expected [i, j, k, num, den]"),
             (valid[:4], "expected [i, j, k, num, den]"),
             (valid + [1], "expected [i, j, k, num, den]"),
             ("01234", "expected [i, j, k, num, den]")]
    for pos, name in enumerate(("i", "j", "k", "num", "den")):
        for bad in (True, False, 1.0, "1", None):
            item = list(valid)
            item[pos] = bad
            cases.append((item, f"{name} must be an integer"))
    return cases + [
        ([2, 0, 0, 1, 1], "i=2 out of range (dim_q=2)"),
        ([-1, 0, 0, 1, 1], "i=-1 out of range (dim_q=2)"),
        ([0, 2, 0, 1, 1], "j=2, k=0 out of range (dim_v=2)"),
        ([0, 0, 2, 1, 1], "j=0, k=2 out of range (dim_v=2)"),
        ([0, -1, 0, 1, 1], "j=-1, k=0 out of range (dim_v=2)"),
        ([0, 0, 0, 1, 0], "zero denominator"),
        ([0, 0, 0, 0, 0], "zero denominator"),
        # within one bracket the checks keep their order
        ([0, 0, 0, 1.5, 0], "num must be an integer"),
        ([0, True, 0, 1, 0], "j must be an integer"),
        ([5, 5, 5, 1, 0], "i=5 out of range (dim_q=2)"),
        ([0, 5, 0, 1, 0], "j=5, k=0 out of range (dim_v=2)"),
    ]


class TestBuildActionMatrix:
    def test_nilp_ex_shape(self):
        cent = build_centralizer(LabeledPartition(((5, 0), (3, 1), (1, 2))), 3)
        m = build_action_matrix(cent)
        assert (m.rows, m.cols, m.num_indeterminates) == (6, 6, 6)

    def test_2221_nilpotent_rows_are_zero(self):
        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        m = build_action_matrix(cent)
        acting = cent.by_degree[0]
        for i, x in enumerate(acting):
            if x.i != x.j:
                assert not m.cells[i]

    def test_torus_zero_orbit_incidence(self):
        # all multiplicities 1: each degree-0 element hits exactly two of the
        # m module elements, with weights +1 and -1
        for m_order in (2, 3, 4, 5):
            rep = ThetaRep(m_order, (1,) * m_order)
            cent = build_centralizer(zero_orbit(rep), m_order)
            mat = build_action_matrix(cent)
            assert (mat.rows, mat.cols) == (m_order, m_order)
            for row in mat.cells:
                coeffs = sorted(c for e in row.values() for c in e.values())
                assert coeffs == [-1, 1]


class TestComputeIndex:
    def test_ex_332_certified_index_three(self):
        cent = build_centralizer(LabeledPartition(((5, 0), (3, 1))), 3)
        res = index_of_matrix(build_action_matrix(cent), force_certify=True)
        assert res.certified and res.cert_rank == 1
        assert res.index == 4 - 1 == 3
        assert res.index > ThetaRep.of(3, 3, 2).rank() == 2

    def test_ex_333_certified_index_four(self):
        cent = build_centralizer(LabeledPartition(((5, 0), (3, 1), (1, 2))), 3)
        res = index_of_matrix(build_action_matrix(cent), force_certify=True)
        assert res.cert_rank == 2
        assert res.index == 6 - 2 == 4

    def test_zero_orbit_index_equals_rank(self):
        # the stabilizer of 0 is the whole degree-0 algebra; its index on the
        # degree -1 piece is the rank, checked here against a brute-force
        # rank of the weight matrix at a rational point
        rng = random.Random(3)
        for r in [(2, 2, 2, 2), (3, 3, 3), (1, 2, 1), (2, 4)]:
            rep = ThetaRep.of(*r)
            cent = build_centralizer(zero_orbit(rep), rep.m)
            mat = build_action_matrix(cent)
            res = index_of_matrix(mat)
            assert res.index == rep.rank(), rep
            point = [rng.randint(1, 10**9) for _ in range(mat.num_indeterminates)]
            assert scalar_rank(evaluate(mat, point)) == mat.cols - rep.rank()

    def test_index_lower_bound_and_max_orbit_equality(self):
        # every orbit's index is at least the rank; the densest orbit attains it
        for rep in positive_rank_reps(7, 4):
            dims = []
            for part in all_nilpotent_orbits(rep):
                cent = build_centralizer(part, rep.m)
                res = index_of_matrix(build_action_matrix(cent))
                assert res.index >= rep.rank(), (rep, part)
                dim_orbit = sum(x * x for x in rep.r) - len(cent.by_degree[0])
                dims.append((dim_orbit, res.index))
            top = max(dims)[0]
            for dim_orbit, index in dims:
                if dim_orbit == top:
                    assert index == rep.rank(), rep

    def test_prob_rank_bounded_by_cert_rank_on_orbit_corpus(self):
        for r in [(3, 3, 2), (2, 2, 2, 1), (1, 2, 1, 2), (2, 2, 2)]:
            rep = ThetaRep.of(*r)
            for part in all_nilpotent_orbits(rep):
                if part.is_zero_orbit and rep.r == (3, 3, 2):
                    continue  # symbolic elimination blows up; covered elsewhere
                mat = build_action_matrix(build_centralizer(part, rep.m))
                res = index_of_matrix(mat, force_certify=True)
                assert res.prob_rank <= res.cert_rank
                assert res.prob_rank == res.cert_rank

    def test_index_invariant_under_basis_permutation(self):
        rng = random.Random(17)
        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        mat = build_action_matrix(cent)
        base = certified_rank(mat)
        for _ in range(5):
            rows = list(range(mat.rows))
            cols = list(range(mat.cols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            assert certified_rank(mat.permuted(rows, cols)) == base


#: The four orbits of the benchmark's certify workload.
CERTIFY_ORBITS = [
    ((4, 4, 5), "4^2 2^1 2^2 1^0 1^0 1^1 1^1 1^2"),
    ((5, 5, 5), "4^0 4^0 2^1 2^1 2^2 1^1"),
    ((5, 5, 5), "4^0 4^0 3^2 2^1 1^1 1^2"),
    ((4, 4, 5), "4^2 4^2 1^0 1^0 1^1 1^1 1^2"),
]


def _leftmost_pivots(rows, s):
    """The k, in order, of each column of ``rows`` outside the Q-span of the columns before it."""
    basis = []  # (pivot, column): each column is zero at the pivots before its own
    pivots = []
    for k in range(s):
        v = [Fraction(row[k]) for row in rows]
        for pivot, b in basis:
            if v[pivot]:
                f = v[pivot] / b[pivot]
                v = [x - f * y for x, y in zip(v, b)]
        if any(v):
            basis.append((next(i for i, x in enumerate(v) if x), v))
            pivots.append(k)
    return pivots


def _orbit_matrices(r, orbit):
    m = build_action_matrix(build_centralizer(LabeledPartition.parse(orbit), len(r)))
    return m, ground_field_reduce(m)


def _substituted(matrix, point, complement):
    """``matrix`` with a_k -> b_t for the t-th k of ``complement`` and
    a_k -> point[k] * b_0 otherwise, b_0 numbered 0; zero forms dropped."""
    var = {k: t for t, k in enumerate(complement, 1)}
    cells = []
    for row in matrix.cells:
        out = {}
        for j, e in row.items():
            form = {}
            for k, c in e.items():
                t = var.get(k, 0)
                form[t] = form.get(t, 0) + (c if t else c * point[k])
            if any(form.values()):
                out[j] = {t: c for t, c in form.items() if c}
        cells.append(out)
    return LinearFormMatrix(cells, len(complement) + 1, matrix.cols)


def _slice_cases(r, rng):
    """(label, matrix, reduced, base point) for every orbit of r at a point
    drawn from ``rng``, or for "certify" the ``CERTIFY_ORBITS`` at the first
    three base points that ``slice_rank`` draws."""
    if r == "certify":
        for grading, orbit in CERTIFY_ORBITS:
            m, reduced = _orbit_matrices(grading, orbit)
            for attempt in range(3):
                draw = random.Random(attempt)
                yield ((orbit, attempt), m, reduced,
                       [draw.randint(-SLICE_POINT_RANGE, SLICE_POINT_RANGE)
                        for _ in range(m.cols)])
        return
    for part in all_nilpotent_orbits(ThetaRep.of(*r)):
        m, reduced = _orbit_matrices(r, part.to_text())
        yield part, m, reduced, [rng.randint(-2, 2) for _ in range(m.cols)]


class TestTransversalSlice:
    @pytest.mark.parametrize("r, orbit", CERTIFY_ORBITS)
    def test_slice_and_plain_ranks_agree(self, r, orbit):
        m, reduced = _orbit_matrices(r, orbit)
        assert slice_rank(m, 10**6, None) == certified_rank(reduced)

    def test_slice_has_index_plus_one_indeterminates(self):
        m, _ = _orbit_matrices(*CERTIFY_ORBITS[0])
        rng = random.Random(0)
        sliced = transversal_slice(m, [rng.randint(-2, 2) for _ in range(m.cols)])
        assert m.cols == 25 and sliced.num_indeterminates == 25 - 20 + 1
        assert (sliced.rows, sliced.cols) == (m.rows, m.cols)

    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 2, 2, 2), "certify"])
    def test_slice_is_the_action_matrix_on_the_slice(self, r):
        # J is the complement of the leftmost pivot columns of the rows at
        # the point, found by rational elimination; b = (b_0, b_J) stands
        # for the point a with a_k = b_t for the t-th k of J and
        # a_k = point[k] * b_0 otherwise.  Bareiss sees the reduced slice,
        # which must be the reduced matrix sliced that way and reduced again
        rng = random.Random(sum(r) if r != "certify" else 0)
        for label, m, reduced, point in _slice_cases(r, rng):
            s = m.cols
            pivots = set(_leftmost_pivots(evaluate(m, point), s))
            complement = [k for k in range(s) if k not in pivots]
            sliced = transversal_slice(m, point)
            assert sliced.num_indeterminates == len(complement) + 1, label
            assert all(c for row in sliced.cells for e in row.values() for c in e.values())
            at_point = evaluate(m, point)
            assert evaluate(sliced, [1] + [point[k] for k in complement]) == at_point, label
            b = [rng.randint(-50, 50) for _ in range(len(complement) + 1)]
            a = [point[k] * b[0] for k in range(s)]
            for t, k in enumerate(complement, 1):
                a[k] = b[t]
            assert evaluate(sliced, b) == evaluate(m, a), label
            grid = ground_field_reduce(sliced)
            expected = ground_field_reduce(_substituted(reduced, point, complement))
            assert (grid.rows, grid.cols, grid.num_indeterminates) == \
                (expected.rows, expected.cols, expected.num_indeterminates), label
            assert grid.cells == expected.cells, label

    def test_incomplete_complement_is_refused(self, monkeypatch):
        # a non-pivot column reported as a pivot drops its unit vector from
        # the complement and leaves the span short of Q^s; the slice must
        # notice it by its own check and refuse
        import thetagib.index_engine as ie

        def one_too_many(matrix, point, ceiling=None):
            pivots = picked(matrix, point, ceiling)
            return pivots + [min(set(range(matrix.cols)).difference(pivots))]

        picked = ie.pivot_columns_mod
        monkeypatch.setattr(ie, "pivot_columns_mod", one_too_many)
        rep = ThetaRep.of(3, 3, 3)
        orbit = LabeledPartition.parse("2^0 2^0 2^0 1^2 1^2 1^2")
        m, _ = _orbit_matrices((3, 3, 3), orbit.to_text())
        with pytest.raises(ValueError, match="complete"):
            transversal_slice(m, [1] * m.cols)
        with pytest.raises(ValueError, match="complete"):
            check_orbit(rep, orbit, force_certify=True)

    def test_rank_below_the_probabilistic_rank_is_never_reported(self, monkeypatch):
        import thetagib.index_engine as ie

        monkeypatch.setattr(ie, "certified_rank", lambda m, *a: 0)
        rep = ThetaRep.of(3, 3, 3)
        with pytest.raises(RuntimeError, match="below the probabilistic rank"):
            check_orbit(rep, LabeledPartition.parse("5^0 3^1 1^2"), force_certify=True)

    def test_attempts_double_their_budget_under_one_deadline(self, monkeypatch):
        import thetagib.index_engine as ie

        calls = []

        def blown(matrix, max_terms, timeout, lower):
            calls.append((matrix.num_indeterminates, max_terms, timeout, lower))
            raise ResourceLimitExceeded("blown")

        monkeypatch.setattr(ie, "certified_rank", blown)
        m, _ = _orbit_matrices(*CERTIFY_ORBITS[0])
        with pytest.raises(ResourceLimitExceeded):
            slice_rank(m, 1000, 60.0)
        assert [terms for _, terms, _, _ in calls] == [256, 512, 1000]
        left = [timeout for _, _, timeout, _ in calls]
        assert 60.0 >= left[0] > left[1] > left[2] > 0  # one deadline, read per attempt
        assert all(s < m.cols for s, _, _, _ in calls)  # every attempt is on a slice
        # each attempt's lower bound is the F_p rank at its base point
        for attempt, (_, _, _, lower) in enumerate(calls):
            draw = random.Random(attempt)
            point = [draw.randint(-SLICE_POINT_RANGE, SLICE_POINT_RANGE) for _ in range(m.cols)]
            assert lower == el.rank_at_point_mod(m, point)

    def test_documents_certify_over_all_indeterminates(self, monkeypatch):
        # a document need not come from a group action, so index_of_matrix
        # (and index-file) must not certify on a slice
        import thetagib.index_engine as ie

        seen = []

        def recorded(matrix, *a):
            seen.append(matrix.num_indeterminates)
            return certify(matrix, *a)

        certify = ie.certified_rank
        monkeypatch.setattr(ie, "certified_rank", recorded)
        m, _ = _orbit_matrices((3, 3, 3), "5^0 3^1 1^2")
        assert index_of_matrix(m, force_certify=True).index == 4
        assert seen == [m.cols]


def _items(matrix):
    """The cells of ``matrix`` as nested item lists, so that key order counts."""
    return [[(j, list(e.items())) for j, e in row.items()] for row in matrix.cells]


class TestCertificationOracles:
    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 2, 2, 2), "certify"])
    def test_reduction_equals_the_rational_oracle(self, r):
        # every orbit matrix and its slice reduce in integers to the cells,
        # in the same order, that the Fraction elimination keeps
        rng = random.Random(sum(r) if r != "certify" else 0)
        for label, m, _, point in _slice_cases(r, rng):
            for matrix in (m, transversal_slice(m, point)):
                got, want = ground_field_reduce(matrix), fraction_ground_field_reduce(matrix)
                assert (got.rows, got.cols, got.num_indeterminates) == \
                    (want.rows, want.cols, want.num_indeterminates), label
                assert _items(got) == _items(want), label

    def test_sparse_bareiss_makes_the_dense_calls(self, monkeypatch):
        # on the certify slices at the first three base points, under the
        # term budgets slice_rank gives them, the sparse rows see the same
        # products, in the same order, as the dense grid, and end the same
        calls = []

        def recorded(a, piv, left, b, cap, *rest):
            calls.append((a, piv, left, b, cap))
            return cross(a, piv, left, b, cap, *rest)

        cross = el._cross
        monkeypatch.setattr(el, "_cross", recorded)

        def run(rank, matrix, budget):
            calls.clear()
            try:
                outcome = rank(matrix, budget)
            except ResourceLimitExceeded:
                outcome = None
            return outcome, list(calls)

        ranks = []
        for label, m, _, point in _slice_cases("certify", None):
            sliced = transversal_slice(m, point)
            budget = SLICE_FIRST_TERMS << label[1]
            sparse = run(certified_rank, sliced, budget)
            dense = run(dense_certified_rank, sliced, budget)
            assert sparse[0] == dense[0], label
            assert sparse[1] == dense[1], label
            ranks.append(sparse[0])
        assert ranks.count(None) < len(ranks)

    def test_pinned_slice_certifies_without_bareiss(self, monkeypatch):
        # the first slice of 4^2 2^1 2^2 1^0 1^0 1^1 1^1 1^2 reduces to
        # 20x24, and 20 is the F_p rank at its base point: the shape pins
        # the rank.  The slices of the next orbit are not pinned
        def refused(*a, **k):
            raise AssertionError("Bareiss ran")

        m, _ = _orbit_matrices(*CERTIFY_ORBITS[0])
        draw = random.Random(0)
        point = [draw.randint(-SLICE_POINT_RANGE, SLICE_POINT_RANGE) for _ in range(m.cols)]
        reduced = ground_field_reduce(transversal_slice(m, point))
        assert (reduced.rows, reduced.cols) == (20, 24)
        monkeypatch.setattr(el, "_bareiss_rank", refused)
        assert slice_rank(m, DEFAULT_TERM_LIMIT, None) == 20
        m, _ = _orbit_matrices(*CERTIFY_ORBITS[1])
        with pytest.raises(AssertionError, match="Bareiss ran"):
            slice_rank(m, DEFAULT_TERM_LIMIT, None)


def _queue_problems():
    """Four (matrix, target) pairs whose certify order differs from their order.

    The skew form and its permutation are undecided with 3 x 3 reductions;
    9^0 of (3,3,3) is a bound match of 3 x 3 that reduces to 0 x 0; and
    5^0 3^1 1^2 is pinned by its 2 x 4 reduction.
    """
    skew, _, _ = parse_action_document(SKEW_DOCUMENT)
    orbit = {text: build_action_matrix(build_centralizer(LabeledPartition.parse(text), 3))
             for text in ("9^0", "5^0 3^1 1^2")}
    return [(skew, None), (orbit["9^0"], 3), (orbit["5^0 3^1 1^2"], 3),
            (skew.permuted([2, 0, 1], [1, 2, 0]), None)]


class TestProveIndices:
    @staticmethod
    def record(monkeypatch):
        import thetagib.index_engine as ie

        seen = []

        def recorded(matrix, *a):
            seen.append((matrix.rows, matrix.cols, matrix.cells))
            return certify(matrix, *a)

        certify = ie.certified_rank
        monkeypatch.setattr(ie, "certified_rank", recorded)
        return seen

    @staticmethod
    def prove(problems, **kw):
        budget = dict(seed=0, certify_all=False, max_terms=DEFAULT_TERM_LIMIT,
                      cert_timeout=None)
        return prove_indices(problems, **{**budget, **kw})

    def test_smallest_reduced_matrix_first_ties_in_given_order(self, monkeypatch):
        # a bound match is sized by its unreduced 3 x 3 matrix, so it ties
        # with the skew forms instead of going first with its 0 x 0 reduction
        problems = _queue_problems()
        seen = self.record(monkeypatch)
        self.prove(problems, certify_all=True)
        # each problem's own matrix reaches certified_rank, never its reduction
        assert [next(i for i, (m, _) in enumerate(problems) if m.cells is cells)
                for _, _, cells in seen] == [2, 0, 1, 3]

    def test_every_queued_problem_is_attempted_a_blown_one_too(self, monkeypatch):
        problems = [_queue_problems()[i] for i in (0, 3)]
        seen = self.record(monkeypatch)
        results = self.prove(problems, max_terms=0)
        assert len(seen) == 2
        assert [r.decided_by for r in results] == [UNDECIDED, UNDECIDED]

    def test_bad_budget_is_rejected_before_the_cheap_pass(self, monkeypatch):
        import thetagib.index_engine as ie

        def unreachable(*a, **k):
            raise AssertionError("the cheap pass ran")

        monkeypatch.setattr(ie, "probabilistic_rank", unreachable)
        skew = _queue_problems()[0]
        for budget, message in [({"max_terms": -1}, "max_terms must be >= 0, got -1"),
                                ({"cert_timeout": -5}, "cert_timeout must be >= 0, got -5")]:
            with pytest.raises(ValueError, match=message):
                self.prove([skew] * 3, **budget)


class TestGenericDocuments:
    def test_trivial_one_by_one(self):
        mat, declared, _ = parse_action_document(
            {"dim_q": 1, "dim_v": 1, "brackets": [], "rank": 1})
        res = index_of_matrix(mat)
        assert res.index == 1
        assert declared == 1
        assert res.index == declared

    def test_bare_rank_is_no_bound(self):
        # a skew form of rank 2: its probabilistic index 1 equals the bare
        # rank, and its reduced 3x3 shape does not pin it, so only Bareiss
        # proves it
        mat, declared, bound = parse_action_document(SKEW_DOCUMENT)
        assert (declared, bound) == (1, None)
        res = index_of_matrix(mat, declared=declared)
        assert (res.index, res.decided_by) == (1, DECIDED_BY_CERTIFIED_RANK)
        res = index_of_matrix(mat, declared=declared, max_terms=0)
        assert (res.index, res.decided_by) == (1, UNDECIDED)
        # the same number as a proven bound is a match after one trial
        res = index_of_matrix(mat, target=declared)
        assert (res.index, res.decided_by) == (1, DECIDED_BY_BOUND_MATCH)

    def test_bare_document_gets_only_the_cheap_pass(self, monkeypatch):
        # with neither a bound nor a claimed rank there is nothing to decide,
        # so the undecided upper bound is reported without a Bareiss run;
        # force_certify runs it
        import thetagib.index_engine as ie

        doc = {k: v for k, v in SKEW_DOCUMENT.items() if k != "rank"}
        mat, declared, bound = parse_action_document(doc)
        assert (declared, bound) == (None, None)
        certify = ie.certified_rank

        def refused(*a):
            raise AssertionError("a bare document was certified")

        monkeypatch.setattr(ie, "certified_rank", refused)
        res = index_of_matrix(mat)
        assert (res.index, res.decided_by, res.cert_rank) == (1, UNDECIDED, None)
        monkeypatch.setattr(ie, "certified_rank", certify)
        res = index_of_matrix(mat, force_certify=True)
        assert (res.index, res.decided_by, res.cert_rank) == (1, DECIDED_BY_CERTIFIED_RANK, 2)

    def test_full_rank_torus_weights(self):
        doc = {"dim_q": 3, "dim_v": 3,
               "brackets": [[0, 0, 0, 1, 1], [1, 1, 1, 2, 1], [2, 2, 2, -3, 1]],
               "rank": 0}
        mat, declared, _ = parse_action_document(doc)
        res = index_of_matrix(mat, force_certify=True)
        assert res.index == 0 == declared

    def test_blown_certification_keeps_the_shape_proof(self):
        doc = {"dim_q": 3, "dim_v": 3,
               "brackets": [[0, 0, 0, 1, 1], [1, 1, 1, 2, 1], [2, 2, 2, -3, 1]]}
        mat, _, _ = parse_action_document(doc)
        res = index_of_matrix(mat, force_certify=True, max_terms=0)
        assert res.decided_by == DECIDED_BY_REDUCED_SHAPE
        assert res.certified and res.cert_rank == 3 and res.index == 0

    def test_export_recheck_round_trip(self):
        # the named bad orbit of (2,2,2,1): exported document must reproduce
        # the orbit verdict (index 2 over declared rank 1)
        rep = ThetaRep.of(2, 2, 2, 1)
        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        doc = export_action(cent, declared_rank=rep.rank())
        doc = json.loads(json.dumps(doc))  # through the wire format
        mat, declared, _ = parse_action_document(doc)
        res = index_of_matrix(mat, force_certify=True)
        assert declared == 1
        assert res.index == 2
        assert res.index != declared

    def test_export_is_unchanged(self):
        cent = build_centralizer(LabeledPartition.parse("3^0 3^2 1^1"), 3)
        assert export_action(cent, declared_rank=1) == {
            "dim_q": 6, "dim_v": 5, "rank": 1, "index_lower_bound": 2,
            "brackets": [[0, 1, 1, -1, 1], [0, 2, 2, 1, 1], [1, 2, 0, -1, 1],
                         [1, 2, 3, 1, 1], [2, 1, 0, 1, 1], [2, 1, 3, -1, 1],
                         [3, 1, 1, 1, 1], [3, 2, 2, -1, 1], [3, 4, 4, -1, 1],
                         [4, 4, 3, 1, 1], [5, 4, 4, 1, 1]],
        }

    def test_export_recheck_whole_rep(self):
        rep = ThetaRep.of(3, 3, 2)
        report = cached_check_rep(rep.r)
        by_orbit = {v.orbit: v for v in report.verdicts}
        for part in all_nilpotent_orbits(rep):
            if part.is_zero_orbit:
                continue
            cent = build_centralizer(part, rep.m)
            mat, declared, _ = parse_action_document(
                export_action(cent, declared_rank=rep.rank()))
            res = index_of_matrix(mat, force_certify=True)
            assert (res.index == declared) == (by_orbit[part].gib is True), part

    def test_fractional_coefficients_survive(self):
        doc = {"dim_q": 2, "dim_v": 2,
               "brackets": [[0, 0, 0, 1, 2], [0, 0, 0, 1, 2], [1, 1, 1, 1, 3]]}
        mat, _, _ = parse_action_document(doc)
        # repeated (i, j, k) entries accumulate: 1/2 + 1/2 = 1
        assert mat.cells[0] == {0: {0: 1}}
        assert mat.cells[1] == {1: {1: 1}}  # 1/3*a2, its row scaled by 3

    def test_parsed_rows_have_integer_coefficients(self):
        # row 0 is (1/2 + 1/2)*a1, a2: without accumulation it would be
        # stored as a1, 2*a2
        doc = {"dim_q": 2, "dim_v": 2,
               "brackets": [[0, 0, 0, 1, 2], [0, 0, 0, 1, 2], [0, 1, 1, 1, 1],
                            [1, 0, 1, 2, 3], [1, 1, 0, -5, 6]]}
        mat, _, _ = parse_action_document(doc)
        assert mat.cells == ({0: {0: 1}, 1: {1: 1}}, {0: {1: 4}, 1: {0: -5}})
        assert all(type(c) is int
                   for row in mat.cells for e in row.values() for c in e.values())
        # 1/2 - 1/2 accumulates to a zero coefficient, which is not stored,
        # and leaves a zero row, which is not stored either
        mat, _, _ = parse_action_document(
            {"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 0, 1, 2], [0, 0, 0, -1, 2]]})
        assert mat.cells == ()

    @staticmethod
    def assert_primitive_multiple(parsed: LinearFormMatrix, oracle):
        # each parsed row is a primitive int row, a rational multiple of the
        # oracle's row with the same nonzero cells; the parse keeps only the
        # rows with a nonzero cell and renumbers the indeterminates that occur
        oracle = [ref for ref in oracle if any(ref)]
        used = sorted({k for ref in oracle for e in ref for k in e})
        assert parsed.num_indeterminates == len(used)
        new = {k: t for t, k in enumerate(used)}
        oracle = [[{new[k]: c for k, c in e.items()} for e in ref] for ref in oracle]
        for row, ref in zip(parsed.cells, oracle, strict=True):
            assert ({j: sorted(e) for j, e in row.items()}
                    == {j: sorted(e) for j, e in enumerate(ref) if e})
            coeffs = [c for e in row.values() for c in e.values()]
            assert all(type(c) is int for c in coeffs)
            assert gcd(*coeffs) == 1
            j, k = next((j, k) for j, e in enumerate(ref) for k in e)
            factor = Fraction(row[j][k]) / ref[j][k]
            assert all(row[j][k] == factor * c
                       for j, r in enumerate(ref) for k, c in r.items())

    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 3, 4)])
    def test_integer_parse_matches_fraction_oracle(self, r):
        rep = ThetaRep.of(*r)
        rng = random.Random(sum(r))
        for part in all_nilpotent_orbits(rep):
            doc = export_action(build_centralizer(part, rep.m), declared_rank=rep.rank())
            scaled = scale_rows(doc, rng)
            mat, _, bound = parse_action_document(scaled)
            self.assert_primitive_multiple(mat, fraction_parse(scaled))
            plain, _, _ = parse_action_document(doc)
            assert (index_of_matrix(mat, target=bound)
                    == index_of_matrix(plain, target=bound)), part

    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 3, 4)])
    def test_capped_trials_match_the_uncapped_run(self, r, monkeypatch):
        # an exported document's bound is min(r), so capping the F_p
        # elimination at dim - bound changes no result; a bound match takes
        # one point rank, or none when there is no rank to find
        import thetagib.index_engine as ie

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return point_rank(*a, **k)

        point_rank = el.rank_at_point_mod
        monkeypatch.setattr(el, "rank_at_point_mod", counted)
        rep = ThetaRep.of(*r)
        rng = random.Random(sum(r))
        sent = []
        for part in all_nilpotent_orbits(rep):
            doc = export_action(build_centralizer(part, rep.m), declared_rank=rep.rank())
            assert doc["index_lower_bound"] == rep.rank()
            sent += [(part, doc), (part, scale_rows(doc, rng))]
        capped = []
        for part, doc in sent:
            mat, declared, bound = parse_action_document(doc)
            calls.clear()
            capped.append(index_of_matrix(mat, target=bound, declared=declared))
            if capped[-1].decided_by == DECIDED_BY_BOUND_MATCH:
                assert len(calls) == min(1, mat.rows, mat.cols - bound), part
        # the uncapped run: the same point, then the same ladder
        ceilings = []

        def uncapped(matrix, seed, ceiling):
            ceilings.append(ceiling)
            return rank(matrix, seed=seed)

        rank = ie.probabilistic_rank
        monkeypatch.setattr(ie, "probabilistic_rank", uncapped)
        for (part, doc), result in zip(sent, capped, strict=True):
            mat, declared, bound = parse_action_document(doc)
            assert index_of_matrix(mat, target=bound, declared=declared) == result, part
        assert len(ceilings) == len(sent) and None not in ceilings

    def test_cancelling_brackets_match_fraction_oracle(self):
        # cells (0, 0), (1, 0) and (2, 1) cancel, row 1 keeps 5*a2 and is
        # stored as a2, and -1/-2 is 1/2
        doc = {"dim_q": 3, "dim_v": 2,
               "brackets": [[0, 0, 0, 1, 3], [0, 0, 0, -2, 6], [0, 1, 1, 4, 6],
                            [0, 1, 0, -1, -2], [1, 0, 1, 3, 7], [1, 0, 1, -3, 7],
                            [1, 1, 1, 5, 1], [2, 1, 0, 7, 2], [2, 1, 0, -7, 2]]}
        mat, _, _ = parse_action_document(doc)
        self.assert_primitive_multiple(mat, fraction_parse(doc))
        assert mat.cells == ({1: {1: 4, 0: 3}}, {1: {1: 1}})

    @pytest.mark.parametrize("doc,fragment", [
        ({"dim_v": 1}, "dim_q"),
        ({"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 0, 1]]}, "brackets[0]"),
        ({"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 5, 1, 1]]}, "k=5"),
        ({"dim_q": 1, "dim_v": 2, "brackets": [[3, 0, 0, 1, 1]]}, "i=3"),
        ({"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 0, 1, 0]]}, "denominator"),
        ({"dim_q": 1, "dim_v": 1, "rank": -2}, "rank"),
        ([1, 2], "object"),
        ({"dim_q": 1, "dim_v": 1, "index_lower_bound": -1}, "index_lower_bound"),
        ({"dim_q": 1, "dim_v": 1, "index_lower_bound": True}, "index_lower_bound"),
        ({"dim_q": 1, "dim_v": 1, "index_lower_bound": 1.5}, "index_lower_bound"),
        ({"dim_q": 1, "dim_v": 1, "index_lower_bound": 2}, "index_lower_bound"),
    ])
    def test_validation_errors_carry_location(self, doc, fragment):
        with pytest.raises(GenericActionError) as err:
            parse_action_document(doc)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("bad, message", _late_defects())
    def test_a_late_defect_is_reported_whole(self, bad, message):
        # the valid brackets around it pass the one type test per field,
        # so the defect alone goes through the full checks
        doc = {"dim_q": 2, "dim_v": 2,
               "brackets": [[0, 1, 1, 2, 3], bad, [1, 0, 1, 1, 1]]}
        with pytest.raises(GenericActionError) as err:
            parse_action_document(doc)
        assert str(err.value) == f"brackets[1]: {message}"

    @pytest.mark.parametrize("brackets, message", [
        ([[0, 0, 0, 1, 1], [0, 0, 0, 1, 0], [0, 0, 0, "1", 1]],
         "brackets[1]: zero denominator"),
        ([[0, 0, 0, 1, 1], [0, 0, 0, "1", 1], [0, 0, 0, 1, 0]],
         "brackets[1]: num must be an integer"),
        ([[0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [9, 0, 0, 1, 1], [0, 0, 9, 1, 1]],
         "brackets[2]: i=9 out of range (dim_q=1)"),
    ])
    def test_the_first_bad_bracket_is_reported(self, brackets, message):
        with pytest.raises(GenericActionError) as err:
            parse_action_document({"dim_q": 1, "dim_v": 1, "brackets": brackets})
        assert str(err.value) == message

    def test_int_enum_fields_parse_as_their_values(self):
        # an int subclass passes the full checks, as an isinstance test lets it
        Idx = IntEnum("Idx", [("ZERO", 0), ("ONE", 1), ("TWO", 2), ("THREE", 3)])
        plain = {"dim_q": 2, "dim_v": 3,
                 "brackets": [[0, 2, 1, 2, 3], [1, 0, 2, -1, 2], [0, 1, 2, 1, 1]]}
        enum = dict(plain, brackets=[[Idx(0), Idx(2), Idx(1), Idx(2), Idx(3)],
                                     [1, 0, 2, -1, 2],
                                     [Idx(0), 1, Idx(2), 1, Idx(1)]])
        mat, _, _ = parse_action_document(enum)
        ref, _, _ = parse_action_document(plain)
        assert (mat.cells, mat.num_indeterminates, mat.cols) == (
            ref.cells, ref.num_indeterminates, ref.cols)
        assert ref.cells == ({2: {0: 2}, 1: {1: 3}}, {0: {1: -1}})
        assert all(type(j) is type(k) is type(c) is int
                   for row in mat.cells for j, e in row.items() for k, c in e.items())

    def test_random_documents_match_fraction_oracle(self):
        # repeated (i, j, k), zero numerators, negative denominators, rows
        # that cancel completely, unused indeterminates and shuffled order;
        # assert_primitive_multiple also checks that num_indeterminates
        # counts exactly the indeterminates that keep a coefficient
        rng = random.Random(2024)
        seen = {"repeat": 0, "zero": 0, "negative": 0, "cancelled": 0,
                "renumbered": 0, "plain": 0}
        for _ in range(400):
            dim_q, dim_v = rng.randint(1, 5), rng.randint(1, 6)
            brackets = []
            for _ in range(rng.randint(0, 14)):
                item = [rng.randrange(dim_q), rng.randrange(dim_v), rng.randrange(dim_v),
                        rng.choice((0, 1, -1, 2, -3, 5, 12)),
                        rng.choice((1, 1, 2, -2, 3, -6, 7))]
                brackets.append(item)
                if rng.random() < 0.2:  # cancel it again
                    brackets.append(item[:3] + [-item[3], item[4]])
                if rng.random() < 0.1:  # repeat it
                    brackets.append(list(item))
            if brackets and rng.random() < 0.15:  # a row that cancels completely
                i = brackets[0][0]
                brackets += [b[:3] + [-b[3], b[4]] for b in brackets if b[0] == i]
            rng.shuffle(brackets)
            doc = {"dim_q": dim_q, "dim_v": dim_v, "brackets": brackets}
            oracle = fraction_parse(doc)
            mat, _, _ = parse_action_document(doc)
            self.assert_primitive_multiple(mat, oracle)
            cells = [tuple(b[:3]) for b in brackets]
            used = {k for ref in oracle for e in ref for k in e}
            seen["repeat"] += len(set(cells)) < len(cells)
            seen["zero"] += any(b[3] == 0 for b in brackets)
            seen["negative"] += any(b[4] < 0 for b in brackets)
            seen["cancelled"] += len({b[0] for b in brackets}) > len(
                [ref for ref in oracle if any(ref)])
            seen["renumbered"] += used != set(range(len(used)))
            seen["plain"] += len(set(cells)) == len(cells) and all(b[3] for b in brackets)
        assert min(seen.values()) >= 20, seen

    def test_one_bracket_in_a_large_document(self):
        # the matrix and every rank layer pay for the one stored form, not
        # for the dim_q x dim_v cells around it
        mat, _, _ = parse_action_document(
            {"dim_q": 3000, "dim_v": 3000, "brackets": [[0, 0, 0, 1, 1]]})
        assert [(i, row) for i, row in enumerate(mat.cells) if row] == [(0, {0: {0: 1}})]
        res = index_of_matrix(mat)
        assert (res.index, res.decided_by) == (2999, DECIDED_BY_REDUCED_SHAPE)

    @pytest.mark.parametrize("dim_q, dim_v", [(10**12, 2), (2, 10**12)])
    def test_a_document_holds_only_what_it_states(self, dim_q, dim_v):
        # one stored row in one indeterminate, a_1 renumbered to a_0,
        # whatever dim_q and dim_v declare; the shape is checked before any
        # rank layer could walk dim_q rows or draw dim_v coordinates
        mat, _, _ = parse_action_document(
            {"dim_q": dim_q, "dim_v": dim_v, "brackets": [[0, 1, 1, 1, 1]]})
        assert (mat.rows, mat.cols, mat.num_indeterminates) == (1, dim_v, 1)
        assert mat.cells == ({1: {0: 1}},)
        res = index_of_matrix(mat)
        assert (res.index, res.decided_by) == (dim_v - 1, DECIDED_BY_REDUCED_SHAPE)

    def test_empty_acting_algebra(self):
        mat, _, _ = parse_action_document({"dim_q": 0, "dim_v": 3, "brackets": []})
        assert index_of_matrix(mat).index == 3
