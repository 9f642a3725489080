"""Action matrices, index computation, and the generic document interface."""

import json
import random

import pytest

from helpers import cached_check_rep, positive_rank_reps
from thetagib import (
    GenericActionError,
    LabeledPartition,
    ThetaRep,
    build_action_matrix,
    build_centralizer,
    certified_rank,
    export_action,
    index_of_matrix,
    parse_action_document,
    scalar_rank,
)
from thetagib.index_engine import DECIDED_BY_REDUCED_SHAPE
from thetagib.orbits import all_nilpotent_orbits, zero_orbit


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
                assert not any(m.entries[i])

    def test_torus_zero_orbit_incidence(self):
        # all multiplicities 1: each degree-0 element hits exactly two of the
        # m module elements, with weights +1 and -1
        for m_order in (2, 3, 4, 5):
            rep = ThetaRep(m_order, (1,) * m_order)
            cent = build_centralizer(zero_orbit(rep), m_order)
            mat = build_action_matrix(cent)
            assert (mat.rows, mat.cols) == (m_order, m_order)
            for row in mat.entries:
                coeffs = sorted(c for e in row for c in e.coeffs.values())
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
            assert scalar_rank(mat.evaluate(point)) == mat.cols - rep.rank()

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


class TestGenericDocuments:
    def test_trivial_one_by_one(self):
        mat, declared = parse_action_document(
            {"dim_q": 1, "dim_v": 1, "brackets": [], "rank": 1})
        res = index_of_matrix(mat)
        assert res.index == 1
        assert declared == 1
        assert res.index == declared

    def test_full_rank_torus_weights(self):
        doc = {"dim_q": 3, "dim_v": 3,
               "brackets": [[0, 0, 0, 1, 1], [1, 1, 1, 2, 1], [2, 2, 2, -3, 1]],
               "rank": 0}
        mat, declared = parse_action_document(doc)
        res = index_of_matrix(mat, force_certify=True)
        assert res.index == 0 == declared

    def test_blown_certification_keeps_the_shape_proof(self):
        doc = {"dim_q": 3, "dim_v": 3,
               "brackets": [[0, 0, 0, 1, 1], [1, 1, 1, 2, 1], [2, 2, 2, -3, 1]]}
        mat, _ = parse_action_document(doc)
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
        mat, declared = parse_action_document(doc)
        res = index_of_matrix(mat, force_certify=True)
        assert declared == 1
        assert res.index == 2
        assert res.index != declared

    def test_export_recheck_whole_rep(self):
        rep = ThetaRep.of(3, 3, 2)
        report = cached_check_rep(rep.r)
        by_orbit = {v.orbit: v for v in report.verdicts}
        for part in all_nilpotent_orbits(rep):
            if part.is_zero_orbit:
                continue
            cent = build_centralizer(part, rep.m)
            mat, declared = parse_action_document(
                export_action(cent, declared_rank=rep.rank()))
            res = index_of_matrix(mat, force_certify=True)
            assert (res.index == declared) == (by_orbit[part].gib is True), part

    def test_fractional_coefficients_survive(self):
        doc = {"dim_q": 2, "dim_v": 2,
               "brackets": [[0, 0, 0, 1, 2], [0, 0, 0, 1, 2], [1, 1, 1, 1, 3]]}
        mat, _ = parse_action_document(doc)
        # repeated (i, j, k) entries accumulate: 1/2 + 1/2 = 1
        assert mat.entries[0][0].coeffs == {0: 1}
        assert str(mat.entries[1][1]) == "a2"  # 1/3*a2, its row scaled by 3

    def test_parsed_rows_have_integer_coefficients(self):
        # row 0 is (1/2 + 1/2)*a1, a2: without accumulation it would be
        # stored as a1, 2*a2
        doc = {"dim_q": 2, "dim_v": 2,
               "brackets": [[0, 0, 0, 1, 2], [0, 0, 0, 1, 2], [0, 1, 1, 1, 1],
                            [1, 0, 1, 2, 3], [1, 1, 0, -5, 6]]}
        mat, _ = parse_action_document(doc)
        assert [e.coeffs for e in mat.entries[0]] == [{0: 1}, {1: 1}]
        assert [e.coeffs for e in mat.entries[1]] == [{1: 4}, {0: -5}]
        assert all(type(c) is int
                   for row in mat.entries for e in row for c in e.coeffs.values())

    @pytest.mark.parametrize("doc,fragment", [
        ({"dim_v": 1}, "dim_q"),
        ({"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 0, 1]]}, "brackets[0]"),
        ({"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 5, 1, 1]]}, "k=5"),
        ({"dim_q": 1, "dim_v": 2, "brackets": [[3, 0, 0, 1, 1]]}, "i=3"),
        ({"dim_q": 1, "dim_v": 1, "brackets": [[0, 0, 0, 1, 0]]}, "denominator"),
        ({"dim_q": 1, "dim_v": 1, "rank": -2}, "rank"),
        ([1, 2], "object"),
    ])
    def test_validation_errors_carry_location(self, doc, fragment):
        with pytest.raises(GenericActionError) as err:
            parse_action_document(doc)
        assert fragment in str(err.value)

    def test_empty_acting_algebra(self):
        mat, _ = parse_action_document({"dim_q": 0, "dim_v": 3, "brackets": []})
        assert index_of_matrix(mat).index == 3
