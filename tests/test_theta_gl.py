"""Multiplicity vectors, Kac diagrams, transforms, pattern predicates."""

import pytest

from helpers import all_reps, brute_force_graded_dims
from thetagib import (
    ThetaRep,
    dual_rep,
    normalize_cyclic,
    pattern_predicates,
    predicted_gib,
    slice_reduce,
    to_kac_diagram,
)
from thetagib.theta_gl import rotations


class TestThetaRep:
    def test_rank_examples(self):
        assert ThetaRep.of(3, 3, 1, 2).rank() == 1
        assert ThetaRep.of(4, 4).rank() == 4
        assert ThetaRep.of(3, 3, 3).rank() == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaRep(1, (5,))
        with pytest.raises(ValueError):
            ThetaRep(3, (1, 2))
        with pytest.raises(ValueError):
            ThetaRep(2, (-1, 3))
        with pytest.raises(ValueError):
            ThetaRep(2, (0, 0))

    def test_parse_round_trip(self):
        rep = ThetaRep.parse("m=4 r=3,3,1,2")
        assert rep == ThetaRep.of(3, 3, 1, 2)
        assert ThetaRep.parse("3,3,1,2") == rep
        assert ThetaRep.parse(rep.to_text()) == rep

    @pytest.mark.parametrize("text", ["m=4 3,3", "3,,3", "r=3,3 m=x", "m=4",
                                      "m=3 r=1,1,1 x"])
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ValueError) as info:
            ThetaRep.parse(text)
        message = str(info.value)
        assert repr(text) in message
        assert '"3,3,1,2"' in message and '"m=4 r=3,3,1,2"' in message

    def test_graded_dims_examples(self):
        assert ThetaRep.of(3, 3, 3).graded_dims() == (27, 27, 27)
        for a, b in [(1, 1), (2, 3), (4, 2)]:
            assert ThetaRep.of(a, b, 0).graded_dims() == (a * a + b * b, a * b, a * b)
        # sum formula 4+4+2+2 = 12; the block-matrix oracle agrees
        assert ThetaRep.of(2, 2, 2, 1).graded_dims() == (13, 12, 12)

    def test_graded_dims_against_matrix_unit_count(self):
        for rep in all_reps(7, 5):
            assert rep.graded_dims() == brute_force_graded_dims(rep)


class TestKacDiagram:
    def test_nine_node_example(self):
        # cycle: black, white, white, black, white, white, black, black, white
        assert to_kac_diagram(ThetaRep.of(3, 3, 1, 2)) == "●oo●oo●●o"

    def test_all_black_cycle_is_a_torus(self):
        for n in range(2, 7):
            assert to_kac_diagram(ThetaRep(n, (1,) * n)) == "●" * n

    def test_zero_multiplicity_cannot_encode(self):
        with pytest.raises(ValueError):
            to_kac_diagram(ThetaRep.of(2, 0, 1))

    def test_arcs_are_the_multiplicities(self):
        # each black node opens an arc of one plus the white nodes after it
        for rep in all_reps(8, 8):
            if min(rep.r) < 1:
                continue
            arcs = to_kac_diagram(rep).split("●")[1:]
            assert tuple(1 + len(arc) for arc in arcs) == rep.r


class TestTransforms:
    def test_normalize_examples(self):
        assert normalize_cyclic(ThetaRep.of(3, 3, 1, 2)).r == (1, 2, 3, 3)
        assert normalize_cyclic(ThetaRep.of(2, 2, 2, 2)).r == (2, 2, 2, 2)

    def test_normalize_idempotent_and_rotation_invariant(self):
        for rep in all_reps(8, 4):
            norm = normalize_cyclic(rep)
            assert normalize_cyclic(norm) == norm
            for rot in rotations(rep.r):
                assert normalize_cyclic(ThetaRep(rep.m, rot)) == norm

    def test_slice_examples(self):
        assert slice_reduce(ThetaRep.of(2, 2, 4), 1).r == (1, 1, 3)
        assert slice_reduce(ThetaRep.of(2, 2, 4), 2).r == (0, 0, 2)
        with pytest.raises(ValueError):
            slice_reduce(ThetaRep.of(2, 2, 4), 3)  # b > rank

    def test_slice_full_rank_boundary(self):
        # (3,3,3) - 3 = (0,0,0) is not a grading of anything (n = 0)
        with pytest.raises(ValueError):
            slice_reduce(ThetaRep.of(3, 3, 3), 3)
        assert slice_reduce(ThetaRep.of(3, 3, 3), 2).r == (1, 1, 1)

    def test_slice_rank_identity(self):
        for rep in all_reps(8, 4):
            for b in range(rep.rank()):
                assert slice_reduce(rep, b).rank() == rep.rank() - b

    def test_dual_examples(self):
        assert dual_rep(ThetaRep.of(1, 2, 3)).r == (1, 3, 2)
        assert dual_rep(ThetaRep.of(4, 4)).r == (4, 4)

    def test_dual_is_an_involution(self):
        for rep in all_reps(8, 5):
            assert dual_rep(dual_rep(rep)) == rep

    def test_graded_dims_invariant_under_normalize_and_dual(self):
        for rep in all_reps(8, 4):
            dims = rep.graded_dims()
            assert normalize_cyclic(rep).graded_dims() == dims
            assert dual_rep(rep).graded_dims() == dims


class TestPatternPredicates:
    def test_examples(self):
        assert pattern_predicates(ThetaRep.of(2, 2, 2, 1)).has_cyclic_triple_ge2
        assert pattern_predicates(ThetaRep.of(1, 2, 1, 2)).matches_prop_1groups_1
        assert pattern_predicates(ThetaRep.of(2, 2, 5)).matches_theorem_m3_shape

    def test_triple_is_read_cyclically(self):
        # (2,1,2,2): the triple wraps around the end
        assert pattern_predicates(ThetaRep.of(2, 1, 2, 2)).has_cyclic_triple_ge2
        assert not pattern_predicates(ThetaRep.of(2, 1, 2, 1)).has_cyclic_triple_ge2

    def test_m3_families(self):
        assert pattern_predicates(ThetaRep.of(4, 7, 0)).matches_theorem_m3_shape
        assert pattern_predicates(ThetaRep.of(4, 7, 1)).matches_theorem_m3_shape
        assert pattern_predicates(ThetaRep.of(2, 9, 2)).matches_theorem_m3_shape
        assert not pattern_predicates(ThetaRep.of(3, 3, 2)).matches_theorem_m3_shape
        assert not pattern_predicates(ThetaRep.of(3, 3, 3)).matches_theorem_m3_shape

    def test_predicates_rotation_invariant(self):
        for rep in all_reps(8, 5):
            flags = pattern_predicates(rep)
            for rot in rotations(rep.r):
                assert pattern_predicates(ThetaRep(rep.m, rot)) == flags

    def test_predicted_gib_coverage(self):
        assert predicted_gib(ThetaRep.of(3, 3, 2)) is False
        assert predicted_gib(ThetaRep.of(2, 2, 7)) is True
        assert predicted_gib(ThetaRep.of(2, 2, 2, 2)) is False
        assert predicted_gib(ThetaRep.of(1, 2, 1, 2)) is True
        assert predicted_gib(ThetaRep.of(3, 3)) is None  # order 2: no prediction
        assert predicted_gib(ThetaRep.of(1, 2, 0, 2)) is None  # rank 0, order 4
