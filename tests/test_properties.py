"""Standalone property suites.

Runnable on their own (``pytest tests/test_properties.py``); they cover the
cross-cutting guarantees: the formal bracket agrees with an explicit matrix
model, the Jacobi identity holds, probabilistic ranks never exceed certified
ranks, verdicts are stable under the degree-reversal and slice transforms,
and no verdict depends on the random seed.
"""

import random

import numpy as np

from helpers import (
    all_reps,
    bracket,
    cached_check_rep,
    cell_exponents,
    positive_rank_reps,
    random_matrix,
    xi_matrix,
)
from thetagib import (
    ThetaRep,
    build_action_matrix,
    build_centralizer,
    certified_rank,
    check_rep,
    dual_rep,
    normalize_cyclic,
    probabilistic_rank,
    slice_reduce,
)
from thetagib.orbits import all_nilpotent_orbits


def matrix_model_agrees(cent) -> None:
    elems = [x for bucket in cent.by_degree for x in bucket]
    idx = {x: a for a, x in enumerate(elems)}
    mats = np.stack([xi_matrix(cent, x) for x in elems])
    exps = cell_exponents(cent)
    for x, mat in zip(elems, mats):
        rows, cols = np.nonzero(mat)
        degs = {(exps[r] - exps[c]) % cent.m for r, c in zip(rows, cols)}
        assert degs == {cent.degree(x)}
    prod = np.einsum("aij,bjk->abik", mats, mats)
    comm = prod - prod.transpose(1, 0, 2, 3)
    expected = np.zeros_like(comm)
    for x in elems:
        for y in elems:
            for z, c in bracket(cent, x, y).items():
                expected[idx[x], idx[y]] += c * mats[idx[z]]
    assert np.array_equal(comm, expected)


class TestMatrixModel:
    def test_exhaustive_up_to_n6(self):
        # every orbit of every normalized grading with n <= 6, orders 2..4;
        # centralizers only depend on blocks and the order, so this covers
        # each (partition, order) pair reachable at this size
        for rep in all_reps(6, 4):
            for part in all_nilpotent_orbits(rep):
                matrix_model_agrees(build_centralizer(part, rep.m))

    def test_orders_beyond_four(self):
        for r in [(1, 1, 1, 1, 1), (2, 1, 0, 1, 2), (1, 1, 1, 1, 1, 1)]:
            rep = ThetaRep.of(*r)
            for part in all_nilpotent_orbits(rep):
                matrix_model_agrees(build_centralizer(part, rep.m))


class TestJacobi:
    # Matrix commutators satisfy Jacobi identically, so the matrix-model
    # equivalence above already transports the identity to the formal
    # bracket by linearity; the direct check below exercises the formal side
    # exhaustively where the triple count stays reasonable.

    def jacobi_exhaustive(self, cent) -> None:
        elems = [x for bucket in cent.by_degree for x in bucket]

        def bracket_combo(x, combo):
            out = {}
            for z, c in combo.items():
                for w, d in bracket(cent, x, z).items():
                    v = out.get(w, 0) + c * d
                    if v:
                        out[w] = v
                    else:
                        out.pop(w, None)
            return out

        for x in elems:
            for y in elems:
                xy = bracket(cent, x, y)
                for z in elems:
                    acc = bracket_combo(x, bracket(cent, y, z))
                    for src in (bracket_combo(y, bracket(cent, z, x)),
                                bracket_combo(z, xy)):
                        for w, c in src.items():
                            v = acc.get(w, 0) + c
                            if v:
                                acc[w] = v
                            else:
                                acc.pop(w, None)
                    assert acc == {}, (x, y, z)

    def test_all_triples_small_centralizers(self):
        for rep in all_reps(6, 4):
            for part in all_nilpotent_orbits(rep):
                cent = build_centralizer(part, rep.m)
                if cent.dim <= 12:
                    self.jacobi_exhaustive(cent)

    def test_all_triples_worked_partitions(self):
        from thetagib.orbits import LabeledPartition

        for blocks, m in [((((5, 0), (3, 1), (1, 2))), 3),
                          ((((5, 0), (3, 1))), 3),
                          ((((3, 0), (3, 2), (1, 1), (1, 3))), 4)]:
            self.jacobi_exhaustive(build_centralizer(LabeledPartition(blocks), m))


class TestRankMonotonicity:
    def test_probabilistic_never_exceeds_certified(self):
        rng = random.Random(2024)
        for trial in range(30):
            m = random_matrix(rng)
            prob = probabilistic_rank(m, seed=trial)
            assert prob <= certified_rank(m)

    def test_equality_on_orbit_matrices(self):
        for r in [(2, 2, 2), (1, 2, 1, 2), (3, 2)]:
            rep = ThetaRep.of(*r)
            for part in all_nilpotent_orbits(rep):
                mat = build_action_matrix(build_centralizer(part, rep.m))
                assert probabilistic_rank(mat, seed=0) == certified_rank(mat)


class TestTransformImplications:
    def test_verdict_invariant_under_rotation_and_dual(self):
        for rep in positive_rank_reps(8, 4):
            base = cached_check_rep(rep.r).rep_gib
            assert base is not None
            rot = normalize_cyclic(ThetaRep(rep.m, rep.r[1:] + rep.r[:1]))
            assert cached_check_rep(rot.r).rep_gib == base
            dual = normalize_cyclic(dual_rep(rep))
            assert cached_check_rep(dual.r).rep_gib == base, rep

    def test_slice_implication(self):
        # a good grading stays good after subtracting a constant
        for rep in positive_rank_reps(8, 4):
            if cached_check_rep(rep.r).rep_gib is not True:
                continue
            top = rep.rank() if len(set(rep.r)) > 1 else rep.rank() - 1
            for b in range(1, top + 1):
                sliced = normalize_cyclic(slice_reduce(rep, b))
                assert cached_check_rep(sliced.r).rep_gib is True, (rep, b)

    def test_fold_implication(self):
        # (1, r_1..r_{m-1}, 1, 0) good forces (1, r_1..r_{m-1}) good
        for rep in positive_rank_reps(7, 4):
            if rep.r[0] != 1:
                continue
            extended = ThetaRep(rep.m + 2, rep.r + (1, 0))
            if cached_check_rep(extended.r).rep_gib is True:
                assert cached_check_rep(normalize_cyclic(rep).r).rep_gib is True, rep


class TestSeedIndependence:
    def test_five_seeds_identical_reports(self):
        corpus = [r.r for r in positive_rank_reps(6, 4)] + \
            [(3, 3, 2), (2, 2, 2, 2), (2, 3, 0), (3, 5)]
        for r in corpus:
            baseline = check_rep(ThetaRep.of(*r), seed=0)
            base = [(v.orbit, v.gib, v.index_result.index)
                    for v in baseline.verdicts]
            for seed in (1, 2, 3, 4):
                again = check_rep(ThetaRep.of(*r), seed=seed)
                got = [(v.orbit, v.gib, v.index_result.index)
                       for v in again.verdicts]
                assert got == base, r
