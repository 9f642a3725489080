"""Centralizer basis, grading, brackets, and the explicit matrix model."""

import numpy as np
import pytest

from helpers import (
    SWEEP_GRADINGS,
    bracket,
    cell_exponents,
    dense_action_structure_constants,
    per_element_by_degree,
    xi_matrix,
)
from thetagib import (
    LabeledPartition,
    ThetaRep,
    XiElement,
    build_centralizer,
)
from thetagib.orbits import all_nilpotent_orbits


def xi(i, j, s):
    return XiElement(i, j, s)


NILP_EX = LabeledPartition(((5, 0), (3, 1), (1, 2)))   # r=(3,3,3)
EX_332 = LabeledPartition(((5, 0), (3, 1)))            # r=(3,3,2)
#: the gradings of the cheap-pass benchmarks: (4,4,4), (3,3,3,3) and the sweep
CHEAP_PASS_GRADINGS = [(4, 4, 4), (3, 3, 3, 3), *SWEEP_GRADINGS]


class TestBuild:
    def test_nilp_ex_dims(self):
        cent = build_centralizer(NILP_EX, 3)
        assert tuple(len(b) for b in cent.by_degree) == (6, 7, 6)
        assert cent.dim == 19

    def test_nilp_ex_degree_minus_one_basis(self):
        cent = build_centralizer(NILP_EX, 3)
        assert cent.by_degree[2] == (
            xi(1, 1, 2), xi(1, 2, 1), xi(1, 3, 0),
            xi(2, 1, 3), xi(2, 2, 2), xi(3, 1, 4),
        )

    def test_nilp_ex_degree_zero_basis(self):
        cent = build_centralizer(NILP_EX, 3)
        assert set(cent.by_degree[0]) == {
            xi(1, 1, 0), xi(1, 1, 3), xi(1, 2, 2),
            xi(2, 1, 4), xi(2, 2, 0), xi(3, 3, 0),
        }

    def test_ex_332_dims_and_basis(self):
        cent = build_centralizer(EX_332, 3)
        assert len(cent.by_degree[0]) == 5
        assert len(cent.by_degree[2]) == 4
        assert cent.by_degree[2] == (
            xi(1, 1, 2), xi(1, 2, 1), xi(2, 1, 3), xi(2, 2, 2),
        )

    def test_single_block_dims(self):
        # one block of length n: abelian centralizer spanned by the powers,
        # degree k holds ceil((n-k)/m) elements
        for n in range(1, 8):
            for m in range(2, 5):
                cent = build_centralizer(LabeledPartition(((n, 0),)), m)
                assert cent.dim == n
                for k in range(m):
                    assert len(cent.by_degree[k]) == -((n - k) // -m)
        cent = build_centralizer(LabeledPartition(((4, 0),)), 4)
        assert tuple(len(b) for b in cent.by_degree) == (1, 1, 1, 1)

    def test_total_dimension_formula(self):
        # dim of the centralizer is sum of min(d_i, d_j) + 1 over block pairs
        for blocks, m in [((((5, 0), (3, 1), (1, 2))), 3),
                          ((((3, 0), (3, 2), (1, 1))), 4),
                          ((((4, 1), (2, 0), (2, 2), (1, 1))), 3)]:
            part = LabeledPartition(blocks)
            cent = build_centralizer(part, m)
            lengths = [l for l, _ in part.blocks]
            expected = sum(min(a, b) - 1 + 1 for a in lengths for b in lengths)
            # min(d_i, d_j) + 1 = min(l_i, l_j) - 1 + 1
            assert cent.dim == expected

    @pytest.mark.parametrize("r", CHEAP_PASS_GRADINGS, ids=str)
    def test_build_equals_the_per_element_loop(self, r):
        rep = ThetaRep.of(*r)
        for part in all_nilpotent_orbits(rep):
            cent = build_centralizer(part, rep.m)
            assert cent.by_degree == per_element_by_degree(cent), part
            assert all(type(x) is XiElement for b in cent.by_degree for x in b)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            build_centralizer(LabeledPartition(((2, 3),)), 2)

    def test_element_range_check(self):
        cent = build_centralizer(EX_332, 3)
        assert cent.in_range(2, 1, 2)
        assert not cent.in_range(2, 1, 1)  # below max(d_1 - d_2, 0) = 2
        assert not cent.in_range(1, 1, 5)  # above d_1 = 4


class TestBracket:
    def test_out_of_range_products_vanish(self):
        cent = build_centralizer(EX_332, 3)
        assert bracket(cent, xi(1, 2, 2), xi(2, 1, 3)) == {}

    def test_self_bracket_vanishes(self):
        cent = build_centralizer(NILP_EX, 3)
        for bucket in cent.by_degree:
            for x in bucket:
                assert bracket(cent, x, x) == {}

    def test_torus_weight_example(self):
        cent = build_centralizer(EX_332, 3)
        assert bracket(cent, xi(1, 1, 0), xi(1, 2, 1)) == {xi(1, 2, 1): -1}
        assert bracket(cent, xi(1, 1, 0), xi(2, 1, 3)) == {xi(2, 1, 3): 1}

    def test_antisymmetry(self):
        cent = build_centralizer(NILP_EX, 3)
        elems = [x for bucket in cent.by_degree for x in bucket]
        for x in elems:
            for y in elems:
                lhs = bracket(cent, x, y)
                rhs = {z: -c for z, c in bracket(cent, y, x).items()}
                assert lhs == rhs

    def test_grading_respected(self):
        for blocks, m in [((((5, 0), (3, 1), (1, 2))), 3),
                          ((((3, 0), (3, 2), (1, 1))), 4),
                          ((((2, 0), (2, 1), (1, 0))), 2)]:
            cent = build_centralizer(LabeledPartition(blocks), m)
            elems = [x for bucket in cent.by_degree for x in bucket]
            for x in elems:
                for y in elems:
                    for z in bracket(cent, x, y):
                        assert cent.degree(z) == (cent.degree(x) + cent.degree(y)) % m


class TestActionStructureConstants:
    def test_2221_nilpotent_part_acts_trivially(self):
        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        acting = cent.by_degree[0]
        nilpotent_rows = [i for i, x in enumerate(acting) if x.i != x.j]
        assert {acting[i] for i in nilpotent_rows} == {xi(1, 2, 2), xi(2, 1, 2)}
        rows = cent.action_structure_constants()
        assert len(rows) == len(acting)
        for i in nilpotent_rows:
            assert rows[i] == {}

    def test_torus_weights_for_11_zero_orbit(self):
        cent = build_centralizer(LabeledPartition(((1, 0), (1, 1))), 2)
        rows = cent.action_structure_constants()
        # explicit 2x2 model: x1 = E11, x2 = E22, v1 = E21, v2 = E12
        # [E11, E21] = -E21, [E11, E12] = +E12, [E22, E21] = +E21, ...
        assert rows == [{0: {0: -1}, 1: {1: 1}},
                        {0: {0: 1}, 1: {1: -1}}]

    @pytest.mark.parametrize("r", [(3, 3, 3), (4, 4, 4), (3, 3, 3, 3), (2, 3, 1, 2),
                                   (1, 2, 2, 2, 1, 0)]
                             + [r for r in SWEEP_GRADINGS if r != (3, 3, 3)])
    def test_sparse_build_equals_every_bracket(self, r):
        rep = ThetaRep.of(*r)
        for part in all_nilpotent_orbits(rep):
            cent = build_centralizer(part, rep.m)
            assert cent.action_structure_constants() == \
                dense_action_structure_constants(cent), part

    def test_bracket_outside_the_module_is_a_grading_violation(self):
        cent = build_centralizer(LabeledPartition.parse("3^0 3^2 1^1"), 3)
        acting, module = cent.by_degree[0], cent.by_degree[2]
        # drop from the module an element that another one is bracketed into
        w = next(z for x in acting for v in module for z in bracket(cent, x, v) if z != v)
        assert w == xi(2, 2, 2)
        cent.by_degree = cent.by_degree[:2] + (tuple(v for v in module if v != w),)
        # the + term of [xi_1^{2,1}, xi_2^{1,1}] is the first to meet it
        with pytest.raises(RuntimeError) as err:
            cent.action_structure_constants()
        assert str(err.value) == ("grading violation: [xi_1^{2,1}, xi_2^{1,1}] "
                                  "contains xi_2^{2,2} of degree 2")

    def test_minus_term_outside_the_module_is_a_grading_violation(self):
        cent = build_centralizer(LabeledPartition.parse("3^0 3^2 1^1"), 3)
        module = cent.by_degree[2]
        # [xi_1^{2,1}, xi_2^{1,1}] = xi_2^{2,2} - xi_1^{1,2}: its - term
        # is the first bracket to leave the module without xi_1^{1,2}
        cent.by_degree = cent.by_degree[:2] + (tuple(v for v in module if v != xi(1, 1, 2)),)
        with pytest.raises(RuntimeError) as err:
            cent.action_structure_constants()
        assert str(err.value) == ("grading violation: [xi_1^{2,1}, xi_2^{1,1}] "
                                  "contains xi_1^{1,2} of degree 2")


class TestMatrixModel:
    def build_and_compare(self, part, m):
        cent = build_centralizer(part, m)
        elems = [x for bucket in cent.by_degree for x in bucket]
        idx = {x: a for a, x in enumerate(elems)}
        mats = np.stack([xi_matrix(cent, x) for x in elems])
        # degree read off the explicit grading operator: every nonzero entry
        # of xi sits between cells whose eigen-exponents differ by deg(xi)
        exps = cell_exponents(cent)
        for x, mat in zip(elems, mats):
            rows, cols = np.nonzero(mat)
            degs = {(exps[r] - exps[c]) % m for r, c in zip(rows, cols)}
            assert degs == {cent.degree(x)}
        # all pairwise commutators against the formal bracket
        prod = np.einsum("aij,bjk->abik", mats, mats)
        comm = prod - prod.transpose(1, 0, 2, 3)
        expected = np.zeros_like(comm)
        for x in elems:
            for y in elems:
                for z, c in bracket(cent, x, y).items():
                    expected[idx[x], idx[y]] += c * mats[idx[z]]
        assert np.array_equal(comm, expected)

    def test_worked_partitions(self):
        self.build_and_compare(NILP_EX, 3)
        self.build_and_compare(EX_332, 3)
        self.build_and_compare(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        self.build_and_compare(LabeledPartition(((3, 0), (3, 2), (1, 1), (1, 3))), 4)

    def test_exhaustive_small_gradings(self):
        # every orbit of every normalized grading with n <= 5, m <= 4
        from helpers import all_reps

        for rep in all_reps(5, 4):
            for part in all_nilpotent_orbits(rep):
                self.build_and_compare(part, rep.m)


class TestJacobi:
    def jacobi_holds(self, cent):
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

    def test_jacobi_on_worked_partitions(self):
        self.jacobi_holds(build_centralizer(NILP_EX, 3))
        self.jacobi_holds(build_centralizer(EX_332, 3))

    def test_jacobi_exhaustive_small(self):
        # exhaustive triples on every centralizer of modest dimension
        from helpers import all_reps

        for rep in all_reps(5, 3):
            for part in all_nilpotent_orbits(rep):
                cent = build_centralizer(part, rep.m)
                if cent.dim <= 12:
                    self.jacobi_holds(cent)
