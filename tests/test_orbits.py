"""Labeled partitions: validity, enumeration, orbit dimensions."""

import time

import pytest

from helpers import (
    brute_force_orbit_keys,
    positive_rank_reps,
    recursive_orbit_blocks,
    symmetry_images,
)
from thetagib import (
    LabeledPartition,
    ThetaRep,
    dual_rep,
    enumerate_orbits,
    normalize_cyclic,
    orbit_dimension,
)
from thetagib.orbits import all_nilpotent_orbits, dihedral_classes, zero_orbit
from test_golden_verdicts import golden_reps


class TestValidity:
    def test_worked_examples(self):
        assert LabeledPartition(((5, 0), (3, 1), (1, 2))).valid_for(ThetaRep.of(3, 3, 3))
        assert LabeledPartition(((5, 0), (3, 0))).valid_for(ThetaRep.of(3, 3, 2))
        assert LabeledPartition(((5, 0), (3, 1))).valid_for(ThetaRep.of(3, 3, 2))
        assert LabeledPartition(((9, 0),)).valid_for(ThetaRep.of(3, 3, 3))

    def test_wrong_counts_rejected(self):
        # (5,1) uses residues (1,2,2); together with (3,1) the counts are
        # (2,3,3), not (3,3,2)
        assert not LabeledPartition(((5, 1), (3, 1))).valid_for(ThetaRep.of(3, 3, 2))
        assert not LabeledPartition(((5, 0),)).valid_for(ThetaRep.of(3, 3, 3))
        assert not LabeledPartition(((2, 5),)).valid_for(ThetaRep.of(1, 1))

    def test_canonical_storage(self):
        p = LabeledPartition(((1, 2), (5, 0), (3, 1)))
        assert p.blocks == ((5, 0), (3, 1), (1, 2))
        assert p.to_text() == "5^0 3^1 1^2"
        assert LabeledPartition.parse("5^0 3^1 1^2") == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            LabeledPartition.parse("5 3")
        with pytest.raises(ValueError):
            LabeledPartition.parse("")
        with pytest.raises(ValueError):
            LabeledPartition(((0, 1),))


class TestEnumeration:
    def test_333_has_191_nonzero_orbits(self):
        t0 = time.time()
        orbits = enumerate_orbits(ThetaRep.of(3, 3, 3))
        assert len(orbits) == 191
        assert time.time() - t0 < 1.0

    def test_trivial_grading_has_only_the_zero_orbit(self):
        rep = ThetaRep.of(1, 0)
        assert enumerate_orbits(rep) == []
        assert all_nilpotent_orbits(rep) == [LabeledPartition(((1, 0),))]

    def test_zero_orbit_construction(self):
        z = zero_orbit(ThetaRep.of(2, 1, 2))
        assert z.blocks == ((1, 0), (1, 0), (1, 1), (1, 2), (1, 2))
        assert z.is_zero_orbit

    def test_22_matches_brute_force(self):
        rep = ThetaRep.of(2, 2)
        got = {p.blocks for p in enumerate_orbits(rep)}
        assert got == brute_force_orbit_keys(rep)

    def test_brute_force_agreement_small_sweep(self):
        for rep in positive_rank_reps(7, 4):
            got = {p.blocks for p in enumerate_orbits(rep)}
            assert got == brute_force_orbit_keys(rep), rep

    def test_outputs_valid_unique_and_sorted(self):
        for rep in [ThetaRep.of(3, 3, 3), ThetaRep.of(2, 2, 2, 1), ThetaRep.of(4, 2)]:
            orbits = enumerate_orbits(rep)
            assert len({p.blocks for p in orbits}) == len(orbits)
            assert all(p.valid_for(rep) for p in orbits)
            keys = [p.sort_key() for p in orbits]
            assert keys == sorted(keys)
            assert not any(p.is_zero_orbit for p in orbits)

    def test_count_invariant_under_rotation_and_dual(self):
        for rep in positive_rank_reps(8, 4):
            count = len(enumerate_orbits(rep))
            rotated = ThetaRep(rep.m, rep.r[1:] + rep.r[:1])
            assert len(enumerate_orbits(rotated)) == count
            assert len(enumerate_orbits(dual_rep(rep))) == count
            assert len(enumerate_orbits(normalize_cyclic(rep))) == count


class TestDihedralClasses:
    """Orderly generation: one least member per class, expanded by its images."""

    @pytest.mark.parametrize("rep", golden_reps() + [ThetaRep.of(5, 5, 5), ThetaRep.of(5, 5, 6),
                                                     ThetaRep.of(2, 3, 2, 3)], ids=str)
    def test_orbit_list_equals_the_recursion(self, rep):
        assert [p.blocks for p in all_nilpotent_orbits(rep)] == recursive_orbit_blocks(rep)

    REPS = [(4, 4, 4), (3, 3, 3, 3), (2, 3, 2, 3), (2, 2, 2, 2), (3, 3, 2), (2, 3, 4),
            (1, 2, 2, 2, 1, 0), (1, 1, 1, 1, 1, 1), (2, 0, 2, 0), (1, 0)]

    @pytest.mark.parametrize("r", REPS)
    def test_classes_partition_the_orbits(self, r):
        rep = ThetaRep.of(*r)
        members = [p.blocks for _, ms in dihedral_classes(rep) for p in ms]
        assert len(set(members)) == len(members)
        assert sorted(members) == sorted(recursive_orbit_blocks(rep))

    @pytest.mark.parametrize("r", REPS)
    def test_representative_is_least_and_members_are_its_images(self, r):
        rep = ThetaRep.of(*r)
        classes = dihedral_classes(rep)
        for least, members in classes:
            images = symmetry_images(rep, least.blocks)
            assert {p.blocks for p in members} == images
            assert members[0] == least
            assert least.sort_key() == min(p.sort_key() for p in members)
        keys = [least.sort_key() for least, _ in classes]
        assert keys == sorted(keys)
        assert classes[-1][0] == zero_orbit(rep)

    @pytest.mark.parametrize("r, classes, orbits", [((4, 4, 4), 186, 788),
                                                     ((3, 3, 3, 3), 219, 1267),
                                                     ((5, 5, 5), 614, 2899)])
    def test_class_counts(self, r, classes, orbits):
        found = dihedral_classes(ThetaRep.of(*r))
        assert len(found) == classes
        assert sum(len(members) for _, members in found) == orbits


class TestOrbitDimension:
    def test_zero_orbit_has_dimension_zero(self):
        for rep in [ThetaRep.of(3, 3, 3), ThetaRep.of(2, 2), ThetaRep.of(1, 2, 3)]:
            assert orbit_dimension(zero_orbit(rep), rep) == 0

    def test_nilp_ex_dimension(self):
        rep = ThetaRep.of(3, 3, 3)
        p = LabeledPartition(((5, 0), (3, 1), (1, 2)))
        assert orbit_dimension(p, rep) == 27 - 6

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            orbit_dimension(LabeledPartition(((2, 0),)), ThetaRep.of(3, 3, 3))

    def test_max_dimension_identity_333(self):
        rep = ThetaRep.of(3, 3, 3)
        best = max(orbit_dimension(p, rep) for p in enumerate_orbits(rep))
        assert best == 27 - 3 == 24

    def test_max_dimension_identity_sweep(self):
        # the largest nilpotent orbit has codimension = rank, exactly;
        # swept over every normalized vector with n <= 9, orders 2..4,
        # rank zero included (there the densest nilpotent orbit is open)
        from helpers import all_reps

        for rep in all_reps(9, 4) + [ThetaRep.of(2, 2, 2, 2, 1),
                                     ThetaRep.of(1, 1, 1, 1, 1, 1)]:
            dim_g1 = rep.graded_dims()[1]
            if dim_g1 == 0:
                assert enumerate_orbits(rep) == []
                continue
            best = max(orbit_dimension(p, rep) for p in all_nilpotent_orbits(rep))
            assert best == dim_g1 - rep.rank(), rep

    def test_max_dimension_identity_rank_zero(self):
        for r in [(2, 3, 0), (1, 1, 0), (2, 0, 2, 0)]:
            rep = ThetaRep.of(*r)
            dim_g1 = rep.graded_dims()[1]
            best = max(orbit_dimension(p, rep) for p in all_nilpotent_orbits(rep))
            assert best == dim_g1  # rank zero: some nilpotent orbit is open
