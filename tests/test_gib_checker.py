"""Orbit verdicts and whole-grading reports."""

import pytest

from helpers import cached_check_rep, recursive_orbit_blocks, symmetry_images
from thetagib import LabeledPartition, ThetaRep, check_orbit, check_rep
from thetagib.gib_checker import (
    DECIDED_BY_BOUND_MATCH,
    DECIDED_BY_CERTIFIED_RANK,
    DECIDED_BY_REDUCED_SHAPE,
    UNDECIDED,
)
from thetagib.orbits import all_nilpotent_orbits, zero_orbit
from thetagib.theta_gl import dual_rep
from test_golden_verdicts import golden_reps


class TestCheckOrbit:
    def test_2221_bad_orbit(self):
        rep = ThetaRep.of(2, 2, 2, 1)
        v = check_orbit(rep, LabeledPartition(((3, 0), (3, 2), (1, 1))))
        assert v.gib is False
        assert v.index_result.index == 2 > rep.rank() == 1
        assert v.index_result.certified

    def test_333_bad_orbit(self):
        rep = ThetaRep.of(3, 3, 3)
        v = check_orbit(rep, LabeledPartition(((5, 0), (3, 1), (1, 2))))
        assert v.gib is False
        assert v.index_result.index == 4
        assert v.dim_stabilizer == 6 and v.dim_module == 6

    def test_zero_orbits_always_good(self):
        for r in [(3, 3, 3), (2, 2, 2, 1), (1, 4), (2, 3, 0)]:
            rep = ThetaRep.of(*r)
            v = check_orbit(rep, zero_orbit(rep))
            assert v.gib is True
            assert v.decided_by == DECIDED_BY_BOUND_MATCH

    def test_invalid_orbit_rejected(self):
        with pytest.raises(ValueError):
            check_orbit(ThetaRep.of(2, 2), LabeledPartition(((3, 0),)))

    def test_largest_certify_workload_orbit(self):
        # a 21x24 reduced matrix of rank 20: its Bareiss run is the longest
        # of the four orbits the benchmark's certify workload decides
        rep = ThetaRep.of(4, 4, 5)
        v = check_orbit(rep, LabeledPartition.parse("4^2 2^1 2^2 1^0 1^0 1^1 1^1 1^2"))
        assert v.gib is False
        assert v.index_result.index == 5
        assert v.decided_by == DECIDED_BY_CERTIFIED_RANK

    def test_42x47_class_of_555_is_certified(self):
        # the largest class of (5,5,5), certified rank 41 of 47 on a
        # transversal slice; its elimination needs the least-fill pivots
        # and the zero-cell skip to finish within the budget
        rep = ThetaRep.of(5, 5, 5)
        v = check_orbit(rep, LabeledPartition.parse(
            "2^0 2^0 2^1 2^1 1^0 1^0 1^0 1^1 1^2 1^2 1^2"), cert_timeout=60)
        assert v.decided_by == DECIDED_BY_CERTIFIED_RANK
        assert v.index_result.index == 6
        assert v.gib is False

    @pytest.mark.parametrize("orbit", [
        "2^1 2^1 2^2 2^2 2^2 2^2 1^1 1^1 1^1 1^2",      # 50x43
        "2^1 2^1 2^2 2^2 2^2 1^0 1^1 1^1 1^1 1^2 1^2",  # 52x45
    ])
    def test_n16_classes_of_457_are_certified(self, orbit):
        # two classes at the n 16 frontier; each certifies on a slice
        # through the F_p pivots in well under a second
        v = check_orbit(ThetaRep.of(4, 5, 7), LabeledPartition.parse(orbit), cert_timeout=10)
        assert v.decided_by == DECIDED_BY_CERTIFIED_RANK
        assert v.index_result.index == 6
        assert v.gib is False

    def test_force_certify_decides_exactly(self):
        rep = ThetaRep.of(3, 3, 2)
        v = check_orbit(rep, LabeledPartition(((5, 0), (3, 1))), force_certify=True)
        assert v.decided_by == DECIDED_BY_CERTIFIED_RANK
        assert v.index_result.cert_rank == 1
        assert v.gib is False

    @pytest.mark.parametrize("r, orbit, decided_by, gib", [
        ((3, 3, 3), None, DECIDED_BY_BOUND_MATCH, True),
        # a reduced shape whose first base point has F_p rank 2, below the
        # generic rank 3, so its reduced 3x5 slice is not pinned
        ((2, 2, 2, 2, 1), "4^3 3^1 1^0 1^2", DECIDED_BY_REDUCED_SHAPE, False),
    ])
    def test_blown_forced_certification_keeps_the_cheaper_proof(
            self, monkeypatch, r, orbit, decided_by, gib):
        import thetagib.index_engine as ie

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return certify(*a, **k)

        certify = ie.certified_rank
        monkeypatch.setattr(ie, "certified_rank", counted)
        rep = ThetaRep.of(*r)
        part = zero_orbit(rep) if orbit is None else LabeledPartition.parse(orbit)
        v = check_orbit(rep, part, force_certify=True, max_terms=0)
        assert len(calls) == 1  # attempted, and abandoned at the first term
        assert v.decided_by == decided_by
        assert v.gib is gib

    def test_pinned_slice_certifies_within_no_term_budget(self, monkeypatch):
        # the slice of 5^0 3^1 1^2 at the first base point reduces to 2x4
        # and has F_p rank 2 there: the shape pins the rank, so no
        # elimination runs and a budget of 0 terms still certifies it
        import thetagib.exact_linalg as el

        def forbidden(*a, **k):
            raise AssertionError("Bareiss ran on a pinned slice")

        monkeypatch.setattr(el, "_bareiss_rank", forbidden)
        v = check_orbit(ThetaRep.of(3, 3, 3), LabeledPartition.parse("5^0 3^1 1^2"),
                        force_certify=True, max_terms=0)
        assert v.decided_by == DECIDED_BY_CERTIFIED_RANK
        assert v.index_result.cert_rank == 2
        assert v.gib is False

    @pytest.mark.parametrize("r, orbit, decided_by, gib", [
        ((3, 3, 3), None, DECIDED_BY_BOUND_MATCH, True),
        ((3, 3, 3), "5^0 3^1 1^2", DECIDED_BY_REDUCED_SHAPE, False),
    ])
    def test_certification_given_no_time_keeps_the_cheaper_proof(
            self, r, orbit, decided_by, gib):
        rep = ThetaRep.of(*r)
        part = zero_orbit(rep) if orbit is None else LabeledPartition.parse(orbit)
        v = check_orbit(rep, part, force_certify=True, cert_timeout=0)
        assert v.decided_by == decided_by
        assert v.gib is gib

    def test_negative_cert_timeout_is_rejected(self):
        rep = ThetaRep.of(3, 3, 3)
        with pytest.raises(ValueError, match="cert_timeout"):
            check_orbit(rep, zero_orbit(rep), cert_timeout=-1)

    @pytest.mark.parametrize("field", ["max_terms", "cert_timeout"])
    def test_bad_budget_is_rejected_before_any_matrix_is_built(self, monkeypatch, field):
        import thetagib.gib_checker as gc

        def unreachable(*a, **k):
            raise AssertionError("an action matrix was built")

        monkeypatch.setattr(gc, "build_action_matrix", unreachable)
        rep = ThetaRep.of(3, 3, 3)
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            check_orbit(rep, LabeledPartition.parse("5^0 3^1 1^2"), **{field: -1})


class TestCheckRep:
    def test_224_and_231_are_good(self):
        assert cached_check_rep((2, 2, 4)).rep_gib is True
        assert cached_check_rep((2, 3, 1)).rep_gib is True

    def test_333_report(self):
        report = cached_check_rep((3, 3, 3))
        assert report.rep_gib is False
        assert report.rank == 3
        assert len(report.bad_orbits) == 3
        assert LabeledPartition(((5, 0), (3, 1), (1, 2))) in report.bad_orbits
        assert not report.undecided_orbits

    def test_false_verdicts_carry_certificates(self):
        for r in [(3, 3, 3), (3, 3, 2), (2, 2, 2, 1), (2, 2, 2, 2)]:
            report = cached_check_rep(r)
            assert report.rep_gib is False
            for v in report.verdicts:
                if v.gib is False:
                    assert v.index_result.cert_rank is not None
                    assert v.decided_by in (DECIDED_BY_REDUCED_SHAPE,
                                            DECIDED_BY_CERTIFIED_RANK)

    def test_verdict_order_is_canonical(self):
        report = cached_check_rep((2, 2, 2, 1))
        keys = [v.orbit.sort_key() for v in report.verdicts]
        assert keys == sorted(keys)

    def test_report_counts(self):
        report = cached_check_rep((3, 3, 3))
        assert report.orbit_count == len(report.verdicts) == 192  # zero + 191

    def test_step6_fires_when_shape_shortcut_cannot(self):
        # (3,5) has one bad orbit that only the symbolic elimination decides
        report = cached_check_rep((3, 5))
        hard = [v for v in report.verdicts
                if v.decided_by == DECIDED_BY_CERTIFIED_RANK]
        assert [v.orbit.to_text() for v in hard] == ["3^1 3^1 1^0 1^1"]
        assert hard[0].gib is False
        assert report.rep_gib is False

    def test_term_budget_of_zero_yields_undecided(self):
        # with no symbolic budget, the orbit above must surface as undecided
        # rather than be mis-reported
        report = check_rep(ThetaRep.of(3, 5), max_terms=0)
        assert [p.to_text() for p in report.undecided_orbits] == ["3^1 3^1 1^0 1^1"]
        assert report.rep_gib is None

    def test_certification_time_limit_yields_undecided(self):
        # as with the term budget above: a certification given no time leaves the
        # orbit undecided instead of mis-reporting it
        report = check_rep(ThetaRep.of(3, 5), cert_timeout=0)
        assert [p.to_text() for p in report.undecided_orbits] == ["3^1 3^1 1^0 1^1"]
        assert report.rep_gib is None

    @pytest.mark.parametrize("budget", [{"max_terms": -1}, {"cert_timeout": -1}])
    def test_bad_budget_is_rejected_without_a_queued_certification(self, budget):
        # (2,3,1) is decided by the cheap pass alone
        with pytest.raises(ValueError):
            check_rep(ThetaRep.of(2, 3, 1), **budget)

    def test_every_queued_class_is_attempted_a_blown_one_too(self, monkeypatch):
        # a run that exceeds max_terms does not stop the queue: each class
        # the cheap pass leaves undecided gets its own attempt
        import thetagib.index_engine as ie

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return certify(*a, **k)

        certify = ie.certified_rank
        monkeypatch.setattr(ie, "certified_rank", counted)
        report = check_rep(ThetaRep.of(3, 3, 3, 1), max_terms=0)
        undecided = {v.computed_as for v in report.verdicts if v.decided_by == UNDECIDED}
        assert len(calls) == len(undecided) == 2

    def test_certify_all_certifies_every_orbit(self):
        # each shift class is certified on a transversal slice; over all s
        # indeterminates, the class of 2^0 2^0 2^0 1^2 1^2 1^2 alone ran
        # for minutes
        report = check_rep(ThetaRep.of(3, 3, 3), certify_all=True)
        assert len(report.verdicts) == 192
        assert {v.decided_by for v in report.verdicts} == {DECIDED_BY_CERTIFIED_RANK}
        cheap = cached_check_rep((3, 3, 3))
        assert [(v.orbit, v.gib, v.index_result.index) for v in report.verdicts] == \
            [(v.orbit, v.gib, v.index_result.index) for v in cheap.verdicts]

    def test_verdicts_independent_of_seed(self):
        a = check_rep(ThetaRep.of(2, 2, 3), seed=5)
        b = check_rep(ThetaRep.of(2, 2, 3), seed=11)
        assert a.rep_gib == b.rep_gib
        assert [v.gib for v in a.verdicts] == [v.gib for v in b.verdicts]


def _in_grading_symmetries(rep: ThetaRep, orbit: LabeledPartition):
    """Every image of ``orbit`` other than itself under a map that stays inside ``rep``.

    Yields (plain, image): the mapped blocks before and after canonical
    sorting.  Rotation by c maps a block (l, t) to (l, t + c); reflection
    with c maps it to (l, c - t - l + 1), the block covering the reflected
    residues c - t - l + 1, ..., c - t.  A map is kept when its image is a
    partition of ``rep`` itself.
    """
    m = rep.m
    for c in range(m):
        for plain in ([(l, (t + c) % m) for l, t in orbit.blocks],
                      [(l, (c - t - l + 1) % m) for l, t in orbit.blocks]):
            image = LabeledPartition(tuple(plain))
            if image != orbit and image.valid_for(rep):
                yield tuple(plain), image


def _reflected(orbit: LabeledPartition, m: int) -> LabeledPartition:
    """The image of ``orbit`` under X -> -X^T, in the grading ``dual_rep``."""
    return LabeledPartition(tuple((l, -(t + l - 1) % m) for l, t in orbit.blocks))


def _outcome(v):
    return v.index_result.index, v.gib, v.dim_stabilizer, v.dim_module


class TestShiftClasses:
    """Rotations and reflections that keep the grading: one computation per class."""

    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 2, 2, 2), (2, 3, 2, 3)])
    def test_shifted_orbits_have_equal_verdicts(self, r):
        rep = ThetaRep.of(*r)
        resorted = 0
        for orbit in all_nilpotent_orbits(rep):
            base = _outcome(check_orbit(rep, orbit))
            for plain, image in _in_grading_symmetries(rep, orbit):
                resorted += plain != image.blocks
                assert _outcome(check_orbit(rep, image)) == base, (orbit, image)
        assert resorted > 0

    @pytest.mark.parametrize("r", [(3, 3, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2),
                                   (1, 2, 2, 2, 1, 0)])
    def test_reflected_orbits_have_equal_verdicts(self, r):
        # X -> -X^T carries each orbit of r onto one of dual_rep(r); both
        # sides are computed from scratch, with no class shared
        rep = ThetaRep.of(*r)
        dual = dual_rep(rep)
        orbits = all_nilpotent_orbits(rep)
        images = [_reflected(o, rep.m) for o in orbits]
        assert sorted(images, key=LabeledPartition.sort_key) == all_nilpotent_orbits(dual)
        for orbit, image in zip(orbits, images):
            assert _outcome(check_orbit(rep, orbit)) == \
                _outcome(check_orbit(dual, image)), (orbit, image)

    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 2, 2, 2)])
    def test_check_rep_agrees_with_check_orbit(self, r):
        rep = ThetaRep.of(*r)
        report = cached_check_rep(r)
        assert [v.orbit for v in report.verdicts] == all_nilpotent_orbits(rep)
        reflected_only = 0
        for v in report.verdicts:
            assert _outcome(v) == _outcome(check_orbit(rep, v.orbit)), v.orbit
            if v.computed_as != v.orbit:
                assert v.computed_as.sort_key() < v.orbit.sort_key()
                images = {image for _, image in _in_grading_symmetries(rep, v.orbit)}
                assert v.computed_as in images
                shifts = {LabeledPartition(tuple((l, (t + c) % rep.m)
                                                 for l, t in v.orbit.blocks))
                          for c in range(rep.m)}
                reflected_only += v.computed_as not in shifts
        assert reflected_only > 0

    def test_computed_as_is_the_first_orbit_of_its_class(self):
        # on every golden grading, each verdict reuses the first orbit in
        # canonical order of its class, as keying every orbit did
        for rep in golden_reps():
            first = {}
            for blocks in recursive_orbit_blocks(rep):
                first.setdefault(symmetry_images(rep, blocks), blocks)
            report = cached_check_rep(rep.r)
            assert [(v.orbit.blocks, v.computed_as.blocks) for v in report.verdicts] == \
                [(b, first[symmetry_images(rep, b)]) for b in recursive_orbit_blocks(rep)], rep

    @pytest.mark.parametrize("r, calls", [((3, 3, 3), 51), ((2, 2, 2, 2), 36),
                                          ((2, 3, 4), 105)])
    def test_one_probabilistic_rank_per_class(self, monkeypatch, r, calls):
        import thetagib.index_engine as ie

        counted = []

        def prob(*a, **k):
            counted.append(a)
            return rank(*a, **k)

        rank = ie.probabilistic_rank
        monkeypatch.setattr(ie, "probabilistic_rank", prob)
        report = check_rep(ThetaRep.of(*r))
        assert len(counted) == calls
        assert len({v.computed_as for v in report.verdicts}) == calls
        if r == (2, 3, 4):  # no rotation or reflection keeps it: nothing is shared
            assert calls == report.orbit_count
            assert all(v.computed_as == v.orbit for v in report.verdicts)

    def test_certify_all_certifies_each_class_once(self, monkeypatch):
        import thetagib.index_engine as ie

        counted = []

        def certify(*a, **k):
            counted.append(a)
            return rank(*a, **k)

        rank = ie.certified_rank
        monkeypatch.setattr(ie, "certified_rank", certify)
        # the time limit cuts the 18x18 eliminations near the zero orbit
        # short; a cut attempt still counts, and its cheaper proof stands
        report = check_rep(ThetaRep.of(3, 3, 3), certify_all=True, cert_timeout=0.05)
        assert len(counted) == 51
        certified = [v for v in report.verdicts if v.decided_by == DECIDED_BY_CERTIFIED_RANK]
        assert len(certified) > report.orbit_count // 2
        assert [v.gib for v in report.verdicts] == \
            [v.gib for v in cached_check_rep((3, 3, 3)).verdicts]

    @pytest.mark.parametrize("certify_all", [False, True])
    def test_reductions_are_neither_skipped_nor_repeated(self, monkeypatch, certify_all):
        # the cheap pass reduces a class unless its bound matched, and the
        # certify step reduces nothing: it hands on the action matrix
        import thetagib.gib_checker as gc
        import thetagib.index_engine as ie

        built, reduced = [], []

        def build(*a, **k):
            built.append(matrix(*a, **k))
            return built[-1]

        def reduce(m):
            reduced.append(m)
            return ground(m)

        matrix, ground = gc.build_action_matrix, ie.ground_field_reduce
        monkeypatch.setattr(gc, "build_action_matrix", build)
        monkeypatch.setattr(ie, "ground_field_reduce", reduce)
        report = check_rep(ThetaRep.of(3, 3, 3), certify_all=certify_all,
                           cert_timeout=0.05 if certify_all else None)
        reps = {v.computed_as for v in report.verdicts if v.computed_as == v.orbit}
        assert len(built) == len(reps) == 51
        times = [sum(r is m for r in reduced) for m in built]
        # classes are built in canonical order, as their representatives; the
        # cheap pass, seeded alike, matches the bounds of the plain run
        plain = {v.orbit: v.decided_by for v in cached_check_rep((3, 3, 3)).verdicts}
        matched = [plain[o] == DECIDED_BY_BOUND_MATCH
                   for o in sorted(reps, key=lambda o: o.sort_key())]
        assert 0 < sum(matched) < 51
        assert times == [0 if bound else 1 for bound in matched]
        assert len(reduced) == sum(times)

    @pytest.mark.parametrize("r", [(3, 3, 3), (2, 2, 2, 2), (2, 3, 4), (1, 2, 2, 2, 1, 0)])
    def test_rank_ceiling_changes_no_result(self, monkeypatch, r):
        # every point rank is at most the generic rank, which Vinberg's
        # inequality puts at most dim - min(r): stopping there loses nothing
        import thetagib.index_engine as ie

        capped = check_rep(ThetaRep.of(*r))
        ceilings = []

        def uncapped(matrix, seed, ceiling):
            ceilings.append(ceiling)
            return rank(matrix, seed=seed)

        rank = ie.probabilistic_rank
        monkeypatch.setattr(ie, "probabilistic_rank", uncapped)
        plain = check_rep(ThetaRep.of(*r))
        assert [v.index_result for v in capped.verdicts] == \
            [v.index_result for v in plain.verdicts]
        assert ceilings and all(c >= 0 for c in ceilings)

    def test_bound_matched_classes_run_one_trial(self, monkeypatch):
        # on (3,3,3) each class runs one point rank, which for the 50
        # bound-matched classes reaches dim - min(r); a class whose ceiling
        # dim - min(r) is 0 runs none
        import thetagib.exact_linalg as el

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return point_rank(*a, **k)

        point_rank = el.rank_at_point_mod
        monkeypatch.setattr(el, "rank_at_point_mod", counted)
        report = check_rep(ThetaRep.of(3, 3, 3))
        classes = [v for v in report.verdicts if v.computed_as == v.orbit]
        matched = sum(v.decided_by == DECIDED_BY_BOUND_MATCH for v in classes)
        at_zero = sum(v.dim_module == report.rank for v in classes)
        assert (len(classes), matched, at_zero) == (51, 50, 1)
        assert len(calls) == matched - at_zero + (len(classes) - matched) == 50

    @pytest.mark.parametrize("orbit", ["5^0 3^1 1^2", "4^0 4^1 1^2"])
    def test_a_point_that_loses_rank_falls_through_to_certification(self, monkeypatch, orbit):
        # the one F_p point is a lower bound even when it hits a zero of a
        # top minor: the bad orbit's reduced shape and the good orbit's
        # bound match then fail, and the certified rank gives the same verdict
        import thetagib.exact_linalg as el

        rep = ThetaRep.of(3, 3, 3)
        part = LabeledPartition.parse(orbit)
        plain = check_orbit(rep, part)
        ranks = []

        def first_point_loses_rank(*a, **k):
            ranks.append(point_rank(*a, **k) - (not ranks))
            return ranks[-1]

        point_rank = el.rank_at_point_mod
        monkeypatch.setattr(el, "rank_at_point_mod", first_point_loses_rank)
        v = check_orbit(rep, part)
        assert len(ranks) == 1 and v.index_result.prob_rank == plain.index_result.prob_rank - 1
        assert v.decided_by == DECIDED_BY_CERTIFIED_RANK != plain.decided_by
        assert (v.index_result.index, v.gib) == (plain.index_result.index, plain.gib)

    def test_bad_orbits_of_333_share_one_certificate(self):
        report = cached_check_rep((3, 3, 3))
        bad = [v for v in report.verdicts if v.gib is False]
        assert [str(v.orbit) for v in bad] == ["5^0 3^1 1^2", "5^1 3^2 1^0",
                                               "5^2 3^0 1^1"]
        assert {v.computed_as for v in bad} == {bad[0].orbit}
        assert all(v.index_result is bad[0].index_result for v in bad)
        assert bad[0].index_result.cert_rank is not None
