"""Command-line interface: subcommands, formats, exit codes, round trips."""

import csv
import io
import json
import sys

import pytest

from helpers import SKEW_DOCUMENT
from thetagib import EVAL_PRIME, ThetaRep, check_rep
from thetagib.cli import (
    CSV_COLUMNS,
    SweepSpec,
    emit_report,
    main,
    row_from_report,
    row_to_dict,
    sweep,
    sweep_reps,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheckCommand:
    def test_good_grading_text(self, capsys):
        code, out, _ = run_cli(capsys, "check", "2,2,4")
        assert code == 0
        assert "gib: true" in out
        assert "rank: 2" in out

    def test_bad_grading_lists_certificates(self, capsys):
        code, out, _ = run_cli(capsys, "check", "3,3,2")
        assert code == 0  # completed; verdicts are data, not errors
        assert "gib: false" in out
        assert "5^0 3^1" in out
        assert "certified rank" in out

    def test_long_form_parse_and_kac(self, capsys):
        code, out, _ = run_cli(capsys, "check", "m=4 r=3,3,1,2")
        assert code == 0
        assert "●oo●oo●●o" in out

    def test_json_detail(self, capsys):
        code, out, _ = run_cli(capsys, "check", "2,2,2,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rep_gib"] is False
        assert "3^0 3^2 1^1" in doc["bad_orbits"]
        orbits = {o["orbit"]: o for o in doc["orbits"]}
        bad = orbits["3^0 3^2 1^1"]
        assert bad["index"] == 2 and bad["certified"] is True

    def test_certify_all_small(self, capsys):
        code, out, _ = run_cli(capsys, "check", "1,1", "--certify-all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(o["certified"] for o in doc["orbits"])

    def test_consecutive_calls_do_not_share_flags(self, capsys):
        code, out, _ = run_cli(capsys, "check", "2,2,1", "--certify-all", "--format", "json")
        assert code == 0
        assert {o["decided_by"] for o in json.loads(out)["orbits"]} == {"certified-rank"}
        code, out, _ = run_cli(capsys, "check", "2,2,1", "--format", "json")
        assert code == 0
        assert "certified-rank" not in {o["decided_by"] for o in json.loads(out)["orbits"]}
        code, out, _ = run_cli(capsys, "check", "2,2,1")
        assert code == 0 and out.startswith("grading ")

    def test_max_terms_bounds_certification(self, capsys):
        # no term budget: the one orbit of (3,5) that needs a Bareiss run is
        # reported undecided, as check_rep(..., max_terms=0) reports it
        code, out, _ = run_cli(capsys, "check", "3,5", "--max-terms", "0",
                               "--format", "json")
        assert code == 2
        undecided = [o["orbit"] for o in json.loads(out)["orbits"]
                     if o["decided_by"] == "undecided"]
        assert undecided == ["3^1 3^1 1^0 1^1"]

    def test_negative_max_terms_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "3,5", "--max-terms", "-1")
        assert code == 1
        assert "max_terms" in err

    def test_cert_timeout_bounds_certification(self, capsys):
        code, out, _ = run_cli(capsys, "check", "3,5", "--cert-timeout", "0",
                               "--format", "json")
        assert code == 2
        undecided = [o["orbit"] for o in json.loads(out)["orbits"]
                     if o["decided_by"] == "undecided"]
        assert undecided == ["3^1 3^1 1^0 1^1"]

    def test_negative_cert_timeout_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "3,5", "--cert-timeout", "-1")
        assert code == 1
        assert "cert_timeout" in err

    def test_json_names_the_computed_representative(self, capsys):
        code, out, _ = run_cli(capsys, "check", "3,3,3", "--format", "json")
        assert code == 0
        computed_as = {o["orbit"]: o["computed_as"] for o in json.loads(out)["orbits"]}
        assert len(computed_as) == 192
        assert len(set(computed_as.values())) == 51
        for bad in ("5^0 3^1 1^2", "5^1 3^2 1^0", "5^2 3^0 1^1"):
            assert computed_as[bad] == "5^0 3^1 1^2"

    def test_bad_vector_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "3,x,2")
        assert code == 1
        assert "error" in err

    def test_malformed_grading_names_the_accepted_forms(self, capsys):
        code, out, err = run_cli(capsys, "check", "m=4 3,3")
        assert code == 1
        assert out == ""
        assert err == ("error: cannot parse grading 'm=4 3,3': expected "
                       '"3,3,1,2" or "m=4 r=3,3,1,2"\n')

    def test_undecided_exit_code(self, capsys, monkeypatch):
        import thetagib.index_engine as ie

        def explode(*a, **k):
            raise ie.ResourceLimitExceeded("forced for the test")

        monkeypatch.setattr(ie, "certified_rank", explode)
        code, out, _ = run_cli(capsys, "check", "3,5")
        assert code == 2
        assert "undecided" in out


class TestUsage:
    @pytest.mark.parametrize("argv, code", [
        (["check", "3,3,2", "--format", "xml"], 1),
        (["check", "3,3,2", "--seed", "abc"], 1),
        (["check"], 1),
        (["frobnicate"], 1),
        (["--help"], 0),
        (["check", "--help"], 0),
        (["index-file", "doc.json", "--format", "csv"], 1),
    ])
    def test_usage_error_exits_one_and_help_zero(self, capsys, argv, code):
        # argparse exits 2 by default, which here means an undecided verdict
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert "usage: thetagib" in (capsys.readouterr().err if code else
                                     capsys.readouterr().out)

    def test_import_leaves_multiprocessing_unloaded(self):
        # only sweep's worker pool needs it, and loading it slows every start
        import os
        import subprocess

        import thetagib

        # the child imports the same package as this process
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetagib.__file__))}
        code = "import sys, thetagib.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out == "False\n"


class TestSweepCommand:
    def test_m3_n6_families(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "6", "--m", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("m=")]
        verdicts = {}
        for line in lines:
            r = line.split("r=(")[1].split(")")[0]
            verdicts[r] = "gib=true" in line
        assert verdicts == {"1,1,4": True, "1,2,3": True, "1,3,2": True,
                            "2,2,2": True}

    def test_m4_n4_all_black_torus(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "4")
        assert code == 0
        assert "r=(1,1,1,1)" in out
        line = next(l for l in out.splitlines() if "r=(1,1,1,1)" in l)
        assert "gib=true" in line
        assert "kac=●●●●" in line

    def test_n8_m3_contains_332_false(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "8", "--m", "3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        row = next(r for r in rows if r["r"] == "2,3,3")  # normalized (3,3,2)
        assert row["rep_gib"] == "false"
        assert row["agreement"] == "true"
        assert row["bad_orbits"]

    def test_csv_column_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--m", "3",
                               "--format", "csv")
        header = out.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS) == \
            "m,r,rank,orbit_count,rep_gib,bad_orbits,agreement"

    def test_empty_sweep_documents(self, capsys):
        for fmt, probe in [("json", lambda o: json.loads(o) == []),
                           ("csv", lambda o: o.splitlines() == [",".join(CSV_COLUMNS)]),
                           ("text", lambda o: "no gradings" in o)]:
            code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--m", "4",
                                   "--format", fmt)
            assert code == 0
            assert probe(out), fmt

    def test_include_rank_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "3",
                               "--include-rank-zero", "--format", "json")
        rows = json.loads(out)
        assert any(0 in row["r"] for row in rows)
        assert all(row["rep_gib"] is not None for row in rows)

    def test_agreement_never_false_across_ranges(self, capsys):
        # wherever a closed-form statement predicts a verdict, the computed
        # verdict matches it
        code, out, _ = run_cli(capsys, "sweep", "--n", "2:8", "--m", "2:4",
                               "--include-rank-zero", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows
        assert all(r["agreement"] in (True, None) for r in rows)
        assert any(r["agreement"] is True for r in rows)

    def test_dedup_mode_only_changes_the_quotient(self, capsys):
        code, full, _ = run_cli(capsys, "sweep", "--n", "5", "--m", "3",
                                "--no-dedup", "--format", "json")
        code2, deduped, _ = run_cli(capsys, "sweep", "--n", "5", "--m", "3",
                                    "--format", "json")
        assert code == code2 == 0
        from thetagib.theta_gl import rotations as rots

        verdicts = {min(rots(tuple(r["r"]))): r["rep_gib"]
                    for r in json.loads(deduped)}
        for row in json.loads(full):
            assert verdicts[min(rots(tuple(row["r"])))] == row["rep_gib"]
        assert len(json.loads(full)) > len(json.loads(deduped))

    @pytest.mark.parametrize("n_min, n_max, m", [(3, 10, 3), (4, 8, 4)])
    def test_reused_reports_list_the_golden_bad_orbits(self, n_min, n_max, m):
        # a grading whose report is reused from its reflection lists the
        # mapped bad orbits in the order check_rep on it would
        from test_golden_verdicts import load_golden

        golden = {tuple(g["r"]): list(g["off_bound"]) for g in load_golden()}
        rows = sweep(SweepSpec(n_min, n_max, m, m))
        assert rows
        for row in rows:
            assert list(row.bad_orbits) == golden[row.r], row.r

    def test_rows_match_one_check_rep_per_grading(self):
        spec = SweepSpec(3, 6, 3, 3, dedup_cyclic=False)
        assert sweep(spec) == [row_from_report(check_rep(rep)) for rep in sweep_reps(spec)]

    @pytest.mark.parametrize("source, target", [((3, 3, 4), (3, 4, 3)),
                                                ((2, 2, 2, 3), (2, 2, 3, 2)),
                                                ((3, 3, 2), (2, 3, 3))])
    def test_mapped_report_gives_the_target_row(self, source, target):
        # mapping the 11 bad orbits of (3,3,4) and the 4 of (2,2,2,3) by
        # label rotation changes their order; the row lists them canonically
        mapped = row_from_report(check_rep(ThetaRep.of(*source)), ThetaRep.of(*target))
        assert mapped == row_from_report(check_rep(ThetaRep.of(*target)))
        assert mapped.bad_orbits

    def test_report_maps_only_within_its_dihedral_class(self):
        with pytest.raises(ValueError, match="not a rotation or reflection"):
            row_from_report(check_rep(ThetaRep.of(1, 2, 3)), ThetaRep.of(2, 2, 2))

    def test_one_check_rep_per_dihedral_class(self, monkeypatch):
        import thetagib.cli as cli

        checked = []

        def counted(rep, **kwargs):
            checked.append(rep.r)
            return check(rep, **kwargs)

        check = cli.check_rep
        monkeypatch.setattr(cli, "check_rep", counted)
        rows = sweep(SweepSpec(3, 10, 3, 3)) + sweep(SweepSpec(4, 8, 4, 4))
        assert (len(rows), len(checked)) == (62, 48)
        assert (1, 2, 3) in checked and (1, 3, 2) not in checked

    def test_jobs_parallel_matches_serial(self, capsys):
        code1, out1, _ = run_cli(capsys, "sweep", "--n", "5:6", "--m", "3",
                                 "--format", "json")
        code2, out2, _ = run_cli(capsys, "sweep", "--n", "5:6", "--m", "3",
                                 "--format", "json", "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_max_terms_is_forwarded(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "8", "--m", "2",
                               "--max-terms", "0", "--format", "json")
        assert code == 2
        rows = {tuple(d["r"]): d for d in json.loads(out)}
        assert rows[(3, 5)]["rep_gib"] is None

    def test_cert_timeout_is_forwarded(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "8", "--m", "2",
                               "--cert-timeout", "0", "--format", "json")
        assert code == 2
        rows = {tuple(d["r"]): d for d in json.loads(out)}
        assert rows[(3, 5)]["rep_gib"] is None

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_an_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--m", "3",
                                 "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "jobs must be >= 1" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-terms", "-1", "max_terms must be >= 0, got -1"),
        ("--cert-timeout", "-5", "cert_timeout must be >= 0, got -5.0"),
    ], ids=["max_terms", "cert_timeout"])
    def test_bad_budget_is_an_error_on_an_empty_range(self, capsys, flag, value, message):
        # n 1:2 with m 3 holds no grading, so no check_rep sees the budget
        code, out, err = run_cli(capsys, "sweep", "--n", "1:2", "--m", "3", flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_sixteen_parts_of_sixteen_are_one_grading(self):
        # every entry at least min_rank = 1: the enumeration must not walk
        # the C(31, 15) vectors that hold a zero
        assert sweep_reps(SweepSpec(16, 16, 16, 16)) == [ThetaRep(16, (1,) * 16)]

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("min_rank", [0, 1, 2])
    def test_gradings_are_the_filtered_vectors(self, min_rank, dedup):
        from itertools import product

        from thetagib.theta_gl import rotations as rots

        expected = {(m, min(rots(r)) if dedup else r)
                    for m in range(2, 6) for r in product(range(8), repeat=m)
                    if 1 <= sum(r) <= 7 and min(r) >= min_rank}
        spec = SweepSpec(1, 7, 2, 5, min_rank=min_rank, dedup_cyclic=dedup)
        assert sweep_reps(spec) == [ThetaRep(m, r) for m, r in
                                    sorted(expected, key=lambda mr: (mr[0], sum(mr[1]), mr[1]))]

    def test_negative_min_rank_is_rejected(self):
        # like a bad n or m range, not read as min_rank = 0
        with pytest.raises(ValueError, match="need min_rank >= 0"):
            SweepSpec(3, 3, 3, 3, min_rank=-1)

    def test_workers_never_outnumber_the_representatives(self, monkeypatch):
        # a forking executor starts all max_workers processes at its first
        # submit; m=3 n 3:4 has two dihedral classes, so two workers suffice
        import concurrent.futures

        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        spec = SweepSpec(3, 4, 3, 3)
        assert sweep(spec, jobs=64) == sweep(spec)
        assert workers == [2]

    def test_bad_range_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--n", "x", "--m", "3"])


class TestJsonRoundTrip:
    def test_rows_survive_the_wire(self):
        spec = SweepSpec(n_min=4, n_max=6, m_min=3, m_max=3, min_rank=1)
        rows = sweep(spec)
        assert rows
        doc = emit_report(rows, "json")
        assert json.loads(doc) == [row_to_dict(r) for r in rows]

    def test_row_dict_schema_stable(self):
        row = row_from_report(check_rep(ThetaRep.of(2, 2, 2, 1)))
        doc = row_to_dict(row)
        assert sorted(doc) == ["agreement", "bad_orbits", "m", "orbit_count",
                               "predicates", "prediction", "r", "rank", "rep_gib"]
        assert doc["rep_gib"] is False
        assert doc["bad_orbits"] == ["3^0 3^2 1^1"]


class TestOrbitsCommand:
    def test_text_listing(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "2,2")
        assert code == 0
        assert "nilpotent orbits" in out
        assert "2^0 2^1" in out

    def test_json_counts(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "3,3,3", "--format", "json")
        doc = json.loads(out)
        assert doc["orbit_count"] == 192
        zero = doc["orbits"][-1]
        assert zero["orbit"].startswith("1^0") and zero["dim_orbit"] == 0

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "1,2", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["orbit"] for r in rows} == {"3^1", "2^0 1^1", "2^1 1^1",
                                               "1^0 1^1 1^1"}

    def test_one_centralizer_per_orbit(self, capsys, monkeypatch):
        import thetagib.centralizer
        import thetagib.cli
        from thetagib.orbits import all_nilpotent_orbits

        calls = []
        build = thetagib.centralizer.build_centralizer

        def counted(*a, **k):
            calls.append(a)
            return build(*a, **k)

        monkeypatch.setattr(thetagib.centralizer, "build_centralizer", counted)
        monkeypatch.setattr(thetagib.cli, "build_centralizer", counted)
        code, _, _ = run_cli(capsys, "orbits", "3,3,2")
        assert code == 0
        assert len(calls) == len(all_nilpotent_orbits(ThetaRep.of(3, 3, 2)))


class TestIndexFileCommand:
    def write(self, tmp_path, doc):
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_true_verdict(self, capsys, tmp_path):
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 1, "brackets": [],
                                     "rank": 1})
        code, out, _ = run_cli(capsys, "index-file", path)
        assert code == 0
        assert "index=1" in out and "verdict true" in out

    def test_false_verdict_certifies_first(self, capsys, tmp_path):
        from thetagib import build_centralizer, export_action
        from thetagib.orbits import LabeledPartition

        cent = build_centralizer(LabeledPartition(((3, 0), (3, 2), (1, 1))), 4)
        path = self.write(tmp_path, export_action(cent, declared_rank=1))
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["index"] == 2 and doc["matches_declared"] is False
        assert doc["certified"] is True

    def orbit_doc(self, tmp_path, r, orbit):
        from thetagib import build_centralizer, export_action
        from thetagib.orbits import LabeledPartition

        rep = ThetaRep.of(*r)
        cent = build_centralizer(LabeledPartition.parse(orbit), rep.m)
        return self.write(tmp_path, export_action(cent, declared_rank=rep.rank()))

    def test_mismatch_runs_one_probabilistic_rank(self, capsys, tmp_path, monkeypatch):
        import thetagib.index_engine as ie

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return prob(*a, **k)

        prob = ie.probabilistic_rank
        monkeypatch.setattr(ie, "probabilistic_rank", counted)
        path = self.orbit_doc(tmp_path, (2, 2, 2, 1), "3^0 3^2 1^1")
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0 and json.loads(out)["matches_declared"] is False
        assert len(calls) == 1

    def test_declared_rank_is_no_bound_match_premise(self, capsys, tmp_path, monkeypatch):
        # a declared rank is no proven bound: dim - rank = 0 reached by a
        # point that lost rank must not match it, so the one point rank
        # falls through to certification
        import thetagib.exact_linalg as el

        ranks = []

        def first_point_loses_rank(*a, **k):
            ranks.append(0 if not ranks else point_rank(*a, **k))
            return ranks[-1]

        point_rank = el.rank_at_point_mod
        monkeypatch.setattr(el, "rank_at_point_mod", first_point_loses_rank)
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 1, "rank": 1,
                                     "brackets": [[0, 0, 0, 1, 1]]})
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert ranks == [0]
        assert (doc["prob_rank"], doc["index"]) == (0, 0)
        assert doc["matches_declared"] is False
        assert doc["decided_by"] == "certified-rank"

    def test_exported_bound_matches_after_one_trial(self, capsys, tmp_path, monkeypatch):
        # an exported orbit carries min(r) as its proven bound, which caps
        # the trials; without the field the same document is certified
        import thetagib.exact_linalg as el

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return point_rank(*a, **k)

        point_rank = el.rank_at_point_mod
        monkeypatch.setattr(el, "rank_at_point_mod", counted)
        path = self.orbit_doc(tmp_path, (3, 3, 2), "4^0 4^1")
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["decided_by"] == "probabilistic-bound-match" and len(calls) == 1
        assert (doc["index"], doc["index_lower_bound"], doc["matches_declared"]) == (2, 2, True)
        bare = json.loads((tmp_path / "action.json").read_text())
        del bare["index_lower_bound"]
        code, out, _ = run_cli(capsys, "index-file", self.write(tmp_path, bare),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["decided_by"] == "certified-rank" and doc["index_lower_bound"] is None
        assert (doc["index"], doc["matches_declared"]) == (2, True)

    def test_bare_rank_is_no_bound_match(self, capsys, tmp_path):
        # the probabilistic index equals the bare rank and the reduced shape
        # does not pin it: certified, or undecided once the budget is blown
        path = self.write(tmp_path, SKEW_DOCUMENT)
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["decided_by"] == "certified-rank" and doc["certified"] is True
        assert (doc["index"], doc["matches_declared"]) == (1, True)
        code, out, _ = run_cli(capsys, "index-file", path, "--max-terms", "0",
                               "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["decided_by"] == "undecided" and doc["matches_declared"] is None

    def test_certification_packs_only_the_used_indeterminates(self, capsys, tmp_path):
        # the skew document padded to 300000 module coordinates: its reduced
        # 3x3 matrix uses three of them, and packing exponents for all of
        # them would take seconds before the first read of the deadline
        path = self.write(tmp_path, {**SKEW_DOCUMENT, "dim_v": 300000})
        code, out, _ = run_cli(capsys, "index-file", path, "--cert-timeout", "0.5",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["decided_by"] == "certified-rank" and doc["index"] == 299998

    @pytest.mark.parametrize("bound", [-1, True, 1.5, 2])
    def test_invalid_index_lower_bound(self, capsys, tmp_path, bound):
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 1, "brackets": [],
                                     "index_lower_bound": bound})
        code, _, err = run_cli(capsys, "index-file", path)
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "index_lower_bound" in err

    def test_reduced_shape_decides_without_bareiss(self, capsys, tmp_path, monkeypatch):
        # 28x28 and prob 23 equal to the reduced row count: no elimination,
        # which on this matrix runs for more than a minute
        import thetagib.index_engine as ie

        def forbidden(*a, **k):
            raise AssertionError("certified_rank must not run")

        monkeypatch.setattr(ie, "certified_rank", forbidden)
        path = self.orbit_doc(tmp_path, (4, 4, 4), "2^0 2^0 2^1 2^1 1^0 1^0 1^2 1^2")
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["dim_v"], doc["prob_rank"], doc["index"]) == (28, 23, 5)
        assert doc["certified"] is True and doc["decided_by"] == "reduced-shape"
        assert doc["matches_declared"] is False

    def test_undecided_exit_code(self, capsys, tmp_path, monkeypatch):
        import thetagib.index_engine as ie

        def explode(*a, **k):
            raise ie.ResourceLimitExceeded("forced for the test")

        monkeypatch.setattr(ie, "certified_rank", explode)
        # only the symbolic elimination decides this orbit of (3,5)
        path = self.orbit_doc(tmp_path, (3, 5), "3^1 3^1 1^0 1^1")
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["decided_by"] == "undecided" and doc["matches_declared"] is None

    def test_max_terms_is_forwarded(self, capsys, tmp_path):
        path = self.orbit_doc(tmp_path, (3, 5), "3^1 3^1 1^0 1^1")
        code, out, _ = run_cli(capsys, "index-file", path, "--max-terms", "0",
                               "--format", "json")
        assert code == 2
        assert json.loads(out)["decided_by"] == "undecided"

    def test_cert_timeout_is_forwarded(self, capsys, tmp_path):
        path = self.orbit_doc(tmp_path, (3, 5), "3^1 3^1 1^0 1^1")
        code, out, _ = run_cli(capsys, "index-file", path, "--cert-timeout", "0",
                               "--format", "json")
        assert code == 2
        assert json.loads(out)["decided_by"] == "undecided"

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-terms", "-1", "max_terms must be >= 0, got -1"),
        ("--cert-timeout", "-5", "cert_timeout must be >= 0, got -5.0"),
    ], ids=["max_terms", "cert_timeout"])
    @pytest.mark.parametrize("extra", [{}, {"index_lower_bound": 1}], ids=["bare", "bound"])
    def test_bad_budget_is_an_error_on_every_document(self, capsys, tmp_path, extra,
                                                      flag, value, message):
        # a bare document is never certified, but its budget is still checked
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 1, "brackets": [], **extra})
        code, out, err = run_cli(capsys, "index-file", path, flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_denominator_multiple_of_evaluation_prime(self, capsys, tmp_path):
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 1, "rank": 0,
                                     "brackets": [[0, 0, 0, 1, EVAL_PRIME]]})
        code, out, _ = run_cli(capsys, "index-file", path)
        assert code == 0
        assert "index=0" in out and "verdict true" in out

    def test_row_content_multiple_of_evaluation_prime(self, capsys, tmp_path):
        # the row p*a1, p*a2 vanishes at every point mod p unless it is
        # stored primitive, as a1, a2
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 2, "brackets": [
            [0, 0, 0, EVAL_PRIME, 1], [0, 1, 1, EVAL_PRIME, 1]]})
        code, out, _ = run_cli(capsys, "index-file", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["prob_rank"], doc["index"]) == (1, 1)
        assert doc["decided_by"] == "reduced-shape"

    def test_torus_full_rank(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "dim_q": 3, "dim_v": 3, "rank": 0,
            "brackets": [[0, 0, 0, 1, 1], [1, 1, 1, 2, 1], [2, 2, 2, 5, 1]],
        })
        code, out, _ = run_cli(capsys, "index-file", path)
        assert code == 0
        assert "index=0" in out and "verdict true" in out

    def test_malformed_json_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim_q": 1, ')
        code, _, err = run_cli(capsys, "index-file", str(path))
        assert code == 1
        assert "line 1" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, "index-file", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    def test_document_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        code, _, err = run_cli(capsys, "index-file", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "0xff" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no integer string limit")
    def test_integer_literal_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"dim_q": ' + "1" * 5000 + ', "dim_v": 1}')
        code, _, err = run_cli(capsys, "index-file", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "integer string conversion" in err
        assert "Traceback" not in err

    def test_schema_error_location(self, capsys, tmp_path):
        path = self.write(tmp_path, {"dim_q": 2, "dim_v": 2,
                                     "brackets": [[0, 0, 9, 1, 1]]})
        code, _, err = run_cli(capsys, "index-file", str(path))
        assert code == 1
        assert "brackets[0]" in err and "k=9" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "index-file", "/does/not/exist.json")
        assert code == 1
        assert "cannot read" in err
