"""Command-line interface: subcommands, formats, exit codes, round trips."""

import csv
import io
import json

import pytest

from thetagib import ThetaRep, check_rep
from thetagib.cli import (
    CSV_COLUMNS,
    SweepSpec,
    emit_report,
    main,
    row_from_dict,
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
        assert len(set(computed_as.values())) == 66
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

    def test_bad_range_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--n", "x", "--m", "3"])


class TestJsonRoundTrip:
    def test_rows_survive_the_wire(self):
        spec = SweepSpec(n_min=4, n_max=6, m_min=3, m_max=3, min_rank=1)
        rows = sweep(spec)
        assert rows
        doc = emit_report(rows, "json")
        back = [row_from_dict(d) for d in json.loads(doc)]
        assert back == rows

    def test_row_dict_schema_stable(self):
        row = row_from_report(check_rep(ThetaRep.of(2, 2, 2, 1)))
        doc = row_to_dict(row)
        assert sorted(doc) == ["agreement", "bad_orbits", "m", "orbit_count",
                               "predicates", "prediction", "r", "rank", "rep_gib"]
        assert doc["rep_gib"] is False
        assert doc["bad_orbits"] == ["3^0 3^2 1^1"]
        assert row_from_dict(doc) == row


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

    def test_denominator_multiple_of_evaluation_prime(self, capsys, tmp_path):
        path = self.write(tmp_path, {"dim_q": 1, "dim_v": 1, "rank": 0,
                                     "brackets": [[0, 0, 0, 1, 2147483647]]})
        code, out, _ = run_cli(capsys, "index-file", path)
        assert code == 0
        assert "index=0" in out and "verdict true" in out

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
