"""Per-orbit verdicts against answers pinned in ``golden_verdicts.json``.

The file covers every positive-rank grading of m=3, n 3..10 and of m=4,
n 4..8, one per cyclic rotation class.  For each it stores the orbit count
and every orbit whose index differs from min(r), with that index, so a
refactor of the rank layers cannot silently change an answer.  Regenerate
with ``python tests/test_golden_verdicts.py`` only when an answer is meant
to change.

``golden_verdicts_beyond.json`` pins, in the same format, the gradings of
m=3 n 11..15, m=4 n 9..12, m=5 n 5..10 and m=6 n 6..9.  Checking them here
would take as long as a sweep, so the tests only read it; CI regenerates it
with ``python tests/test_golden_verdicts.py beyond`` (about a minute, with
``cert_timeout=60``) and diffs the result.
Neither file is written while any orbit of a grading is undecided.
"""

import json
import sys
from pathlib import Path

from helpers import cached_check_rep, positive_rank_reps
from thetagib import ThetaRep, check_rep, predicted_gib

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
BEYOND = Path(__file__).with_name("golden_verdicts_beyond.json")
#: (m, n_min, n_max) of each range in ``BEYOND``.
BEYOND_RANGES = [(3, 11, 15), (4, 9, 12), (5, 5, 10), (6, 6, 9)]


def golden_reps():
    return (positive_rank_reps(10, 3, n_min=3, m_min=3)
            + positive_rank_reps(8, 4, n_min=4, m_min=4))


def beyond_reps():
    return [rep for m, n_min, n_max in BEYOND_RANGES
            for rep in positive_rank_reps(n_max, m, n_min=n_min, m_min=m)]


def golden_record(report) -> dict:
    if report.undecided_orbits:
        raise ValueError(f"{report.rep} has undecided orbits; nothing is pinned")
    return {
        "r": list(report.rep.r),
        "orbit_count": report.orbit_count,
        "off_bound": {v.orbit.to_text(): v.index_result.index
                      for v in report.verdicts
                      if v.index_result.index != report.rank},
    }


def load_golden(path: Path = GOLDEN) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def test_golden_file_covers_the_sweep_ranges():
    golden = load_golden()
    assert [tuple(g["r"]) for g in golden] == [rep.r for rep in golden_reps()]
    assert sum(len(g["r"]) == 3 for g in golden) == 42
    assert sum(len(g["r"]) == 4 for g in golden) == 20


def test_check_rep_matches_golden_verdicts():
    mismatches = []
    for expected in load_golden():
        report = cached_check_rep(tuple(expected["r"]))
        assert not report.undecided_orbits, expected["r"]
        got = golden_record(report)
        if got != expected:
            mismatches.append((expected, got))
    assert not mismatches, mismatches


def test_beyond_file_covers_its_ranges():
    beyond = load_golden(BEYOND)
    assert [tuple(g["r"]) for g in beyond] == [rep.r for rep in beyond_reps()]
    assert [sum(len(g["r"]) == m for g in beyond) for m in (3, 4, 5, 6)] == [113, 109, 52, 16]


def test_beyond_file_agrees_with_the_predictions():
    # a grading has good index behaviour iff no orbit is off the bound, and
    # every grading in these ranges has a prediction
    disagree = [g["r"] for g in load_golden(BEYOND)
                if (not g["off_bound"]) != predicted_gib(ThetaRep.of(*g["r"]))]
    assert not disagree


if __name__ == "__main__":
    if sys.argv[1:] == ["beyond"]:
        path = BEYOND
        records = [golden_record(check_rep(rep, cert_timeout=60)) for rep in beyond_reps()]
    else:
        path = GOLDEN
        records = [golden_record(cached_check_rep(rep.r)) for rep in golden_reps()]
    lines = ",\n".join(json.dumps(rec) for rec in records)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} gradings to {path}")
