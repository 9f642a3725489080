"""Per-orbit verdicts against answers pinned in ``golden_verdicts.json``.

The file covers every positive-rank grading of m=3, n 3..10 and of m=4,
n 4..8, one per cyclic rotation class.  For each it stores the orbit count
and every orbit whose index differs from min(r), with that index, so a
refactor of the rank layers cannot silently change an answer.  Regenerate
with ``python tests/test_golden_verdicts.py`` only when an answer is meant
to change.
"""

import json
from pathlib import Path

from helpers import cached_check_rep, positive_rank_reps

GOLDEN = Path(__file__).with_name("golden_verdicts.json")


def golden_reps():
    return (positive_rank_reps(10, 3, n_min=3, m_min=3)
            + positive_rank_reps(8, 4, n_min=4, m_min=4))


def golden_record(report) -> dict:
    return {
        "r": list(report.rep.r),
        "orbit_count": report.orbit_count,
        "off_bound": {v.orbit.to_text(): v.index_result.index
                      for v in report.verdicts
                      if v.index_result.index != report.rank},
    }


def load_golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


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


if __name__ == "__main__":
    records = [golden_record(cached_check_rep(rep.r)) for rep in golden_reps()]
    lines = ",\n".join(json.dumps(rec) for rec in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} gradings to {GOLDEN}")
