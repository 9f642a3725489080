"""Workload inputs and runners for the thetagib pipeline benchmark.

A workload is a list of requests, each a zero-argument call into the
package's public API.  A request returns verdict items
``(item_id, pinned_values, how, undecided)``: ``pinned_values`` is what the
verdict gate compares with ``reference.json``, ``how`` names the route that
decided the item (counted, never gated), and ``undecided`` marks an item
the package could not decide.

Calls go through module attributes (``gib_checker.check_rep``,
``cli.sweep``, ``cli.main``) so that the traced run sees them through its
wrappers.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from thetagib import LabeledPartition, ThetaRep, build_centralizer, cli, export_action, gib_checker
from thetagib.orbits import all_nilpotent_orbits

#: ``full`` is what the benchmark measures; ``tiny`` is the self-test size.
SPECS = {
    "full": {
        "grading": [(4, 4, 4), (3, 3, 3, 3)],
        # (n_min, n_max, m)
        "sweep": [(3, 10, 3), (4, 8, 4)],
        # four bad orbits, pairwise not equivalent under a label shift, whose
        # Bareiss runs take about 7 s together, so that a run holds several
        # passes (README.md says why)
        "certify": [
            ((4, 4, 5), "4^2 2^1 2^2 1^0 1^0 1^1 1^1 1^2"),
            ((5, 5, 5), "4^0 4^0 2^1 2^1 2^2 1^1"),
            ((5, 5, 5), "4^0 4^0 3^2 2^1 1^1 1^2"),
            ((4, 4, 5), "4^2 4^2 1^0 1^0 1^1 1^1 1^2"),
        ],
        # (grading, orbits); None means every orbit of the grading
        "index_doc": ((3, 3, 3, 3), None),
    },
    "tiny": {
        "grading": [(3, 3, 3)],
        "sweep": [(3, 5, 3)],
        "certify": [((4, 4, 4), "5^0 3^0 3^1 1^2")],
        "index_doc": ((3, 3, 3, 3), [
            "12^0",
            "4^0 3^0 3^2 1^1 1^3",
            "2^3 2^3 1^0 1^1 1^1 1^1 1^2 1^2 1^2 1^3",
            "1^0 1^0 1^0 1^1 1^1 1^1 1^2 1^2 1^2 1^3 1^3 1^3",
        ]),
    },
}

#: Numerators and denominators of the random row scales in index_doc.
SCALE_RANGE = 97


def _orbit_id(rep: ThetaRep, orbit: LabeledPartition) -> str:
    return f"{rep.to_text()} | {orbit.to_text()}"


def _verdict_item(rep: ThetaRep, v) -> tuple:
    return (_orbit_id(rep, v.orbit), [v.gib, v.index_result.index],
            v.decided_by, v.gib is None)


def _grading(r: tuple[int, ...], seed: int):
    rep = ThetaRep.of(*r)
    report = gib_checker.check_rep(rep, seed=seed)
    return [_verdict_item(rep, v) for v in report.verdicts]


def _certify(r: tuple[int, ...], orbit: str, seed: int):
    rep = ThetaRep.of(*r)
    return [_verdict_item(rep, gib_checker.check_orbit(
        rep, LabeledPartition.parse(orbit), seed=seed))]


def _sweep(n_min: int, n_max: int, m: int, seed: int):
    rows = cli.sweep(cli.SweepSpec(n_min, n_max, m, m), seed=seed)
    return [(ThetaRep(row.m, row.r).to_text(),
             [row.rep_gib, list(row.bad_orbits), row.agreement],
             None, row.rep_gib is None) for row in rows]


def _index_doc(name: str, path: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["index-file", path, "--format", "json"])
    if code == 1:
        raise RuntimeError(f"index-file failed on {path}")
    doc = json.loads(out.getvalue())
    how = "certified" if doc["certified"] else "probabilistic"
    return [(name, [doc["index"], doc["matches_declared"]], how, code == 2)]


def _doc_orbits(size: str) -> tuple[ThetaRep, list[LabeledPartition]]:
    r, names = SPECS[size]["index_doc"]
    rep = ThetaRep.of(*r)
    if names is None:
        return rep, all_nilpotent_orbits(rep)
    return rep, [LabeledPartition.parse(name) for name in names]


def write_documents(size: str, seed: int, directory: Path) -> None:
    """Export the index_doc orbits as action documents under ``directory``.

    Each row of a document is scaled by a random nonzero rational drawn
    from ``seed``; row scaling keeps the rank, so verdicts do not depend on
    the seed.  ``manifest.json`` lists ``[orbit id, file name]`` pairs.
    """
    rng = random.Random(seed)
    rep, orbits = _doc_orbits(size)
    manifest = []
    for pos, orbit in enumerate(orbits):
        doc = export_action(build_centralizer(orbit, rep.m), declared_rank=rep.rank())
        scales: dict[int, Fraction] = {}
        for entry in doc["brackets"]:
            row = entry[0]
            if row not in scales:
                scales[row] = Fraction(rng.choice((-1, 1)) * rng.randint(1, SCALE_RANGE),
                                       rng.randint(1, SCALE_RANGE))
            c = Fraction(entry[3], entry[4]) * scales[row]
            entry[3], entry[4] = c.numerator, c.denominator
        fname = f"doc{pos:05d}.json"
        (directory / fname).write_text(json.dumps(doc), encoding="utf-8")
        manifest.append([_orbit_id(rep, orbit), fname])
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def requests(workload: str, size: str, seed: int, docs: Path | None = None) -> list:
    """The workload's requests, in the order the benchmark sends them."""
    spec = SPECS[size][workload]
    if workload == "grading":
        return [lambda r=r: _grading(r, seed) for r in spec]
    if workload == "certify":
        return [lambda r=r, o=o: _certify(r, o, seed) for r, o in spec]
    if workload == "sweep":
        return [lambda s=s: _sweep(*s, seed) for s in spec]
    if workload == "index_doc":
        if docs is None:
            raise ValueError("index_doc needs the documents directory")
        manifest = json.loads((docs / "manifest.json").read_text(encoding="utf-8"))
        return [lambda n=n, p=str(docs / f): _index_doc(n, p) for n, f in manifest]
    raise ValueError(f"unknown workload {workload!r}")
