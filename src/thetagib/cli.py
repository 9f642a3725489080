"""Command-line driver: check single gradings, sweep families, emit tables.

Subcommands:

* ``check <r-vector>``   full orbit-by-orbit verdict for one grading
* ``sweep``              all gradings in an (n, m) range, one row each
* ``orbits <r-vector>``  list the nilpotent orbits with their dimensions
* ``index-file <path>``  index of an external structure-constant document

Exit status: 0 when the run completed (whatever the verdicts), 2 when any
verdict, or the index of a document, came back undecided, 1 on errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

from .centralizer import build_centralizer
from .exact_linalg import DEFAULT_TERM_LIMIT
from .gib_checker import GibReport, check_rep
from .index_engine import (
    UNDECIDED,
    GenericActionError,
    index_of_matrix,
    parse_action_document,
    validate_budget,
)
from .orbits import (
    LabeledPartition,
    all_nilpotent_orbits,
    dihedral_images,
    dihedral_maps,
    residue_image,
    residue_maps,
)
from .theta_gl import (
    PatternFlags,
    ThetaRep,
    pattern_predicates,
    predicted_gib,
    rotations,
    to_kac_diagram,
)

CSV_COLUMNS = ["m", "r", "rank", "orbit_count", "rep_gib", "bad_orbits", "agreement"]


@dataclass(frozen=True)
class SweepSpec:
    """Range of gradings to classify."""

    n_min: int
    n_max: int
    m_min: int
    m_max: int
    min_rank: int = 1
    dedup_cyclic: bool = True

    def __post_init__(self):
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.m_min < 2 or self.m_min > self.m_max:
            raise ValueError("need 2 <= m_min <= m_max")
        if self.min_rank < 0:
            raise ValueError("need min_rank >= 0")


@dataclass(frozen=True)
class ClassificationRow:
    """One sweep result: computed verdict next to the theorem prediction."""

    m: int
    r: tuple[int, ...]
    rank: int
    orbit_count: int
    rep_gib: bool | None
    bad_orbits: tuple[str, ...]
    flags: PatternFlags
    prediction: bool | None
    agreement: bool | None


def _compositions(n: int, parts: int, least: int):
    """Every vector of ``parts`` integers >= ``least`` with sum ``n``, in lexicographic order."""
    if parts == 1:
        if n >= least:
            yield (n,)
        return
    for first in range(least, n - least * (parts - 1) + 1):
        for rest in _compositions(n - first, parts - 1, least):
            yield (first,) + rest


def sweep_reps(spec: SweepSpec) -> list[ThetaRep]:
    """The gradings selected by ``spec``, in (m, n, vector) order."""
    reps = []
    for m in range(spec.m_min, spec.m_max + 1):
        for n in range(spec.n_min, spec.n_max + 1):
            seen = set()
            for r in _compositions(n, m, spec.min_rank):
                key = min(rotations(r)) if spec.dedup_cyclic else r
                if key in seen:
                    continue
                seen.add(key)
                reps.append(ThetaRep(m, key))
    reps.sort(key=lambda t: (t.m, t.n, t.r))
    return reps


def _dihedral_class(rep: ThetaRep) -> tuple[int, ...]:
    """The least image of r under the residue maps of ``orbits.dihedral_maps``."""
    return min(residue_image(rep.r, sign, c) for sign, c in residue_maps(rep.m))


def row_from_report(report: GibReport, rep: ThetaRep | None = None) -> ClassificationRow:
    """The sweep row of ``rep``, by default ``report.rep``.

    ``rep`` may be any grading in the dihedral class of ``report.rep``: a
    symmetry carrying one onto the other preserves every orbit's index (see
    ``gib_checker``), so the report's bad orbits are mapped into ``rep``
    and listed in canonical order.
    """
    if rep is None:
        rep = report.rep
    maps = dihedral_maps(report.rep.r, rep.r)[:1]
    if not maps:
        raise ValueError(f"{rep} is not a rotation or reflection of {report.rep}")
    bad = sorted((LabeledPartition(image) for orbit in report.bad_orbits
                  for image in dihedral_images(orbit.blocks, rep.m, maps)),
                 key=LabeledPartition.sort_key)
    prediction = predicted_gib(rep)
    if prediction is None or report.rep_gib is None:
        agreement = None
    else:
        agreement = prediction == report.rep_gib
    return ClassificationRow(
        m=rep.m,
        r=rep.r,
        rank=report.rank,
        orbit_count=report.orbit_count,
        rep_gib=report.rep_gib,
        bad_orbits=tuple(p.to_text() for p in bad),
        flags=pattern_predicates(rep),
        prediction=prediction,
        agreement=agreement,
    )


def sweep(spec: SweepSpec, *, seed: int = 0, certify_all: bool = False,
          max_terms: int = DEFAULT_TERM_LIMIT, cert_timeout: float | None = None,
          jobs: int = 1) -> list[ClassificationRow]:
    """Classify every grading in range; rows come back in deterministic order.

    Gradings that a rotation or reflection carries onto each other have the
    same verdict, so ``check_rep`` runs once per dihedral class, on its
    first grading in row order, and every other row of the class is built
    from that report.  ``jobs`` worker processes, at least 1 and at most
    one per representative, split those representatives between them.  The
    budget is checked before any grading runs, so an empty range rejects a
    bad one too.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    validate_budget(max_terms, cert_timeout)
    reps = sweep_reps(spec)
    keys = [_dihedral_class(rep) for rep in reps]
    firsts: dict[tuple[int, ...], ThetaRep] = {}
    for key, rep in zip(keys, reps):
        firsts.setdefault(key, rep)
    task = functools.partial(check_rep, seed=seed, certify_all=certify_all,
                             max_terms=max_terms, cert_timeout=cert_timeout)
    if jobs > 1 and len(firsts) > 1:
        # imported here, so that only a pool loads multiprocessing; a forking
        # executor starts all its workers at the first submit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(firsts))) as pool:
            reports = list(pool.map(task, firsts.values()))
    else:
        reports = [task(rep) for rep in firsts.values()]
    by_class = dict(zip(firsts, reports))
    return [row_from_report(by_class[key], rep) for key, rep in zip(keys, reps)]


# ---------------------------------------------------------------------------
# Emitters.


def _verdict_text(v: bool | None) -> str:
    if v is None:
        return "undecided"
    return "true" if v else "false"


def _agreement_text(v: bool | None) -> str:
    if v is None:
        return "no-prediction"
    return "true" if v else "false"


def row_to_dict(row: ClassificationRow) -> dict:
    return {
        "m": row.m,
        "r": list(row.r),
        "rank": row.rank,
        "orbit_count": row.orbit_count,
        "rep_gib": row.rep_gib,
        "bad_orbits": list(row.bad_orbits),
        "predicates": {
            "has_cyclic_triple_ge2": row.flags.has_cyclic_triple_ge2,
            "matches_theorem_m3_shape": row.flags.matches_theorem_m3_shape,
            "matches_prop_1groups_1": row.flags.matches_prop_1groups_1,
        },
        "prediction": row.prediction,
        "agreement": row.agreement,
    }


def emit_report(rows: list[ClassificationRow], fmt: str = "text") -> str:
    """Render sweep rows as text, json, or csv."""
    if fmt == "json":
        return json.dumps([row_to_dict(r) for r in rows], indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.m,
                ",".join(str(x) for x in row.r),
                row.rank,
                row.orbit_count,
                _verdict_text(row.rep_gib),
                ";".join(row.bad_orbits),
                _agreement_text(row.agreement),
            ])
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        return "(no gradings in range)\n"
    lines = []
    for row in rows:
        rep = ThetaRep(row.m, row.r)
        diagram = to_kac_diagram(rep) if min(row.r) >= 1 else "-"
        bad = " ".join(f"[{b}]" for b in row.bad_orbits) if row.bad_orbits else "-"
        lines.append(
            f"m={row.m} r=({','.join(str(x) for x in row.r)})"
            f"  kac={diagram}"
            f"  rank={row.rank}  orbits={row.orbit_count}"
            f"  gib={_verdict_text(row.rep_gib)}"
            f"  agreement={_agreement_text(row.agreement)}"
            f"  bad={bad}"
        )
    return "\n".join(lines) + "\n"


def report_detail_dict(report: GibReport) -> dict:
    rep = report.rep
    return {
        "rep": {"m": rep.m, "r": list(rep.r)},
        "rank": report.rank,
        "orbit_count": report.orbit_count,
        "rep_gib": report.rep_gib,
        "bad_orbits": [p.to_text() for p in report.bad_orbits],
        "orbits": [
            {
                "orbit": v.orbit.to_text(),
                "computed_as": v.computed_as.to_text(),
                "dim_stabilizer": v.dim_stabilizer,
                "dim_module": v.dim_module,
                "prob_rank": v.index_result.prob_rank,
                "cert_rank": v.index_result.cert_rank,
                "index": v.index_result.index,
                "certified": v.index_result.certified,
                "gib": v.gib,
                "decided_by": v.decided_by,
            }
            for v in report.verdicts
        ],
    }


def _format_check_text(report: GibReport) -> str:
    rep = report.rep
    lines = [f"grading {rep.to_text()}"]
    if min(rep.r) >= 1:
        lines.append(f"kac diagram (cyclic): {to_kac_diagram(rep)}")
    lines.append(f"rank: {report.rank}")
    lines.append(f"nilpotent orbits: {report.orbit_count}")
    lines.append(f"gib: {_verdict_text(report.rep_gib)}")
    for v in report.verdicts:
        if v.gib is not True:
            res = v.index_result
            rank_txt = (f"certified rank {res.cert_rank}" if res.certified
                        else f"probabilistic rank {res.prob_rank}")
            lines.append(
                f"  orbit [{v.orbit.to_text()}]: index {res.index} "
                f"(dim {res.dim_module}, {rank_txt}, {v.decided_by})"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def _parse_range(text: str, name: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        a = int(lo)
        b = int(hi) if hi else a
    except ValueError:
        raise SystemExit(f"error: bad {name} range {text!r} (use N or MIN:MAX)")
    return a, b


def _cmd_check(args) -> int:
    rep = ThetaRep.parse(args.rep)
    report = check_rep(rep, seed=args.seed, certify_all=args.certify_all,
                       max_terms=args.max_terms, cert_timeout=args.cert_timeout)
    if args.format == "json":
        print(json.dumps(report_detail_dict(report), indent=2))
    elif args.format == "csv":
        print(emit_report([row_from_report(report)], "csv"), end="")
    else:
        print(_format_check_text(report), end="")
    return 2 if report.undecided_orbits else 0


def _cmd_sweep(args) -> int:
    n_min, n_max = _parse_range(args.n, "n")
    m_min, m_max = _parse_range(args.m, "m")
    spec = SweepSpec(
        n_min=n_min, n_max=n_max, m_min=m_min, m_max=m_max,
        min_rank=0 if args.include_rank_zero else 1,
        dedup_cyclic=not args.no_dedup,
    )
    rows = sweep(spec, seed=args.seed, certify_all=args.certify_all,
                 max_terms=args.max_terms, cert_timeout=args.cert_timeout, jobs=args.jobs)
    print(emit_report(rows, args.format), end="")
    return 2 if any(r.rep_gib is None for r in rows) else 0


def _cmd_orbits(args) -> int:
    rep = ThetaRep.parse(args.rep)
    orbits = all_nilpotent_orbits(rep)
    dim_g0 = rep.graded_dims()[0]
    records = []
    for orbit in orbits:
        cent = build_centralizer(orbit, rep.m)
        dim_stabilizer = len(cent.by_degree[0])
        records.append({
            "orbit": orbit.to_text(),
            "dim_orbit": dim_g0 - dim_stabilizer,
            "dim_stabilizer": dim_stabilizer,
            "dim_module": len(cent.by_degree[rep.m - 1]),
        })
    if args.format == "json":
        print(json.dumps({"rep": {"m": rep.m, "r": list(rep.r)},
                          "orbit_count": len(records),
                          "orbits": records}, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["orbit", "dim_orbit", "dim_stabilizer", "dim_module"])
        for rec in records:
            writer.writerow([rec["orbit"], rec["dim_orbit"],
                             rec["dim_stabilizer"], rec["dim_module"]])
        print(buf.getvalue(), end="")
    else:
        print(f"grading {rep.to_text()}: {len(records)} nilpotent orbits")
        for rec in records:
            print(f"  [{rec['orbit']}]  orbit dim {rec['dim_orbit']}, "
                  f"stabilizer {rec['dim_stabilizer']}, "
                  f"module {rec['dim_module']}")
    return 0


def _cmd_index_file(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.path}: invalid JSON at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    # nested too deep, not UTF-8, or an integer literal past the digit limit
    except (RecursionError, ValueError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    try:
        matrix, declared, bound = parse_action_document(doc)
    except GenericActionError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    result = index_of_matrix(matrix, target=bound, declared=declared, seed=args.seed,
                             force_certify=args.certify_all, max_terms=args.max_terms,
                             cert_timeout=args.cert_timeout)
    undecided = result.decided_by == UNDECIDED
    matches = None if declared is None or undecided else result.index == declared
    payload = {
        "dim_q": doc.get("dim_q"),
        "dim_v": result.dim_module,
        "prob_rank": result.prob_rank,
        "cert_rank": result.cert_rank,
        "certified": result.certified,
        "index": result.index,
        "decided_by": result.decided_by,
        "declared_rank": declared,
        "index_lower_bound": bound,
        "matches_declared": matches,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"dim_q={payload['dim_q']} dim_v={payload['dim_v']} "
              f"index={payload['index']} "
              f"({'certified' if result.certified else 'probabilistic'})")
        if declared is not None:
            print(f"declared rank {declared}: verdict {_verdict_text(matches)}")
    return 2 if undecided else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, since exit 2 means undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thetagib",
        description="Good-index-behaviour checker for inner finite-order "
                    "gradings of gl_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the random F_p point for each rank bound")
        p.add_argument("--certify-all", action="store_true",
                       help="run the exact symbolic rank on every orbit")
        p.add_argument("--max-terms", type=int, default=DEFAULT_TERM_LIMIT,
                       help="abandon an exact symbolic rank once an intermediate "
                            "polynomial passes this many terms; the orbit or "
                            "document is then undecided unless a cheaper proof "
                            "holds")
        p.add_argument("--cert-timeout", type=float, default=None, metavar="SECONDS",
                       help="abandon an exact symbolic rank after this many "
                            "seconds, with the same outcome as --max-terms "
                            "(default: no limit)")
        p.add_argument("--format", choices=formats, default="text")

    p_check = sub.add_parser("check", help="decide one grading")
    p_check.add_argument("rep", help='multiplicity vector, e.g. "3,3,1,2" or "m=4 r=3,3,1,2"')
    common(p_check, ["text", "json", "csv"])
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="classify a range of gradings")
    p_sweep.add_argument("--n", required=True, help="n or MIN:MAX range of n")
    p_sweep.add_argument("--m", required=True, help="m or MIN:MAX range of m")
    p_sweep.add_argument("--include-rank-zero", action="store_true",
                         help="keep gradings with a zero multiplicity")
    p_sweep.add_argument("--no-dedup", action="store_true",
                         help="do not identify cyclic rotations")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (at least 1)")
    common(p_sweep, ["text", "json", "csv"])
    p_sweep.set_defaults(func=_cmd_sweep)

    p_orbits = sub.add_parser("orbits", help="list nilpotent orbits")
    p_orbits.add_argument("rep")
    p_orbits.add_argument("--format", choices=["text", "json", "csv"],
                          default="text")
    p_orbits.set_defaults(func=_cmd_orbits)

    p_index = sub.add_parser("index-file",
                             help="index of a structure-constant JSON document")
    p_index.add_argument("path")
    common(p_index, ["text", "json"])
    p_index.set_defaults(func=_cmd_index_file)

    return parser


# Built on the first ``main`` call, not at import, and reused after it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # GenericActionError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
