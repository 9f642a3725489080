"""Spans around the calls into each thetagib module, recorded from outside.

The traced run replaces public functions at the names their callers look
up (``gib_checker.certified_rank``, ``cli.check_rep``, ...) with wrappers
that record a span: name, start, end, parent span and request id.  Spans
stay in memory and are written once the workload has finished.  The
package itself is not modified, and the untraced runs never load this
module.

A layer's self time is the total duration of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from thetagib import cli, exact_linalg, gib_checker, index_engine

# names gib_checker and index_engine call, with the span each records
_CHECKER_CALLS = {
    "build_centralizer": "centralizer.build_centralizer",
    "build_action_matrix": "index_engine.build_action_matrix",
    "probabilistic_rank": "exact_linalg.probabilistic_rank",
    "ground_field_reduce": "exact_linalg.ground_field_reduce",
    "certified_rank": "exact_linalg.certified_rank",
}
# (module, attribute, span name): every name a caller on the benchmark's
# paths looks up.  The benchmark itself calls cli.sweep, cli.main,
# gib_checker.check_rep and gib_checker.check_orbit.
WRAPPED = [
    (cli, "sweep", "cli.sweep"),
    (cli, "main", "cli.main"),
    (cli, "check_rep", "gib_checker.check_rep"),
    (cli, "index_of_matrix", "index_engine.index_of_matrix"),
    (cli, "parse_action_document", "index_engine.parse_action_document"),
    (gib_checker, "check_rep", "gib_checker.check_rep"),
    (gib_checker, "check_orbit", "gib_checker.check_orbit"),
    (gib_checker, "all_nilpotent_orbits", "orbits.all_nilpotent_orbits"),
    *[(mod, name, span) for mod in (gib_checker, index_engine)
      for name, span in _CHECKER_CALLS.items() if hasattr(mod, name)],
    # probabilistic_rank and certified_rank look these up in exact_linalg
    (exact_linalg, "rank_at_point_mod", "exact_linalg.rank_at_point_mod"),
    (exact_linalg, "ground_field_reduce", "exact_linalg.ground_field_reduce"),
]

#: Layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "orbits.self_s": ("orbits.all_nilpotent_orbits",),
    "centralizer.self_s": ("centralizer.build_centralizer",),
    "index_engine.build_s": ("index_engine.build_action_matrix",),
    "index_engine.parse_s": ("index_engine.parse_action_document",),
    "index_engine.index_s": ("index_engine.index_of_matrix",),
    "exact_linalg.prob_s": ("exact_linalg.probabilistic_rank",),
    "exact_linalg.point_rank_s": ("exact_linalg.rank_at_point_mod",),
    "exact_linalg.reduce_s": ("exact_linalg.ground_field_reduce",),
    "exact_linalg.certify_s": ("exact_linalg.certified_rank",),
    "gib_checker.self_s": ("gib_checker.check_rep", "gib_checker.check_orbit"),
    "cli.self_s": ("cli.sweep", "cli.main"),
}
#: Call-count metrics: metric name -> span name counted.
CALLS = {
    "exact_linalg.prob_calls": "exact_linalg.probabilistic_rank",
    "exact_linalg.point_rank_calls": "exact_linalg.rank_at_point_mod",
    "exact_linalg.reduce_calls": "exact_linalg.ground_field_reduce",
    "exact_linalg.certify_calls": "exact_linalg.certified_rank",
}
_DECIDED_BY = {
    gib_checker.DECIDED_BY_BOUND_MATCH: "gib_checker.bound_match",
    gib_checker.DECIDED_BY_REDUCED_SHAPE: "gib_checker.reduced_shape",
    gib_checker.DECIDED_BY_CERTIFIED_RANK: "gib_checker.certified",
    gib_checker.UNDECIDED: "gib_checker.undecided",
}


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


def _count_result(counts: Counter, span: str, args: tuple, result) -> None:
    """Work counts taken from a call's arguments and result."""
    if span == "orbits.all_nilpotent_orbits":
        counts["orbits.count"] += len(result)
    elif span == "centralizer.build_centralizer":
        counts["centralizer.basis_dim"] += result.dim
    elif span == "index_engine.build_action_matrix":
        counts["index_engine.cells"] += _cells(result)
        counts["index_engine.nonzeros"] += sum(1 for row in result.entries for e in row if e)
    elif span == "exact_linalg.ground_field_reduce":
        counts["reduce_in_cells"] += _cells(args[0])
        counts["reduce_out_cells"] += _cells(result)
    elif span == "exact_linalg.certified_rank":
        counts["exact_linalg.certify_cells"] += _cells(args[0])
    elif span == "gib_checker.check_rep":
        for v in result.verdicts:
            counts[_DECIDED_BY[v.decided_by]] += 1
    elif span == "gib_checker.check_orbit":
        counts[_DECIDED_BY[result.decided_by]] += 1


class Tracer:
    """In-memory span recorder; ``install`` wraps the names in ``WRAPPED``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.request = 0
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, span in WRAPPED:
            setattr(module, attr, self._wrap(getattr(module, attr), span))

    def _wrap(self, fn, span: str):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[span] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent, self.request)
            _count_result(self.counts, span, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, by span index."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name, from the spans and counts."""
        own = self.self_times()
        by_span: dict[str, float] = Counter()
        calls: Counter = Counter()
        certify_max = 0.0
        gradings = 0
        for span_t, t in zip(self.spans, own):
            name, parent = span_t[0], span_t[3]
            by_span[name] += t
            calls[name] += 1
            if name == "exact_linalg.certified_rank":
                certify_max = max(certify_max, t)
            if name == "gib_checker.check_rep" and parent >= 0 \
                    and self.spans[parent][0] == "cli.sweep":
                gradings += 1
        c = self.counts
        out = {metric: sum(by_span[s] for s in spans) for metric, spans in SELF_TIME.items()}
        out.update({metric: calls[span] for metric, span in CALLS.items()})
        out.update({
            "orbits.count": c["orbits.count"],
            "centralizer.basis_dim": c["centralizer.basis_dim"],
            "index_engine.cells": c["index_engine.cells"],
            "index_engine.nonzeros": c["index_engine.nonzeros"],
            "exact_linalg.bound_match_ratio": _ratio(c["gib_checker.bound_match"],
                                                     calls["exact_linalg.probabilistic_rank"]),
            "exact_linalg.reduce_kept_ratio": _ratio(c["reduce_out_cells"],
                                                     c["reduce_in_cells"]),
            "exact_linalg.certify_max_s": certify_max,
            "exact_linalg.certify_cells": c["exact_linalg.certify_cells"],
            "exact_linalg.certify_exceeded": self.raised["exact_linalg.certified_rank"],
            "cli.gradings": gradings,
        })
        out.update({name: c[name] for name in _DECIDED_BY.values()})
        return out

    def write(self, path, workload: str, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent,
                    "request": f"{workload}:{req}",
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
