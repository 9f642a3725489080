"""Good-index-behaviour verdicts, orbit by orbit.

The target equality for a grading r is
    index(stabilizer of e in degree 0, centralizer of e in degree -1) = min(r)
for every nilpotent orbit representative e; min(r) is always a lower bound
for that index.  The per-orbit procedure:

  1. build the graded centralizer and the action matrix A(a);
  2. evaluate A at random prime-field points; the best rank found, pr, is a
     lower bound for the generic rank, so dim - pr is an upper bound for the
     index.  Since the index is at least min(r), dim - min(r) is a proven
     ceiling for the generic rank: a trial stops its elimination there, and
     once one trial reaches it no further trial is run, as none could find
     more.  pr is the same as with every trial run to the end;
  3. if dim - pr = min(r) the bounds pinch and the verdict is a proven TRUE
     with no symbolic work;
  4. otherwise reduce A over Q; if pr equals the reduced row or column
     count, the generic rank is pinned to pr exactly and the verdict is a
     proven FALSE;
  5. otherwise certify the rank by fraction-free elimination, which decides
     either way; if that blows the resource budget the orbit is UNDECIDED,
     never silently wrong.  The elimination runs on a linear slice through
     the dual module that meets every generic orbit of the stabilizer
     (``index_engine.slice_rank``), in index + 1 indeterminates instead of
     dim V.

Steps 3-4 are ``index_engine.cheap_proof`` and step 5 is
``index_engine.certify``.  ``index-file`` shares steps 2-5 through
``index_engine.index_of_matrix``, with a document's ``index_lower_bound``
(min(r) for one that ``export_action`` wrote) in place of min(r), both as
the ceiling of step 2 and as the bound of step 3; a bare declared ``rank``
is no bound.  It certifies over all indeterminates, since a document need
not come from a group action.

A whole grading has the property iff every orbit does.  The driver delays
the expensive step 5, collecting suspicious orbits from the cheap pass and
certifying them smallest-matrix-first until all are resolved, so a FALSE
report always names every bad orbit with a rank certificate.

The driver also computes each orbit once per dihedral class: the orbits
that a symmetry of r, a rotation or a reflection of the residues mod m,
carries onto each other have the same index and verdict.

  * Rotation by c maps a block (l, t) to (l, t + c).  Adding c to every
    label leaves each degree s + t(j) - t(i) mod m unchanged, and the image
    lies in the grading r_{x-c}; that is r itself when r_{x-c} = r_x for
    all x, which also keeps min(r).
  * Reflection with c maps a block (l, t) to (l, c - t - l + 1).  The map
    X -> -X^T is an automorphism of gl_n.  Written on the dual basis, it
    sends the eigenspace of residue x to residue -x, so it carries each
    g_i of the grading r onto the g_i of dual_rep(r): G_0 and g_1 onto
    theirs, e onto -e^T, and the degree -1 part of z(e) onto that of
    z(-e^T).  A Jordan chain of e covering the residues t, ..., t + l - 1
    becomes one of -e^T covering -(t + l - 1), ..., -t, so the image block
    in dual_rep(r) is (l, -(t + l - 1)); a rotation by c follows.  The
    image lies in the grading r_{c-x}, which is r itself when
    r_{c-x} = r_x for all x.

Both maps are isomorphisms of graded Lie algebras, so the index is equal,
and re-sorting the image blocks into canonical order only permutes the
rows, columns and indeterminates of the action matrix.  The driver takes
the orbits already grouped into these classes (``orbits.dihedral_classes``,
which generates only the least member of each class and expands it by its
images).  Each class's representative, its first member in canonical
order, is computed; the other members reuse its result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .centralizer import build_centralizer
from .exact_linalg import (
    DEFAULT_TERM_LIMIT,
    DEFAULT_TRIALS,
    LinearFormMatrix,
    probabilistic_rank,
)
from .index_engine import (  # the DECIDED_BY_* names are read from here too
    DECIDED_BY_BOUND_MATCH,
    DECIDED_BY_CERTIFIED_RANK,
    DECIDED_BY_REDUCED_SHAPE,
    UNDECIDED,
    IndexResult,
    build_action_matrix,
    certify,
    cheap_proof,
    slice_rank,
    validate_budget,
)
# all_nilpotent_orbits is unused here, but thetabench/tracer.py wraps it by this name
from .orbits import LabeledPartition, all_nilpotent_orbits, dihedral_classes
from .theta_gl import ThetaRep


@dataclass(frozen=True)
class OrbitVerdict:
    """One orbit's outcome: dims, index data, and the three-way verdict."""

    orbit: LabeledPartition
    computed_as: LabeledPartition  # the orbit whose computation this reuses
    dim_stabilizer: int
    index_result: IndexResult
    gib: bool | None

    @property
    def dim_module(self) -> int:
        return self.index_result.dim_module

    @property
    def decided_by(self) -> str:
        return self.index_result.decided_by


@dataclass(frozen=True)
class GibReport:
    """Aggregate verdict for one grading."""

    rep: ThetaRep
    rank: int
    orbit_count: int
    verdicts: tuple[OrbitVerdict, ...]
    rep_gib: bool | None
    bad_orbits: tuple[LabeledPartition, ...]

    @property
    def undecided_orbits(self) -> tuple[LabeledPartition, ...]:
        return tuple(v.orbit for v in self.verdicts if v.decided_by == UNDECIDED)


def check_orbit(rep: ThetaRep, orbit: LabeledPartition, *,
                trials: int = DEFAULT_TRIALS, seed: int = 0,
                force_certify: bool = False,
                max_terms: int = DEFAULT_TERM_LIMIT,
                cert_timeout: float | None = None) -> OrbitVerdict:
    """Run the full per-orbit procedure on a single orbit.

    ``force_certify`` certifies the orbit even when a cheaper proof holds,
    as ``certify_all`` does in ``check_rep``.  ``max_terms`` and
    ``cert_timeout`` bound the certification as in ``check_rep``.
    """
    validate_budget(max_terms, cert_timeout)
    if not orbit.valid_for(rep):
        raise ValueError(f"partition {orbit} does not belong to {rep}")
    return _verdicts(rep, [(orbit, [orbit])], trials=trials, seed=seed,
                     certify_all=force_certify, max_terms=max_terms,
                     max_certifications=None, cert_timeout=cert_timeout)[0]


class _OrbitJob:
    """A dihedral class's representative between the cheap pass and the certify queue."""

    __slots__ = ("orbit", "dim_stab", "matrix", "result", "reduced")

    def __init__(self, orbit: LabeledPartition, dim_stab: int,
                 matrix: LinearFormMatrix, result: IndexResult,
                 reduced: LinearFormMatrix | None):
        self.orbit = orbit
        self.dim_stab = dim_stab
        self.matrix = matrix
        self.result = result
        self.reduced = reduced


def _queue_key(job: _OrbitJob) -> tuple:
    """Certify order: smallest reduced matrix first (unreduced if a bound match skipped it)."""
    size = job.matrix if job.reduced is None else job.reduced
    return size.rows * size.cols, job.orbit.sort_key()


def _verdicts(rep: ThetaRep, classes: list[tuple[LabeledPartition, list[LabeledPartition]]],
              *, trials: int, seed: int, certify_all: bool, max_terms: int,
              max_certifications: int | None,
              cert_timeout: float | None) -> tuple[OrbitVerdict, ...]:
    """The verdicts of the members of ``classes``, in canonical order.

    ``classes`` holds (representative, members) pairs of dihedral classes.
    The cheap pass runs on each representative, then the certify queue.
    """
    rank = rep.rank()
    jobs: list[_OrbitJob] = []
    members: list[tuple[LabeledPartition, _OrbitJob]] = []
    for orbit, class_members in classes:
        cent = build_centralizer(orbit, rep.m)
        matrix = build_action_matrix(cent)
        # the index is at least min(r), so the generic rank at most dim - min(r)
        prob = probabilistic_rank(matrix, trials, seed, ceiling=matrix.cols - rank)
        result, reduced = cheap_proof(matrix, prob, rank)
        job = _OrbitJob(orbit, len(cent.by_degree[0]), matrix, result, reduced)
        jobs.append(job)
        members.extend((member, job) for member in class_members)
    members.sort(key=lambda pair: pair[0].sort_key())

    pending = sorted((j for j in jobs
                      if certify_all or j.result.decided_by == UNDECIDED),
                     key=_queue_key)
    if not certify_all and max_certifications is not None:
        pending = pending[:max_certifications]
    for job in pending:
        job.result = certify(job.matrix, job.result, job.reduced, max_terms, cert_timeout,
                             slice_rank)

    return tuple(
        OrbitVerdict(orbit=orbit, computed_as=j.orbit, dim_stabilizer=j.dim_stab,
                     index_result=j.result,
                     gib=None if j.result.decided_by == UNDECIDED else j.result.index == rank)
        for orbit, j in members)


def check_rep(rep: ThetaRep, *, trials: int = DEFAULT_TRIALS, seed: int = 0,
              certify_all: bool = False,
              max_terms: int = DEFAULT_TERM_LIMIT,
              max_certifications: int | None = None,
              cert_timeout: float | None = None) -> GibReport:
    """Verdict for a grading: the per-orbit procedure over all its orbits.

    Orbits that a rotation or reflection keeping the grading carries onto
    each other are computed once (see the module docstring): the first of
    each class in canonical order is its representative, and every verdict
    names the representative it reuses as ``computed_as``.  The cheap pass
    (probabilistic rank, bound match, reduced shape) runs first over every
    representative; those it leaves undecided are certified in order of
    reduced matrix size, so the expensive symbolic eliminations happen on
    the smallest matrices first.
    ``max_certifications`` caps the number of certification *attempts*, a
    run that exceeds ``max_terms`` or ``cert_timeout`` seconds included;
    classes past the cap stay undecided.  Without a cap every suspicious
    class is resolved, which keeps the report seed-independent and the
    bad-orbit list complete.  ``certify_all`` certifies every class and
    ignores the cap.
    """
    validate_budget(max_terms, cert_timeout)
    if max_certifications is not None and max_certifications < 0:
        raise ValueError(f"max_certifications must be >= 0, got {max_certifications}")
    verdicts = _verdicts(rep, dihedral_classes(rep), trials=trials, seed=seed,
                         certify_all=certify_all, max_terms=max_terms,
                         max_certifications=max_certifications, cert_timeout=cert_timeout)
    bad = tuple(v.orbit for v in verdicts if v.gib is False)
    if bad:
        rep_gib: bool | None = False
    elif all(v.gib is True for v in verdicts):
        rep_gib = True
    else:
        rep_gib = None
    return GibReport(
        rep=rep,
        rank=rep.rank(),
        orbit_count=len(verdicts),
        verdicts=verdicts,
        rep_gib=rep_gib,
        bad_orbits=bad,
    )
