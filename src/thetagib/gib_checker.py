"""Good-index-behaviour verdicts, orbit by orbit.

The target equality for a grading r is
    index(stabilizer of e in degree 0, centralizer of e in degree -1) = min(r)
for every nilpotent orbit representative e; min(r) is always a lower bound
for that index.  The per-orbit procedure:

  1. build the graded centralizer and the action matrix A(a);
  2. prove its index with ``index_engine.prove_indices``, min(r) the
     target: a bound match is a proven TRUE, a reduced shape a proven
     FALSE, and a certified rank decides either way.  A blown resource
     budget leaves the orbit UNDECIDED, never silently wrong.  The
     certification runs on a linear slice through the dual module that
     meets every generic orbit of the stabilizer
     (``index_engine.slice_rank``), in index + 1 indeterminates instead
     of dim V.

``index-file`` runs the same ladder through ``index_engine.index_of_matrix``,
which certifies over all indeterminates (see ``index_engine.certify``).

A whole grading has the property iff every orbit does.  ``prove_indices``
runs the cheap proofs on every class before it certifies any, and it
certifies every class they leave, so a FALSE report names every bad
orbit with a proof unless a class ran out of ``max_terms`` or
``cert_timeout``; such a class stays UNDECIDED.

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
from .exact_linalg import DEFAULT_TERM_LIMIT
from .index_engine import (  # the DECIDED_BY_* names are read from here too
    DECIDED_BY_BOUND_MATCH,
    DECIDED_BY_CERTIFIED_RANK,
    DECIDED_BY_REDUCED_SHAPE,
    UNDECIDED,
    IndexResult,
    build_action_matrix,
    prove_indices,
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


def check_orbit(rep: ThetaRep, orbit: LabeledPartition, *, seed: int = 0,
                force_certify: bool = False,
                max_terms: int = DEFAULT_TERM_LIMIT,
                cert_timeout: float | None = None) -> OrbitVerdict:
    """Run the full per-orbit procedure on a single orbit.

    ``force_certify`` certifies the orbit even when a cheaper proof holds,
    as ``certify_all`` does in ``check_rep``.  ``max_terms`` and
    ``cert_timeout`` bound the certification as in ``check_rep``, and are
    checked before any matrix is built.
    """
    validate_budget(max_terms, cert_timeout)
    if not orbit.valid_for(rep):
        raise ValueError(f"partition {orbit} does not belong to {rep}")
    return _verdicts(rep, [(orbit, [orbit])], seed=seed, certify_all=force_certify,
                     max_terms=max_terms, cert_timeout=cert_timeout)[0]


def _verdicts(rep: ThetaRep, classes: list[tuple[LabeledPartition, list[LabeledPartition]]],
              *, seed: int, certify_all: bool, max_terms: int,
              cert_timeout: float | None) -> tuple[OrbitVerdict, ...]:
    """The verdicts of the members of ``classes``, in canonical order.

    ``classes`` holds (representative, members) pairs of dihedral classes,
    in canonical order of their representatives.  ``prove_indices`` proves
    the index of each representative's action matrix, min(r) its target.
    """
    rank = rep.rank()
    matrices = [build_action_matrix(build_centralizer(orbit, rep.m)) for orbit, _ in classes]
    results = prove_indices([(matrix, rank) for matrix in matrices], seed=seed,
                            certify_all=certify_all, max_terms=max_terms,
                            cert_timeout=cert_timeout, rank=slice_rank)
    verdicts = [
        OrbitVerdict(orbit=member, computed_as=orbit, dim_stabilizer=matrix.rows,
                     index_result=result,
                     gib=None if result.decided_by == UNDECIDED else result.index == rank)
        for (orbit, members), matrix, result in zip(classes, matrices, results)
        for member in members]
    verdicts.sort(key=lambda v: v.orbit.sort_key())
    return tuple(verdicts)


def check_rep(rep: ThetaRep, *, seed: int = 0, certify_all: bool = False,
              max_terms: int = DEFAULT_TERM_LIMIT,
              cert_timeout: float | None = None) -> GibReport:
    """Verdict for a grading: the per-orbit procedure over all its orbits.

    Orbits that a rotation or reflection keeping the grading carries onto
    each other are computed once (see the module docstring): the first of
    each class in canonical order is its representative, and every verdict
    names the representative it reuses as ``computed_as``.  The
    representatives' indices are proven by ``prove_indices``, which takes
    ``certify_all`` as it is.  Every suspicious class is certified, so the
    report is seed-independent and its bad-orbit list complete unless a
    certification exceeded ``max_terms`` or ``cert_timeout`` seconds.
    """
    validate_budget(max_terms, cert_timeout)
    verdicts = _verdicts(rep, dihedral_classes(rep), seed=seed, certify_all=certify_all,
                         max_terms=max_terms, cert_timeout=cert_timeout)
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
