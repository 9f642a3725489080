"""Index of a module action from its structure constants.

For a Lie algebra q with basis x_1..x_n acting on a module V with basis
v_1..v_s, write x_i . v_j = sum_k N[i][j][k] v_k and let a_1..a_s be the
coordinates of a generic functional on V.  The n x s matrix with entries
sum_k N[i][j][k] a_k has generic rank equal to the maximal dimension of a
coadjoint-type orbit, so

    index(q, V) = dim V - generic rank.

The matrix comes either from a graded centralizer (degree-0 basis acting on
the degree-(m-1) basis) or from an externally supplied JSON document with
raw structure constants; both reduce to the same rank machinery.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from math import gcd, lcm
from time import monotonic
from typing import Callable, Sequence

from .centralizer import GradedCentralizer
from .exact_linalg import (
    DEFAULT_TERM_LIMIT,
    LinearFormMatrix,
    ResourceLimitExceeded,
    certified_rank,
    ground_field_reduce,
    pivot_columns_mod,
    probabilistic_rank,
    rank_at_point_mod,
)


#: How a verdict was proven, cheapest first (see ``cheap_proof`` and ``certify``).
DECIDED_BY_BOUND_MATCH = "probabilistic-bound-match"
DECIDED_BY_REDUCED_SHAPE = "reduced-shape"
DECIDED_BY_CERTIFIED_RANK = "certified-rank"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class IndexResult:
    """Outcome of one index computation; ``decided_by`` names its proof or is ``UNDECIDED``.

    ``cert_rank`` is the exact rank (a reduced-shape pin sets it too) or None.
    """

    dim_module: int
    prob_rank: int
    cert_rank: int | None
    decided_by: str

    @property
    def index(self) -> int:
        """dim(V) minus ``cert_rank``, else minus ``prob_rank`` (then an upper bound)."""
        return self.dim_module - (self.prob_rank if self.cert_rank is None else self.cert_rank)

    @property
    def certified(self) -> bool:
        return self.cert_rank is not None


#: A certifying rank routine, called as ``certified_rank`` is: rank(matrix, max_terms, timeout).
RankRoutine = Callable[[LinearFormMatrix, int, float | None], int]


def validate_budget(max_terms: int, cert_timeout: float | None) -> None:
    """Reject a certification budget that no run could keep to."""
    if max_terms < 0:
        raise ValueError(f"max_terms must be >= 0, got {max_terms}")
    if cert_timeout is not None and not cert_timeout >= 0:
        raise ValueError(f"cert_timeout must be >= 0, got {cert_timeout}")


def cheap_proof(matrix: LinearFormMatrix, target: int | None, seed: int = 0,
                ) -> tuple[IndexResult, int]:
    """Prove the index of ``matrix`` without symbolic elimination, if possible.

    ``target`` is a proven lower bound for the index (min(r) for an orbit,
    a document's ``index_lower_bound``) or None.  It is a premise, so
    ``cols - target`` is a proven ceiling for the generic rank: the one
    F_p elimination of ``probabilistic_rank``, at a point drawn from
    ``seed``, stops there, as it could find no more.  Its rank, prob, is
    the same as with the elimination run to the end.  A point that loses
    rank still gives a lower bound: the matrix then misses the bound match
    and falls through to the reduced shape or to ``certify``.  The proofs,
    cheapest first:

      1. bound match: dim - prob is an upper bound for the index, so if it
         equals ``target`` the index is ``target``;
      2. reduced shape: the generic rank is at most either side of
         ``ground_field_reduce(matrix)`` and at least prob, so prob equal to
         a side pins the rank.

    Returns the result, ``UNDECIDED`` when neither holds, and its size for
    the certify queue: rows x cols of the reduced matrix, or of ``matrix``
    when step 1 decided without reducing.
    """
    dim = matrix.cols
    ceiling = None if target is None else dim - target
    prob = probabilistic_rank(matrix, seed=seed, ceiling=ceiling)
    if target is not None and dim - prob == target:
        return IndexResult(dim, prob, None, DECIDED_BY_BOUND_MATCH), matrix.rows * dim
    reduced = ground_field_reduce(matrix)
    size = reduced.rows * reduced.cols
    if prob in (reduced.rows, reduced.cols):
        return IndexResult(dim, prob, prob, DECIDED_BY_REDUCED_SHAPE), size
    return IndexResult(dim, prob, None, UNDECIDED), size


def certify(matrix: LinearFormMatrix, result: IndexResult, max_terms: int,
            cert_timeout: float | None,
            rank: RankRoutine | None = None) -> IndexResult:
    """The certified rank of ``matrix``, after ``cheap_proof`` gave ``result``.

    ``rank(matrix, max_terms, timeout)`` certifies the rank; None runs
    ``certified_rank``, which reduces ``matrix`` itself.  A certification
    that exceeds ``max_terms`` terms or ``cert_timeout`` seconds (None: no
    limit) returns ``result`` unchanged, so whichever cheaper proof held
    stands, or ``UNDECIDED``.  A certified rank below ``result.prob_rank``,
    itself a lower bound, contradicts the proof and raises ``RuntimeError``.

    The orbit driver passes ``slice_rank``, which certifies on a linear
    slice through V* in index + 1 indeterminates instead of s.  Let Q be
    the connected group with Lie algebra q acting on V*.  The rank at a
    point xi is dim q.xi, so it is constant on Q-orbits.  Pick an integer
    point xi0: the rows of ``matrix`` at xi0 span q.xi0 in Q^s, and unit
    vectors e_J completing them to Q^s give a map Q x span(xi0, e_J) -> V*
    whose differential at (1, xi0) is onto, so the map is dominant.  Its
    image meets the dense open set where the rank is generic, and a
    Q-orbit through that set meets the slice, so the generic rank on the
    slice equals the generic rank on V*.  J is the set of non-pivot columns
    at xi0: any full-rank pivot set gives a slice, and a separate F_p rank
    proves that the pivots have full rank (see ``transversal_slice``).
    Greedy in the given order, ``ground_field_reduce`` drops each row or
    column that is a Q-combination of earlier kept ones, a relation the
    slice keeps, so the reduced slice of ``matrix`` is that of its reduction.
    The F_p rank at xi0 is a lower bound that ``slice_rank`` hands on, so a
    reduced slice whose lesser side equals it is certified without Bareiss.
    ``index_of_matrix`` (and so ``index-file``) keeps the plain routine, with
    no lower bound: a document need not come from a Lie algebra action, and
    without one the rank need not be constant along any orbits.
    """
    try:
        cert = (rank or certified_rank)(matrix, max_terms, cert_timeout)
    except ResourceLimitExceeded:
        return result  # the cheaper proofs stay valid when elimination is abandoned
    if cert < result.prob_rank:
        raise RuntimeError(f"certified rank {cert} is below the probabilistic rank "
                           f"{result.prob_rank}, a lower bound for it")
    return IndexResult(result.dim_module, result.prob_rank, cert, DECIDED_BY_CERTIFIED_RANK)


def prove_indices(problems: Sequence[tuple[LinearFormMatrix, int | None]], *,
                  seed: int, certify_all: bool, max_terms: int,
                  cert_timeout: float | None,
                  rank: RankRoutine | None = None) -> list[IndexResult]:
    """The index of each (matrix, target) pair of ``problems``, in order.

    ``cheap_proof(matrix, target, seed)`` runs on every pair first.
    Those it leaves undecided, or all under ``certify_all``, then go to
    ``certify`` with ``rank``, smallest reduced matrix first (the unreduced
    one after a bound match), ties in the given order, so the expensive
    eliminations run on the smallest matrices first; each gets its own
    matrix, never its reduction.  Every queued result is attempted: only
    ``max_terms`` and ``cert_timeout`` bound each attempt.
    """
    validate_budget(max_terms, cert_timeout)
    proofs = [cheap_proof(matrix, target, seed) for matrix, target in problems]
    results = [result for result, _ in proofs]
    queue = sorted((i for i, result in enumerate(results)
                    if certify_all or result.decided_by == UNDECIDED),
                   key=lambda i: proofs[i][1])
    for i in queue:
        results[i] = certify(problems[i][0], results[i], max_terms, cert_timeout, rank)
    return results


#: Base-point entries of a slice attempt lie in [-SLICE_POINT_RANGE, SLICE_POINT_RANGE].
SLICE_POINT_RANGE = 2
#: Term budget of the first slice attempt; each further attempt doubles it.
SLICE_FIRST_TERMS = 256


def transversal_slice(matrix: LinearFormMatrix, point: Sequence[int]) -> LinearFormMatrix:
    """``matrix`` restricted to span(``point``, e_J), in |J| + 1 indeterminates.

    ``matrix`` is an action matrix: its columns are the s coordinates of
    V*, numbered like its indeterminates, so its rows at ``point`` span
    q.point.  J is the set of columns that are not ``pivot_columns_mod`` at
    ``point``.  Any pivot set on which the rows have full rank gives a
    slice: the rows map onto those coordinates and e_J spans the others.
    a_k becomes b_t for the t-th index k of J, and point[k] * b_0 for k
    outside J: coordinates of span(point, e_J), sparser than b_0 * point
    plus the b_t * e_(j_t).  Raises ``ValueError`` unless the pivots have
    full rank at ``point`` by ``rank_at_point_mod``: that check, not how J
    was found, proves that e_J completes the rows to Q^s.  The slice keeps
    the shape of ``matrix``; ``certified_rank`` reduces it (see ``certify``).
    """
    s = matrix.cols
    if matrix.num_indeterminates != s:
        raise ValueError("an action matrix has one indeterminate per column")
    pivots = pivot_columns_mod(matrix, point)
    var = {k: t for t, k in enumerate(sorted(set(range(s)).difference(pivots)), 1)}  # J
    # a rank over F_p is at most the rank over Q, which is at most len(pivots)
    if rank_at_point_mod(matrix.permuted(range(matrix.rows), pivots), point) != len(pivots):
        raise ValueError("the unit vectors do not complete the orbit tangent to Q^s")
    cells = []
    for row in matrix.cells:
        sliced = {}
        for j, e in row.items():
            b0 = sum(c * point[k] for k, c in e.items() if k not in var)
            form = {0: b0} if b0 else {}
            form.update((var[k], c) for k, c in e.items() if k in var)
            if form:
                sliced[j] = form
        cells.append(sliced)
    return LinearFormMatrix(cells, len(var) + 1, s)


def slice_rank(matrix: LinearFormMatrix, max_terms: int, timeout: float | None) -> int:
    """Generic rank of the action matrix ``matrix`` certified on a ``transversal_slice``.

    The time to certify depends on the base point, so points race: attempt
    k slices through a point with entries in [-2, 2] drawn from
    ``random.Random(k)`` and has a budget of 256 * 2**k terms, capped at
    ``max_terms``.  Every attempt is a proof (see ``certify``), so the first
    to finish is the rank, whatever the base point.  One ``timeout`` covers
    all attempts.  Raises ``ResourceLimitExceeded`` once the attempt at
    ``max_terms`` fails or the time is up.

    Each attempt passes ``certified_rank`` the F_p rank at its base point,
    the number of pivot columns, as ``lower``: the slice passes through the
    point, reducing mod p only loses rank, and no point's rank exceeds the
    generic rank.  So a reduced slice whose lesser side equals it pins the
    rank without elimination, whatever the budget.
    """
    deadline = None if timeout is None else monotonic() + timeout
    for attempt in count():
        budget = min(SLICE_FIRST_TERMS << attempt, max_terms)
        left = None
        if deadline is not None:
            left = deadline - monotonic()
            if left <= 0:
                raise ResourceLimitExceeded("certification passed its time limit")
        rng = random.Random(attempt)
        point = [rng.randint(-SLICE_POINT_RANGE, SLICE_POINT_RANGE)
                 for _ in range(matrix.cols)]
        sliced = transversal_slice(matrix, point)
        # the rank at the point: the slice complement J holds the non-pivots
        lower = matrix.cols - (sliced.num_indeterminates - 1)
        try:
            return certified_rank(sliced, budget, left, lower)
        except ResourceLimitExceeded:
            if budget == max_terms:
                raise


def build_action_matrix(cent: GradedCentralizer) -> LinearFormMatrix:
    """Action matrix of the degree-0 part on the degree-(m-1) part.

    Its rows are ``cent.action_structure_constants()``, following ``by_degree[0]``;
    columns follow ``by_degree[m-1]``, whose order also fixes the indeterminate
    numbering, a_k being dual to the k-th module basis element.
    """
    ncols = len(cent.by_degree[cent.m - 1])
    return LinearFormMatrix(cent.action_structure_constants(), ncols, ncols)


def index_of_matrix(matrix: LinearFormMatrix, *, target: int | None = None,
                    declared: int | None = None, seed: int = 0,
                    force_certify: bool = False,
                    max_terms: int = DEFAULT_TERM_LIMIT,
                    cert_timeout: float | None = None) -> IndexResult:
    """Index of the action encoded by ``matrix``, by ``prove_indices``.

    ``target`` is a proven lower bound for the index, such as min(r) for
    an exported orbit, or None; ``cheap_proof`` uses it as its premise.
    ``declared`` is a claimed index and no premise: it neither stops the
    F_p elimination nor matches, but a result that ``cheap_proof`` leaves
    undecided is certified when either is given, and under ``force_certify``.
    A bare matrix, with neither, claims nothing to decide: only
    ``cheap_proof`` runs on it, so its undecided upper bound is reported
    without a Bareiss run over all its indeterminates.
    """
    if target is None and declared is None and not force_certify:
        validate_budget(max_terms, cert_timeout)
        return cheap_proof(matrix, None, seed)[0]
    return prove_indices([(matrix, target)], seed=seed, certify_all=force_certify,
                         max_terms=max_terms, cert_timeout=cert_timeout)[0]


# ---------------------------------------------------------------------------
# Generic structure-constant documents.
#
# Schema (all indices 0-based):
#   {
#     "dim_q": n,                      acting algebra dimension (rows)
#     "dim_v": s,                      module dimension (columns)
#     "brackets": [[i, j, k, num, den], ...],
#                                      x_i . v_j has coefficient num/den on v_k;
#                                      repeated (i, j, k) entries accumulate
#     "rank": r,                       optional claimed index, only compared
#     "index_lower_bound": b           optional proven lower bound for the index,
#                                      0 <= b <= s; export_action writes min(r)
#   }


class GenericActionError(ValueError):
    """Malformed or inconsistent structure-constant document."""


def _require_int(doc: dict, key: str) -> int:
    if key not in doc:
        raise GenericActionError(f"missing field {key!r}")
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise GenericActionError(f"field {key!r} must be a non-negative integer")
    return v


def _checked_bracket(pos: int, item, dim_q: int, dim_v: int) -> list[int]:
    """The bracket ``item`` as five ints, else the error for its first defect."""
    where = f"brackets[{pos}]"
    if not isinstance(item, list) or len(item) != 5:
        raise GenericActionError(f"{where}: expected [i, j, k, num, den]")
    for name, v in zip(("i", "j", "k", "num", "den"), item):
        if not isinstance(v, int) or isinstance(v, bool):
            raise GenericActionError(f"{where}: {name} must be an integer")
    i, j, k, num, den = item
    if not 0 <= i < dim_q:
        raise GenericActionError(f"{where}: i={i} out of range (dim_q={dim_q})")
    if not (0 <= j < dim_v and 0 <= k < dim_v):
        raise GenericActionError(f"{where}: j={j}, k={k} out of range (dim_v={dim_v})")
    if den == 0:
        raise GenericActionError(f"{where}: zero denominator")
    return [int(v) for v in item]


def _primitive_row(brackets: list[list[int]]) -> dict[int, dict[int, int]]:
    """The cells of one row's brackets, cleared of denominators and primitive.

    Each coefficient is num * (L // den) // g for the lcm L of the row's
    denominators and the gcd g of the scaled values.  A row that repeats
    an (i, j, k) or has a zero numerator accumulates first and keeps only
    the coefficients that do not cancel; it may come out empty.
    """
    scale = lcm(*{b[4] for b in brackets})
    values = [b[3] * (scale // b[4]) for b in brackets]
    if 0 not in values:
        content = gcd(*values)
        row: dict[int, dict[int, int]] = {}
        for (_, j, k, _, _), v in zip(brackets, values):
            row.setdefault(j, {})[k] = v // content
        if sum(map(len, row.values())) == len(brackets):
            return row
    sums: dict[int, dict[int, int]] = {}
    for (_, j, k, _, _), v in zip(brackets, values):
        form = sums.setdefault(j, {})
        form[k] = form.get(k, 0) + v
    row = {j: kept for j, form in sums.items() if (kept := {k: c for k, c in form.items() if c})}
    content = gcd(*(c for form in row.values() for c in form.values()))
    return {j: {k: c // content for k, c in form.items()} for j, form in row.items()}


def parse_action_document(doc: dict) -> tuple[LinearFormMatrix, int | None, int | None]:
    """Validate a structure-constant document.

    Returns (matrix, declared rank, index lower bound), the last two None
    when the document leaves them out.  The declared ``rank`` is a claimed
    index, only compared with the result.  ``index_lower_bound`` is taken
    as proven, as ``export_action`` proves it: ``index_of_matrix`` uses it
    as its ``target``.  It must be an integer from 0 to ``dim_v``.

    A bracket of five plain ints in range with a nonzero denominator costs
    one type test per field and its range tests.  Any other bracket goes
    through the full checks, in order: a list of five, each field an
    integer and no bool (an ``int`` subclass such as an ``IntEnum`` is
    accepted), i, then j and k in range, a nonzero denominator.  The first
    bracket that fails them raises ``GenericActionError`` naming its
    position, as in ``brackets[3]: den must be an integer``.

    The matrix holds only what the document states, as neither a zero row
    nor an unused indeterminate changes the generic rank: the actions x_i
    with a nonzero cell, in order of i, on ``dim_v`` columns, in the u
    indeterminates that occur, renumbered 0..u-1 in increasing order (a
    no-op when they already are 0..u-1).  Row scaling keeps the rank too,
    so each row is primitive in integers: its coefficients times the lcm
    of its brackets' denominators, divided by their gcd.  A row that
    repeats an (i, j, k) or has a zero numerator accumulates its brackets
    first and does not store a coefficient that cancels.  Ints only: a row
    whose content is a multiple of the evaluation prime keeps its F_p rank.
    """
    if not isinstance(doc, dict):
        raise GenericActionError("document must be a JSON object")
    dim_q = _require_int(doc, "dim_q")
    dim_v = _require_int(doc, "dim_v")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise GenericActionError("field 'brackets' must be a list")
    by_row: defaultdict[int, list[list[int]]] = defaultdict(list)
    for pos, item in enumerate(brackets):
        if type(item) is list and len(item) == 5:
            i, j, k, num, den = item
            if (type(i) is type(j) is type(k) is type(num) is type(den) is int
                    and 0 <= i < dim_q and 0 <= j < dim_v and 0 <= k < dim_v and den):
                by_row[i].append(item)
                continue
        item = _checked_bracket(pos, item, dim_q, dim_v)
        by_row[item[0]].append(item)
    cells = []
    used: set[int] = set()
    for i in sorted(by_row):
        if row := _primitive_row(by_row[i]):
            cells.append(row)
            used.update(*row.values())
    if used and max(used) != len(used) - 1:
        new = {k: t for t, k in enumerate(sorted(used))}
        cells = [{j: {new[k]: c for k, c in form.items()} for j, form in row.items()}
                 for row in cells]
    declared = _require_int(doc, "rank") if "rank" in doc else None
    bound = None
    if "index_lower_bound" in doc:
        bound = _require_int(doc, "index_lower_bound")
        if bound > dim_v:
            raise GenericActionError(f"field 'index_lower_bound' must be at most "
                                     f"dim_v={dim_v}, got {bound}")
    return LinearFormMatrix(cells, len(used), dim_v), declared, bound


def export_action(cent: GradedCentralizer, declared_rank: int | None = None) -> dict:
    """Serialize the degree-0 action of ``cent`` to the document schema.

    The brackets are the cells of ``build_action_matrix(cent)`` in order of
    i, then j, then k.  ``index_lower_bound`` is min(r) for the grading r of
    ``cent``'s orbit, which Vinberg's inequality makes a lower bound for the
    index; it is computed here from ``cent`` itself, so the document's bound
    is proven whatever the caller passes.  ``declared_rank``, if given, is
    written as ``rank``, a claimed index that ``index-file`` only compares.
    """
    matrix = build_action_matrix(cent)
    brackets = [[i, j, k, row[j][k], 1] for i, row in enumerate(matrix.cells)
                for j in sorted(row) for k in sorted(row[j])]
    doc = {
        "dim_q": matrix.rows,
        "dim_v": matrix.cols,
        "brackets": brackets,
        "index_lower_bound": min(cent.partition.residue_counts(cent.m)),
    }
    if declared_rank is not None:
        doc["rank"] = declared_rank
    return doc
