"""Inner finite-order gradings of gl_n described by multiplicity vectors.

A degree-m cyclic grading of gl_n given by conjugation with a diagonal
matrix of m-th roots of unity is determined, up to conjugacy and cyclic
rotation, by the eigenspace dimensions r = (r_0, ..., r_{m-1}).  This module
holds that combinatorial data, its rendering as a cycle-shaped Kac diagram,
and the elementary transforms (cyclic normal form, degree reversal, slice
reduction) plus the pattern predicates that the closed-form classification
theorems use.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ThetaRep:
    """Order-m grading of gl_n with eigenspace dimensions ``r``.

    ``r[t]`` is the dimension of the t-th eigenspace; n = sum(r).  Zero
    entries are allowed (rank-zero gradings exist); the order must be >= 2.
    """

    m: int
    r: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("order m must be >= 2")
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        if len(self.r) != self.m:
            raise ValueError(f"r has length {len(self.r)}, expected m={self.m}")
        if any(x < 0 for x in self.r):
            raise ValueError("multiplicities must be non-negative")
        if sum(self.r) < 1:
            raise ValueError("n = sum(r) must be >= 1")

    @classmethod
    def of(cls, *r: int) -> "ThetaRep":
        return cls(len(r), tuple(r))

    @classmethod
    def parse(cls, text: str) -> "ThetaRep":
        """Parse ``"m=4 r=3,3,1,2"`` or the bare vector ``"3,3,1,2"``.

        Any other text raises one ``ValueError`` that quotes it and names the
        two accepted forms.
        """
        try:
            if "=" in text:
                tokens = text.split()
                fields = dict(tok.split("=", 1) for tok in tokens)
                if len(fields) != len(tokens) or not {"r"} <= fields.keys() <= {"m", "r"}:
                    raise ValueError
            else:
                fields = {"r": text}
            r = tuple(int(x) for x in fields["r"].split(","))
            m = int(fields["m"]) if "m" in fields else len(r)
        except ValueError:
            raise ValueError(f'cannot parse grading {text!r}: expected '
                             f'"3,3,1,2" or "m=4 r=3,3,1,2"') from None
        return cls(m, r)

    def to_text(self) -> str:
        return f"m={self.m} r=" + ",".join(str(x) for x in self.r)

    @property
    def n(self) -> int:
        return sum(self.r)

    def rank(self) -> int:
        """Dimension of a maximal commuting semisimple subspace in degree 1.

        For these gradings it equals the smallest multiplicity.
        """
        return min(self.r)

    def graded_dims(self) -> tuple[int, int, int]:
        """(dim of degree 0, degree 1, degree -1).

        Degree 0 is the block-diagonal subalgebra, sum of r_t^2; degree +-1
        are the sums of adjacent products r_t * r_{t+-1 mod m}.
        """
        d0 = sum(x * x for x in self.r)
        d1 = sum(self.r[t] * self.r[(t + 1) % self.m] for t in range(self.m))
        return d0, d1, d1

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.r) + ")"


def to_kac_diagram(rep: ThetaRep) -> str:
    """The node cycle of ``rep``: per multiplicity x, ``●`` then x - 1 ``o``.

    Each black node opens an arc whose multiplicity is one plus the number
    of white nodes before the next black node, so there are m black nodes.
    Requires every multiplicity >= 1.
    """
    if min(rep.r) < 1:
        raise ValueError("cannot encode a zero multiplicity as a diagram arc")
    return "".join("●" + "o" * (x - 1) for x in rep.r)


def rotations(r: tuple[int, ...]):
    for i in range(len(r)):
        yield r[i:] + r[:i]


def normalize_cyclic(rep: ThetaRep) -> ThetaRep:
    """Lexicographically smallest rotation of the multiplicity vector."""
    return ThetaRep(rep.m, min(rotations(rep.r)))


def slice_reduce(rep: ThetaRep, b: int) -> ThetaRep:
    """Subtract ``b`` from every multiplicity (pass to a slice of the action).

    Requires b <= min(r); the result keeps the same order.
    """
    if b > rep.rank():
        raise ValueError(f"b={b} exceeds the rank {rep.rank()}")
    return ThetaRep(rep.m, tuple(x - b for x in rep.r))


def dual_rep(rep: ThetaRep) -> ThetaRep:
    """Reverse the cyclic order, fixing position 0.

    This realizes the degree -1 piece of the original grading as the
    degree 1 piece of the result, so verdicts must agree between the two.
    """
    r = rep.r
    return ThetaRep(rep.m, (r[0],) + tuple(reversed(r[1:])))


@dataclass(frozen=True)
class PatternFlags:
    """Shape predicates feeding the closed-form classification statements."""

    has_cyclic_triple_ge2: bool
    matches_theorem_m3_shape: bool
    matches_prop_1groups_1: bool


def _cyclic_triple_ge2(r: tuple[int, ...]) -> bool:
    m = len(r)
    return any(
        r[i] >= 2 and r[(i + 1) % m] >= 2 and r[(i + 2) % m] >= 2
        for i in range(m)
    )


def pattern_predicates(rep: ThetaRep) -> PatternFlags:
    """Predicted-shape flags; the orbit checker computes ground truth.

    Consecutive-entry conditions are read cyclically, consistent with the
    rotation invariance of the vectors themselves.
    """
    r = rep.r
    triple = _cyclic_triple_ge2(r)
    m3 = rep.m == 3 and (0 in r or 1 in r or sum(1 for x in r if x == 2) >= 2)
    groups1 = (1 in r) and not triple
    return PatternFlags(
        has_cyclic_triple_ge2=triple,
        matches_theorem_m3_shape=m3,
        matches_prop_1groups_1=groups1,
    )


def predicted_gib(rep: ThetaRep) -> bool | None:
    """Closed-form verdict where one of the classification statements applies.

    Order 3 is fully classified (families (a,b,0), (a,b,1), (2,2,a) up to
    rotation).  For order >= 4 and positive rank: rank > 1 always fails;
    rank 1 fails exactly when three cyclically consecutive entries are all
    >= 2.  Everything else (order 2, rank zero at order >= 4) gets no
    prediction here.
    """
    flags = pattern_predicates(rep)
    if rep.m == 3:
        return flags.matches_theorem_m3_shape
    if rep.m >= 4 and rep.rank() >= 1:
        if rep.rank() > 1:
            return False
        return not flags.has_cyclic_triple_ge2
    return None
