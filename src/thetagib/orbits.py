"""Nilpotent orbit combinatorics for a graded gl_n.

A nilpotent element of the degree-1 piece is classified, up to the action of
the degree-0 group, by its Jordan block lengths together with the eigenvalue
label t of each block generator: applying the nilpotent shifts the label by
one, so a block of length l with label t occupies one basis vector in each
of the residues t, t+1, ..., t+l-1 (mod m).  A labeled partition therefore
belongs to the grading r exactly when those residue counts add up to r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .theta_gl import ThetaRep


def _canonical(block: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a block in canonical order: length descending, label ascending."""
    return -block[0], block[1]


@dataclass(frozen=True)
class LabeledPartition:
    """Multiset of (block length, label) pairs in canonical order.

    Canonical order is length descending, label ascending; two orbits are
    equal exactly when their canonical block tuples are equal.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple(sorted(((int(l), int(t)) for l, t in self.blocks),
                              key=_canonical))
        if any(l < 1 or t < 0 for l, t in blocks):
            raise ValueError("blocks need length >= 1 and label >= 0")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(l for l, _ in self.blocks)

    @property
    def is_zero_orbit(self) -> bool:
        return all(l == 1 for l, _ in self.blocks)

    def sort_key(self):
        return tuple((-l, t) for l, t in self.blocks)

    def residue_counts(self, m: int) -> list[int]:
        """How many basis vectors of each eigenvalue residue the blocks use."""
        counts = [0] * m
        for length, label in self.blocks:
            for c, u in enumerate(_block_usage(length, label, m)):
                counts[c] += u
        return counts

    def valid_for(self, rep: ThetaRep) -> bool:
        """True when the partition describes a nilpotent of this grading."""
        if any(t >= rep.m for _, t in self.blocks):
            return False
        return self.n == rep.n and self.residue_counts(rep.m) == list(rep.r)

    def to_text(self) -> str:
        return " ".join(f"{l}^{t}" for l, t in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "LabeledPartition":
        """Parse the ``"5^0 3^1 1^2"`` notation."""
        blocks = []
        for tok in text.split():
            length, _, label = tok.partition("^")
            if not label:
                raise ValueError(f"bad block {tok!r}; expected length^label")
            blocks.append((int(length), int(label)))
        if not blocks:
            raise ValueError("empty partition")
        return cls(tuple(blocks))

    def __str__(self) -> str:
        return self.to_text()


def _block_usage(length: int, label: int, m: int) -> list[int]:
    use = [length // m] * m
    for j in range(length % m):
        use[(label + j) % m] += 1
    return use


def dihedral_maps(r: tuple[int, ...], target: tuple[int, ...]) -> list[tuple[int, int]]:
    """The residue maps x -> sign*x + c (mod m) that carry grading r onto ``target``.

    Each is a pair (sign, c) with sign +1 (a rotation) or -1 (a reflection)
    and 0 <= c < m, listed rotations first and by c; the map is allowed
    when target[sign*x + c] = r[x] for every residue x.  With
    ``target == r`` they are the symmetries of r, the identity (1, 0) first.
    """
    m = len(r)
    return [(sign, c) for sign in (1, -1) for c in range(m)
            if all(target[(sign * x + c) % m] == r[x] for x in range(m))]


def dihedral_images(blocks, m: int, maps):
    """Yield the canonical block tuple of ``blocks`` under each of ``maps``.

    A block (l, t) covers the residues t, ..., t + l - 1.  A rotation by c
    maps it to (l, t + c); a reflection with c maps those residues onto
    c - t - l + 1, ..., c - t, so to the block (l, c - t - l + 1).  Labels
    are taken mod m, and no ``LabeledPartition`` is built.
    """
    for sign, c in maps:
        if sign == 1:
            image = [(l, (t + c) % m) for l, t in blocks]
        else:
            image = [(l, (c - t - l + 1) % m) for l, t in blocks]
        image.sort(key=_canonical)
        yield tuple(image)


def zero_orbit(rep: ThetaRep) -> LabeledPartition:
    """The orbit of 0: one length-1 block per basis vector, labels from r."""
    blocks = []
    for label, count in enumerate(rep.r):
        blocks.extend([(1, label)] * count)
    return LabeledPartition(tuple(blocks))


def enumerate_orbits(rep: ThetaRep) -> list[LabeledPartition]:
    """The nonzero nilpotent orbits of ``rep``, canonical and duplicate-free.

    Blocks are generated directly in canonical order (length descending,
    label ascending within a length) against per-residue budgets, so every
    multiset appears exactly once.  The orbit of 0 (all blocks of length 1)
    is left out of the enumeration count, matching the usual convention for
    orbit lists; ``all_nilpotent_orbits`` prepends it for consumers that
    check every nilpotent element.
    """
    m = rep.m
    budget = list(rep.r)
    out: list[LabeledPartition] = []
    chosen: list[tuple[int, int]] = []

    def recurse(remaining: int, max_len: int, min_label: int) -> None:
        if remaining == 0:
            if chosen[0][0] > 1:
                out.append(LabeledPartition(tuple(chosen)))
            return
        for length in range(min(max_len, remaining), 0, -1):
            first_label = min_label if length == max_len else 0
            for label in range(first_label, m):
                use = _block_usage(length, label, m)
                if all(budget[c] >= use[c] for c in range(m)):
                    for c in range(m):
                        budget[c] -= use[c]
                    chosen.append((length, label))
                    recurse(remaining - length, length, label)
                    chosen.pop()
                    for c in range(m):
                        budget[c] += use[c]

    recurse(rep.n, rep.n, 0)
    out.sort(key=LabeledPartition.sort_key)
    return out


def all_nilpotent_orbits(rep: ThetaRep) -> list[LabeledPartition]:
    """Every nilpotent orbit including zero, in canonical order.

    All blocks of the zero orbit have length 1, so it sorts after every
    nonzero orbit and the concatenation stays canonically sorted.
    """
    return enumerate_orbits(rep) + [zero_orbit(rep)]


def orbit_dimension(partition: LabeledPartition, rep: ThetaRep) -> int:
    """dim of the orbit through a representative: dim g_0 minus its stabilizer."""
    if not partition.valid_for(rep):
        raise ValueError(f"partition {partition} does not belong to {rep}")
    from .centralizer import build_centralizer

    cent = build_centralizer(partition, rep.m)
    dim_g0 = sum(x * x for x in rep.r)
    return dim_g0 - len(cent.by_degree[0])
