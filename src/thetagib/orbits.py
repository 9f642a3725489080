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
from operator import sub

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

    Each is a pair (sign, c) from ``residue_maps(m)``, listed in its order;
    the map is allowed when target[sign*x + c] = r[x] for every residue x,
    that is when ``residue_image(target, sign, c) == r``.  With
    ``target == r`` they are the symmetries of r, the identity (1, 0) first.
    """
    return [(sign, c) for sign, c in residue_maps(len(r))
            if residue_image(target, sign, c) == r]


def residue_image(r: tuple[int, ...], sign: int, c: int) -> tuple[int, ...]:
    """The grading x -> r[sign*x + c mod m], r read through a residue map."""
    return tuple(r[(sign * x + c) % len(r)] for x in range(len(r)))


def residue_maps(m: int) -> list[tuple[int, int]]:
    """All 2m maps x -> sign*x + c (mod m): rotations (sign +1), then reflections, by c."""
    return [(sign, c) for sign in (1, -1) for c in range(m)]


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


def _least_block_tuples(r: tuple[int, ...], symmetries) -> list[tuple[tuple[int, int], ...]]:
    """The least canonical block tuple of each dihedral class of orbits of r.

    Orderly generation (Read, Ann. Discrete Math. 2, 1978).  Members of a
    class share their block lengths, so canonical order compares them by
    the label sequence, one length group at a time, longest first.  Blocks
    are placed in that order, labels nondecreasing inside a group.  When a
    group is finished, each still active symmetry (one under which every
    earlier group's labels were their own image) sorts its image of the
    group's labels: a smaller image means no completion is least, so the
    branch is pruned; a larger one means this symmetry's image of every
    completion is larger, so it is dropped.  The length-1 group takes what
    the residue budget leaves.  Tuples come out in canonical order, the
    zero orbit last.
    """
    m, n = len(r), sum(r)
    usage = [[tuple(_block_usage(l, t, m)) for t in range(m)] for l in range(n + 1)]
    out: list[tuple[tuple[int, int], ...]] = []
    chosen: list[tuple[int, int]] = []

    def still_active(length: int, group: list[int], active: list) -> list | None:
        """The symmetries still active after ``group``, or None to prune."""
        kept = []
        for sign, c in active:
            if sign == 1:
                image = sorted((t + c) % m for t in group)
            else:
                image = sorted((c - t - length + 1) % m for t in group)
            if image < group:
                return None
            if image == group:
                kept.append((sign, c))
        return kept

    def grow(length: int, budget: tuple[int, ...], remaining: int,
             group: list[int], active: list) -> None:
        if length == 1:
            # an active symmetry fixes every longer group and r, so also the
            # budget left, which the length-1 blocks fill: their image is equal
            out.append(tuple(chosen) + tuple((1, t) for t in range(m) for _ in range(budget[t])))
            return
        if remaining >= length:
            for t in range(group[-1] if group else 0, m):
                left = tuple(map(sub, budget, usage[length][t]))
                if min(left) >= 0:
                    group.append(t)
                    chosen.append((length, t))
                    grow(length, left, remaining - length, group, active)
                    chosen.pop()
                    group.pop()
        if group:
            active = still_active(length, group, active)
            if active is None:
                return
        # no block is longer than what is left to place
        grow(max(1, min(length - 1, remaining)), budget, remaining, [], active)

    grow(n, r, n, [], symmetries[1:])
    return out


def dihedral_classes(rep: ThetaRep) -> list[tuple[LabeledPartition, list[LabeledPartition]]]:
    """Every nilpotent orbit of ``rep``, zero included, grouped by dihedral class.

    Two orbits are in one class when a symmetry of r, a rotation or
    reflection of the residues (``dihedral_maps(r, r)``), carries one onto
    the other.  Each class is a pair (representative, members): the
    members are the distinct images of the representative in canonical
    order, the representative first, and the classes come in canonical
    order of their representatives.
    """
    symmetries = dihedral_maps(rep.r, rep.r)
    classes = []
    for least in _least_block_tuples(rep.r, symmetries):
        # members share their lengths, so plain tuple order is canonical order
        members = [LabeledPartition(b)
                   for b in sorted(set(dihedral_images(least, rep.m, symmetries)))]
        classes.append((members[0], members))
    return classes


def all_nilpotent_orbits(rep: ThetaRep) -> list[LabeledPartition]:
    """Every nilpotent orbit including zero, in canonical order.

    All blocks of the zero orbit have length 1, so it sorts after every
    nonzero orbit.
    """
    return sorted((orbit for _, members in dihedral_classes(rep) for orbit in members),
                  key=LabeledPartition.sort_key)


def enumerate_orbits(rep: ThetaRep) -> list[LabeledPartition]:
    """The nonzero nilpotent orbits of ``rep``, canonical and duplicate-free.

    The orbit of 0 (all blocks of length 1) is left out, matching the usual
    convention for orbit lists; ``all_nilpotent_orbits`` keeps it for
    consumers that check every nilpotent element.
    """
    return all_nilpotent_orbits(rep)[:-1]


def orbit_dimension(partition: LabeledPartition, rep: ThetaRep) -> int:
    """dim of the orbit through a representative: dim g_0 minus its stabilizer."""
    if not partition.valid_for(rep):
        raise ValueError(f"partition {partition} does not belong to {rep}")
    from .centralizer import build_centralizer

    cent = build_centralizer(partition, rep.m)
    dim_g0 = sum(x * x for x in rep.r)
    return dim_g0 - len(cent.by_degree[0])
