"""Graded centralizer of a nilpotent Jordan form.

Fix a nilpotent e with Jordan blocks of lengths l_1 >= ... >= l_k, block
generators w_1, ..., w_k, and write d_i = l_i - 1.  The centralizer of e in
gl_n has the classical basis xi_i^{j,s} determined by

    xi_i^{j,s} . w_i = e^s . w_j,      xi_i^{j,s} . w_t = 0  (t != i),

with s restricted to  max(d_j - d_i, 0) <= s <= d_j;  outside that range the
symbol denotes 0.  Composition gives the commutator rule

    [xi_i^{j,s}, xi_p^{q,t}] = delta(q,i) xi_p^{j,s+t} - delta(j,p) xi_i^{q,s+t}.

When the blocks carry labels t(i) (the generator eigenvalue residues of a
labeled partition), each basis element is homogeneous of degree
s + t(j) - t(i) mod m, which splits the centralizer into its graded pieces.
Degree 0 is the stabilizer subalgebra acting on the degree m-1 piece; the
structure constants of that action feed the index computation.
"""

from __future__ import annotations

from typing import NamedTuple

from .orbits import LabeledPartition


class XiElement(NamedTuple):
    """Basis element xi_i^{j,s}; i, j are 1-based block indices.

    A plain tuple (i, j, s), so it compares, sorts and hashes as one.
    """

    i: int
    j: int
    s: int

    def to_text(self) -> str:
        return f"xi_{self.i}^{{{self.j},{self.s}}}"

    def __str__(self) -> str:
        return self.to_text()


class GradedCentralizer:
    """Centralizer basis of a labeled partition, bucketed by degree mod m."""

    __slots__ = ("partition", "m", "lengths", "labels", "by_degree")

    def __init__(self, partition: LabeledPartition, m: int):
        if any(t >= m for _, t in partition.blocks):
            raise ValueError("block label out of range for the given order")
        self.partition = partition
        self.m = m
        self.lengths = tuple(l for l, _ in partition.blocks)
        self.labels = tuple(t for _, t in partition.blocks)
        buckets: list[list[XiElement]] = [[] for _ in range(m)]
        k = len(self.lengths)
        d = [l - 1 for l in self.lengths]
        t = self.labels
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                lo = max(d[j - 1] - d[i - 1], 0)
                for s in range(lo, d[j - 1] + 1):
                    deg = (s + t[j - 1] - t[i - 1]) % m
                    buckets[deg].append(XiElement(i, j, s))
        self.by_degree = tuple(tuple(b) for b in buckets)

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.by_degree)

    def degree(self, x: XiElement) -> int:
        return (x.s + self.labels[x.j - 1] - self.labels[x.i - 1]) % self.m

    def in_range(self, i: int, j: int, s: int) -> bool:
        di = self.lengths[i - 1] - 1
        dj = self.lengths[j - 1] - 1
        return max(dj - di, 0) <= s <= dj

    def action_structure_constants(self) -> list[dict[int, dict[int, int]]]:
        """Brackets of the degree-0 basis against the degree-(m-1) basis.

        Returns the rows of ``LinearFormMatrix``, one per x_i in ``by_degree[0]``:
        N[i][j][k] is the coefficient of v_k in [x_i, v_j], v in ``by_degree[m-1]``,
        and a zero bracket or coefficient has no key.  By the commutator rule,
        [x, v] = delta(v.j, x.i) xi_(v.i)^(x.j, x.s+v.s)
        - delta(x.j, v.i) xi_(x.i)^(v.j, x.s+v.s), so only the v with
        v.j == x.i or v.i == x.j are visited.  Grading forces every bracket
        back into degree m-1; anything else is a bug, not an input error.
        """
        acting = self.by_degree[0]
        module = self.by_degree[self.m - 1]
        col = {v: k for k, v in enumerate(module)}
        # the module by v.j and by v.i, each v as (column, its other index, v.s)
        by_j: dict[int, list[tuple[int, int, int]]] = {}
        by_i: dict[int, list[tuple[int, int, int]]] = {}
        for k, (vi, vj, vs) in enumerate(module):
            by_j.setdefault(vj, []).append((k, vi, vs))
            by_i.setdefault(vi, []).append((k, vj, vs))
        rows: list[dict[int, dict[int, int]]] = []
        for row, (xi, xj, xs) in enumerate(acting):
            # (column, z.i, z.j, z.s, sign) of each term, the + term of the rule first
            terms = [(j, vi, xj, xs + vs, 1) for j, vi, vs in by_j.get(xi, ())]
            terms += [(j, xi, vj, xs + vs, -1) for j, vj, vs in by_i.get(xj, ())]
            cells: dict[int, dict[int, int]] = {}
            for j, zi, zj, s, sign in terms:
                k = col.get((zi, zj, s))
                if k is None:
                    if not self.in_range(zi, zj, s):
                        continue  # an out-of-range symbol is zero
                    z = XiElement(zi, zj, s)
                    raise RuntimeError(
                        f"grading violation: [{acting[row]}, {module[j]}] contains {z} "
                        f"of degree {self.degree(z)}"
                    )
                entry = cells.setdefault(j, {})
                c = entry.get(k, 0) + sign
                if c:
                    entry[k] = c
                else:
                    del entry[k]
            rows.append({j: entry for j, entry in cells.items() if entry})
        return rows


def build_centralizer(partition: LabeledPartition, m: int) -> GradedCentralizer:
    """Construct the graded centralizer basis for the given blocks."""
    return GradedCentralizer(partition, m)
