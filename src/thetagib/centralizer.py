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

from typing import NamedTuple, NoReturn

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
    """Centralizer basis of a labeled partition, bucketed by degree mod m.

    ``by_degree[g]`` lists the xi_i^{j,s} of degree g in order of (i, j, s).
    The build visits each (i, j) once and steps its degree up by one per s,
    wrapping at m, so no element costs a ``% m`` or ``XiElement.__new__``.
    """

    __slots__ = ("partition", "m", "lengths", "labels", "by_degree")

    def __init__(self, partition: LabeledPartition, m: int):
        if any(t >= m for _, t in partition.blocks):
            raise ValueError("block label out of range for the given order")
        self.partition = partition
        self.m = m
        self.lengths = tuple(l for l, _ in partition.blocks)
        self.labels = tuple(t for _, t in partition.blocks)
        buckets: list[list[XiElement]] = [[] for _ in range(m)]
        new = tuple.__new__
        blocks = tuple(enumerate(partition.blocks, 1))
        for i, (li, ti) in blocks:
            for j, (lj, tj) in blocks:
                lo = lj - li if lj > li else 0
                deg = (lo + tj - ti) % m
                for s in range(lo, lj):
                    buckets[deg].append(new(XiElement, (i, j, s)))
                    deg += 1
                    if deg == m:
                        deg = 0
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
        v.j == x.i or v.i == x.j are visited.  Each v meets each term at most
        once, so a row takes one pass: a + term writes its cell as {k: 1},
        and a - term then joins that cell or, at the same k, deletes it.
        Grading forces every bracket back into degree m-1; anything else is
        a bug, not an input error.
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
            cells: dict[int, dict[int, int]] = {}
            for j, vi, vs in by_j.get(xi, ()):
                k = col.get((vi, xj, xs + vs))
                if k is not None:
                    cells[j] = {k: 1}
                elif self.in_range(vi, xj, xs + vs):
                    self._grading_violation(acting[row], module[j], vi, xj, xs + vs)
            for j, vj, vs in by_i.get(xj, ()):
                k = col.get((xi, vj, xs + vs))
                if k is None:
                    if self.in_range(xi, vj, xs + vs):
                        self._grading_violation(acting[row], module[j], xi, vj, xs + vs)
                    continue  # an out-of-range symbol is zero
                entry = cells.get(j)
                if entry is None:
                    cells[j] = {k: -1}
                elif k in entry:
                    del cells[j]  # [x, v] = z - z
                else:
                    entry[k] = -1
            rows.append(cells)
        return rows

    def _grading_violation(self, x: XiElement, v: XiElement, i: int, j: int,
                           s: int) -> NoReturn:
        """[x, v] has the in-range term xi_i^{j,s}, which the module lacks."""
        z = XiElement(i, j, s)
        raise RuntimeError(f"grading violation: [{x}, {v}] contains {z} "
                           f"of degree {self.degree(z)}")


def build_centralizer(partition: LabeledPartition, m: int) -> GradedCentralizer:
    """Construct the graded centralizer basis for the given blocks."""
    return GradedCentralizer(partition, m)
