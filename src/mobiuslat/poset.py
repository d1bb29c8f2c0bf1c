"""Finite posets and bounded lattices over numpy order matrices.

A poset stores its full order relation as a boolean matrix plus its Hasse
diagram, a boolean cover matrix computed once, when the order is validated
at construction.  The dual transposes both instead of recomputing them.
Mobius values come straight from the defining recurrence (the value at
(x, z) makes the interval sums telescope to a delta), evaluated bottom-up
along a linear extension; this module is the oracle the rest of the
package is measured against.

Lattice promotion computes total meet and join tables; the join table is
the meet table of the dual.  For an element x with lower covers d_1..d_k,
any lower bound of {x, y} other than x itself sits under some d_t, so
meet(x, y) must be the largest of the meet(d_t, y); when no single
candidate dominates the others the input is not a lattice and the
offending pair is reported.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np


class CycleDetected(ValueError):
    """Raised when a cover relation is not acyclic."""


class NotComparable(ValueError):
    """Raised when a Mobius query is made outside the order relation."""


class NotALattice(ValueError):
    """Raised when some pair lacks a unique meet or join."""


def _bool_square(m: np.ndarray) -> np.ndarray:
    """Boolean matrix product m @ m, exact, chunked to bound memory.

    float32 keeps integer counts exact below 2**24, far above any row sum
    reachable here; chunking keeps peak allocation at a few hundred rows.
    """
    n = m.shape[0]
    mf = m.astype(np.float32)
    out = np.empty((n, n), dtype=bool)
    step = 512
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        out[lo:hi] = (mf[lo:hi] @ mf) > 0.5
    return out


class FinitePoset:
    """Immutable finite poset with string labels and a boolean leq matrix.

    A boolean matrix is not copied: leq is a read-only view of it, so the
    caller's array stays writable but must not change afterwards.
    """

    def __init__(self, labels, leq: np.ndarray):
        self.labels: tuple[str, ...] = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError("order matrix shape does not match label count")
        if not leq.diagonal().all():
            raise ValueError("order relation is not reflexive")
        strict = leq & ~np.eye(n, dtype=bool)
        if (strict & strict.T).any():
            raise ValueError("order relation is not antisymmetric")
        through = _bool_square(strict)
        if (through & ~strict).any():
            raise ValueError("order relation is not transitive")
        self._covers_matrix = strict & ~through
        self.leq = leq.view()
        self.leq.setflags(write=False)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._mobius_cols: dict[int, np.ndarray] = {}
        self._extension: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_covers(cls, labels, covers) -> "FinitePoset":
        """Poset generated by cover pairs (lo, hi) of labels.

        The order is the reflexive-transitive closure of the pairs; a cycle
        is rejected.
        """
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        up = [[] for _ in range(n)]
        indeg_out = [0] * n
        for lo, hi in covers:
            up[index[lo]].append(index[hi])
            indeg_out[index[hi]] += 1
        # Kahn order over the cover digraph
        order = [v for v in range(n) if indeg_out[v] == 0]
        seen = list(order)
        indeg = indeg_out[:]
        while order:
            nxt = []
            for v in order:
                for w in up[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        nxt.append(w)
            seen.extend(nxt)
            order = nxt
        if len(seen) != n:
            raise CycleDetected("cover relation contains a cycle")
        leq = np.eye(n, dtype=bool)
        for v in reversed(seen):
            for w in up[v]:
                leq[v] |= leq[w]
        return cls(labels, leq)

    # -- basic queries ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def _as_index(self, x) -> int:
        return x if isinstance(x, (int, np.integer)) else self._index[x]

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (lo, hi) as indices, sorted."""
        lo, hi = np.nonzero(self._covers_matrix)  # row-major, so already sorted
        return list(zip(lo.tolist(), hi.tolist()))

    def dual(self) -> "FinitePoset":
        """Same elements, reversed order.

        The transpose of a valid order is valid and its Hasse diagram is the
        transposed one, so nothing is validated or derived again; both are
        views of this poset's matrices, not copies.
        """
        d = copy.copy(self)
        d.leq = self.leq.T
        d._covers_matrix = self._covers_matrix.T
        d._mobius_cols = {}
        d._extension = None
        return d

    def interval(self, x, z) -> "FinitePoset":
        """The subposet {y : x <= y <= z}."""
        xi, zi = self._as_index(x), self._as_index(z)
        if not self.leq[xi, zi]:
            raise NotComparable(f"{self.labels[xi]} is not below {self.labels[zi]}")
        idx = np.nonzero(self.leq[xi] & self.leq[:, zi])[0]
        return FinitePoset([self.labels[i] for i in idx], self.leq[np.ix_(idx, idx)])

    # -- Mobius values ------------------------------------------------------

    def _linear_extension(self) -> np.ndarray:
        if self._extension is None:
            # sorting by down-set size puts every element after all it covers
            self._extension = np.argsort(self.leq.sum(axis=0), kind="stable")
        return self._extension

    def _mobius_from(self, xi: int) -> np.ndarray:
        """Vector of mu(x, y) over all y, zero where x is not below y."""
        col = self._mobius_cols.get(xi)
        if col is None:
            n = self.size
            above = self.leq[xi]
            mu = np.zeros(n, dtype=np.int64)
            for y in self._linear_extension():
                if not above[y]:
                    continue
                below_y = self.leq[:, y] & above
                total = int(mu[below_y].sum())
                mu[y] = (1 if y == xi else 0) - total
            col = mu
            col.setflags(write=False)
            self._mobius_cols[xi] = col
        return col

    def mobius(self, x, z) -> int:
        """mu(x, z) by the interval recurrence."""
        xi, zi = self._as_index(x), self._as_index(z)
        if not self.leq[xi, zi]:
            raise NotComparable(f"{self.labels[xi]} is not below {self.labels[zi]}")
        return int(self._mobius_from(xi)[zi])

    def mobius_matrix(self) -> np.ndarray:
        """Full matrix of mu(x, y); the integer inverse of the order matrix."""
        n = self.size
        out = np.empty((n, n), dtype=np.int64)
        for xi in range(n):
            out[xi] = self._mobius_from(xi)
        return out

    def to_dot(self) -> str:
        """DOT digraph of the Hasse diagram, edges from covered to covering."""
        def quote(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph hasse {", "  rankdir=BT;"]
        for lab in self.labels:
            lines.append(f"  {quote(lab)};")
        for lo, hi in self.covers():
            lines.append(f"  {quote(self.labels[lo])} -> {quote(self.labels[hi])};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """Hasse diagram as plain data: element labels plus cover pairs."""
        return {
            "elements": list(self.labels),
            "covers": [[self.labels[lo], self.labels[hi]] for lo, hi in self.covers()],
        }


@dataclass(frozen=True)
class BoundedLattice:
    """A finite lattice: poset, its bounds, and total meet/join tables."""

    poset: FinitePoset
    bottom: int
    top: int
    meet_table: np.ndarray = field(repr=False)
    join_table: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.poset.size

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def _as_index(self, x) -> int:
        return self.poset._as_index(x)

    def leq(self, x, y) -> bool:
        return bool(self.poset.leq[self._as_index(x), self._as_index(y)])

    def meet(self, x, y) -> int:
        return int(self.meet_table[self._as_index(x), self._as_index(y)])

    def join(self, x, y) -> int:
        return int(self.join_table[self._as_index(x), self._as_index(y)])

    def meet_of(self, xs) -> int:
        acc = self.top
        for x in xs:
            acc = self.meet(acc, x)
        return acc

    def join_of(self, xs) -> int:
        acc = self.bottom
        for x in xs:
            acc = self.join(acc, x)
        return acc

    def atoms(self) -> list[int]:
        """Elements covering the bottom, in element-index order."""
        return np.flatnonzero(self.poset._covers_matrix[self.bottom]).tolist()

    def coatoms(self) -> list[int]:
        """Elements covered by the top, in element-index order."""
        return np.flatnonzero(self.poset._covers_matrix[:, self.top]).tolist()

    def mobius_number(self) -> int:
        """mu(bottom, top) by the defining recurrence."""
        return self.poset.mobius(self.bottom, self.top)

    def dual(self) -> "BoundedLattice":
        """Reverse the order: bounds swap and meet/join tables swap."""
        return BoundedLattice(
            poset=self.poset.dual(),
            bottom=self.top,
            top=self.bottom,
            meet_table=self.join_table,
            join_table=self.meet_table,
        )

    def interval_lattice(self, x, z) -> "BoundedLattice":
        """The interval [x, z] as a lattice in its own right."""
        return as_lattice(self.poset.interval(x, z))


def _lower_covers(poset: FinitePoset) -> list[np.ndarray]:
    """Lower covers of each element, ascending, from one scan of the covers.

    The cover matrix is scanned in memory order, whether it is the poset's
    own C-ordered array or the transposed view a dual holds.
    """
    n = poset.size
    covers = poset._covers_matrix
    if covers.flags.c_contiguous:
        lo, hi = np.divmod(np.flatnonzero(covers), n)
        by_hi = np.argsort(hi, kind="stable")
        lo, hi = lo[by_hi], hi[by_hi]
    else:
        hi, lo = np.divmod(np.flatnonzero(covers.T), n)
    return np.split(lo, np.searchsorted(hi, np.arange(1, n)))


def _meet_table(poset: FinitePoset, bottom: int) -> np.ndarray:
    n = poset.size
    leq = poset.leq
    lower = _lower_covers(poset)
    ext = poset._linear_extension()
    pos = np.empty(n, dtype=np.intp)
    pos[ext] = np.arange(n)
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    table = np.full((n, n), -1, dtype=dtype)
    table[bottom, bottom] = bottom
    # ext[0] is the bottom, the only element whose down-set has size 1
    for step in range(1, n):
        x, done = int(ext[step]), ext[:step]
        mv = table[np.ix_(lower[x], done)].astype(np.intp)
        pick = mv[pos[mv].argmax(axis=0), np.arange(step)]
        bad = ~leq[mv, pick[None, :]].all(axis=0)
        row = np.where(leq[done, x], done, np.where(leq[x, done], x, pick))
        comparable = leq[done, x] | leq[x, done]
        bad &= ~comparable
        if bad.any():
            y = int(done[int(np.nonzero(bad)[0][0])])
            raise NotALattice(
                f"no unique lower bound for {poset.labels[x]!r}, {poset.labels[y]!r}"
            )
        table[x, done] = row.astype(dtype)
        table[done, x] = row.astype(dtype)
        table[x, x] = x
    return table


def as_lattice(poset: FinitePoset) -> BoundedLattice:
    """Promote a poset to a lattice, or reject it with a witness.

    Requires a unique minimum and maximum; then builds the full meet table
    (and, as the meet table of the dual, the join table) along a linear
    extension, checking at every step that the candidate bound is unique.
    """
    n = poset.size
    bottoms = np.nonzero(poset.leq.sum(axis=1) == n)[0]
    tops = np.nonzero(poset.leq.sum(axis=0) == n)[0]
    if len(bottoms) != 1:
        raise NotALattice("no unique minimum element")
    if len(tops) != 1:
        raise NotALattice("no unique maximum element")
    bottom, top = int(bottoms[0]), int(tops[0])
    meet = _meet_table(poset, bottom)
    join = _meet_table(poset.dual(), top)
    return BoundedLattice(poset=poset, bottom=bottom, top=top, meet_table=meet, join_table=join)
