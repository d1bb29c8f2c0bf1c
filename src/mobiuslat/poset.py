"""Finite posets and bounded lattices over numpy order matrices.

A poset stores its full order relation as a boolean matrix plus its Hasse
diagram, a boolean cover matrix computed once, when the order is validated
at construction.  The dual transposes both instead of recomputing them.
Validation packs each row of the strict order into 64-bit words and ORs
the packed up-sets of every element above x into x's two-step reach, so
its cost follows the number of comparable pairs rather than N^3; the
transitivity check and the covers both read off that reach.
Mobius values come straight from the defining recurrence (the value at
(x, z) makes the interval sums telescope to a delta), evaluated bottom-up
along a linear extension over the support of mu(x, .), since zero terms
add nothing; this module is the oracle the rest of the package is
measured against.

Lattice promotion checks meets with the meet-irreducibles only, the
elements M with exactly one upper cover.  In a finite poset P with bottom
and top, if x ^ m exists for every x in P and m in M, then P is a lattice.
Going down from the top, each y other than the top is the greatest lower
bound of M(y) = {m in M : m >= y}, which the meets x ^ m build one member
at a time.  If y is in M this is immediate.  Otherwise y has two upper
covers y_1 and y_2, neither the top.  The iterated meet v of M(y) lies
under every member of M(y_1), a subset of M(y), so v <= y_1 by induction,
and likewise v <= y_2; so y <= v <= y_1, y_2, and v = y since y_1 and y_2
cover y.  Hence x ^ y is the iterated meet of x with the members of M(y),
and a finite bounded poset in which every pair has a meet is a lattice.
By duality the joins with the join-irreducibles (one lower cover each) do
as well, on the dual, and the check takes whichever set is smaller.

The meets x ^ t with the targets t come going up a linear extension.  If
x <= t the meet is x.  Otherwise any lower bound of {x, t} sits under some
lower cover c of x, so x ^ t must be the largest of the c ^ t; when no
single candidate dominates the others the meet does not exist.  The same
step, with every element as a target, builds the total meet table, which
names the first pair without a meet when the check fails.  The table is
built in linear-extension coordinates, where the finished elements are a
prefix and every access is a slice, and then mapped back to element
indices in place.

Every table is lazy.  The meet table, and the join table, which is the
meet table of the dual, are built only when asked for, and a lattice
shares its tables with its dual.  The NBB search needs only the joins
x v a with the atoms a, and those come from the upper covers, going down a
linear extension: x v a is x when a <= x, and otherwise the earliest of
the c v a over the upper covers c of x, because some upper cover c lies
below x v a, giving c v a = x v a, and every other candidate lies above
x v a.
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


# Work is chunked so that no temporary comes near N^2 bytes: the glibc heap
# keeps what a large temporary freed, and peak RSS follows the largest one.
_PAIR_CHUNK = 1 << 12  # comparable pairs gathered at once during validation
_ENTRY_CHUNK = 1 << 16  # table entries remapped at once
_RUN_CHUNK = 1 << 16  # candidate meets gathered at once by the lattice check


def _packed_through(strict: np.ndarray) -> tuple[np.ndarray, ...]:
    """Strict-order rows packed 64 to a word, their two-step reach, set sizes.

    Row x of `through` is the OR of the packed up-sets of every y with
    x < y, i.e. the boolean square of `strict` without an N^3 product:
    the work follows the number of comparable pairs.  Rows are gathered in
    chunks of whole rows, about _PAIR_CHUNK pairs each, and folded with
    one `bitwise_or.reduceat` per chunk.  The sizes are those of the
    strict up-sets (row counts) and down-sets (gathered columns, counted).
    """
    n = strict.shape[0]
    words = -(-n // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(strict, axis=1)
    packed = packed.view(np.uint64)
    through = np.zeros_like(packed)
    counts = np.count_nonzero(strict, axis=1)
    below = np.zeros(n, dtype=np.intp)
    ends = np.cumsum(counts)
    lo = 0
    while lo < n:
        base = int(ends[lo] - counts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")))
        rows = lo + np.flatnonzero(counts[lo:hi])
        if len(rows):
            ys = np.flatnonzero(strict[lo:hi]) % n
            starts = ends[rows] - counts[rows] - base
            through[rows] = np.bitwise_or.reduceat(packed[ys], starts, axis=0)
            below += np.bincount(ys, minlength=n)
        lo = hi
    return packed, through, counts, below


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
        strict = leq.copy()
        np.fill_diagonal(strict, False)
        packed, through, above, below = _packed_through(strict)
        del strict
        # x < y < x puts x in its own two-step reach, and only then; packbits
        # keeps column c in bit 0x80 >> (c % 8) of byte c // 8
        diag = np.arange(n)
        if (through.view(np.uint8)[diag, diag >> 3] & (0x80 >> (diag & 7))).any():
            raise ValueError("order relation is not antisymmetric")
        if (through & ~packed).any():
            raise ValueError("order relation is not transitive")
        np.bitwise_not(through, out=through)
        through &= packed
        self._covers_matrix = np.unpackbits(through.view(np.uint8), axis=1, count=n).view(bool)
        # the sizes of up-sets and down-sets give the bounds and a linear extension
        self._up_sizes, self._down_sizes = above + 1, below + 1
        self.leq = leq.view()
        self.leq.setflags(write=False)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._mobius_cols: dict[int, np.ndarray] = {}

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
        d._up_sizes, d._down_sizes = self._down_sizes, self._up_sizes
        d._mobius_cols = {}
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
        # sorting by down-set size puts every element after all it covers
        return np.argsort(self._down_sizes, kind="stable")

    def _mobius_from(self, xi: int) -> np.ndarray:
        """Vector of mu(x, y) over all y, zero where x is not below y.

        Only the support of mu(x, .) is kept for the sums: the z with
        mu(x, z) != 0, in extension order, and their values.  The zero terms
        of the recurrence contribute nothing, so y reads |support| entries
        of its column instead of all N.
        """
        col = self._mobius_cols.get(xi)
        if col is None:
            ext = self._linear_extension()
            ys = ext[self.leq[xi, ext]].tolist()
            mu = np.zeros(self.size, dtype=np.int64)
            support = np.empty(len(ys), dtype=np.intp)
            vals = np.empty(len(ys), dtype=np.int64)
            m = 0
            for y in ys:
                value = (1 if y == xi else 0) - int(vals[:m][self.leq[support[:m], y]].sum())
                if value:
                    mu[y] = vals[m] = value
                    support[m] = y
                    m += 1
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
    """A finite lattice: poset, its bounds, and lattice tables built on demand.

    `as_lattice` proves the poset a lattice without building a table.
    Every table is built the first time it is asked for and kept in a store
    shared with the dual, where each orientation of the order has its own
    slot: the join table of one is the meet table of the other, so no
    table is ever built twice.
    """

    poset: FinitePoset
    bottom: int
    top: int
    _tables: dict = field(repr=False, compare=False)
    _side: int = 0  # which orientation of the shared store this lattice reads

    def _table(self, kind: str, side: int, build) -> np.ndarray:
        table = self._tables.get((kind, side))
        if table is None:
            table = self._tables[(kind, side)] = build()
        return table

    @property
    def meet_table(self) -> np.ndarray:
        return self._table("meet", self._side, lambda: _meet_table(self.poset))

    @property
    def join_table(self) -> np.ndarray:
        return self._table("meet", 1 - self._side, lambda: _meet_table(self.poset.dual()))

    def atom_join_columns(self) -> np.ndarray:
        """The k x N array of x v a, one row per atom a in `atoms()` order.

        Built from the upper covers, not from the join table, going down a
        linear extension.  If a <= x then x v a = x.  Otherwise x v a is the
        earliest, in the extension, of the c v a over the upper covers c of
        x: some upper cover c lies below x v a, which gives c v a = x v a,
        and every other candidate lies above x v a, so later.
        """
        return self._table("atom joins", self._side, lambda: _atom_join_columns(self))

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
        """Reverse the order: bounds swap, and so do meets and joins.

        The dual reads the other slots of the same table store, so it hands
        over whichever tables exist and builds none.
        """
        dual_poset = self.poset.dual()
        return BoundedLattice(dual_poset, self.top, self.bottom, self._tables, 1 - self._side)

    def interval_lattice(self, x, z) -> "BoundedLattice":
        """The interval [x, z] as a lattice in its own right."""
        return as_lattice(self.poset.interval(x, z))


def _cover_pairs(poset: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """Cover pairs (lo, hi) as two index arrays, sorted by hi, then by lo.

    The cover matrix is scanned in memory order, whether it is the poset's
    own C-ordered array or the transposed view a dual holds.
    """
    n = poset.size
    covers = poset._covers_matrix
    if covers.flags.c_contiguous:
        lo, hi = np.divmod(np.flatnonzero(covers), n)
        by_hi = np.argsort(hi, kind="stable")
        return lo[by_hi], hi[by_hi]
    hi, lo = np.divmod(np.flatnonzero(covers.T), n)
    return lo, hi


def _lower_covers(poset: FinitePoset) -> list[np.ndarray]:
    """Lower covers of each element, ascending."""
    lo, hi = _cover_pairs(poset)
    return np.split(lo, np.searchsorted(hi, np.arange(1, poset.size)))


def _meet_table(poset: FinitePoset) -> np.ndarray:
    """Total meet table, built in linear-extension coordinates.

    While it is built, element ext[i] is called i, so the elements already
    done at step i are 0..i-1 and every read and write is a slice; the
    table is mapped back to element indices in place at the end.

    No order matrix is read.  Every j before x = ext[i] has a down-set no
    larger than x's, and x <= j would make the two down-sets equal, so x
    lies below none of them.  If j <= x, then j lies under some lower cover
    of x, that candidate is j itself and the others lie below j, so the
    largest candidate is j; otherwise the largest candidate is the meet
    when every other candidate lies below it, which the finished part of
    the table answers: a <= b exactly when meet(a, b) == a.
    """
    n = poset.size
    lower = _lower_covers(poset)
    ext = poset._linear_extension()
    pos = np.empty(n, dtype=np.intp)
    pos[ext] = np.arange(n)
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    table = np.empty((n, n), dtype=dtype)
    # ext[0] is the bottom (as_lattice checked there is one), the only
    # element whose down-set has size 1
    table[0, 0] = 0
    for step in range(1, n):
        covers = pos[lower[ext[step]]]
        mv = table[covers, :step]
        row = mv.max(axis=0)
        if len(covers) > 1:
            bad = ~(np.take(table, mv.astype(np.intp) * n + row) == mv).all(axis=0)
            if bad.any():
                x, y = ext[step], ext[int(bad.argmax())]
                raise NotALattice(
                    f"no unique lower bound for {poset.labels[x]!r}, {poset.labels[y]!r}"
                )
        table[step, :step] = row
        table[:step, step] = row
        table[step, step] = step
    _unpermute(table, pos, ext.astype(dtype))
    return table


def _meets_with(poset: FinitePoset, targets: np.ndarray) -> np.ndarray | None:
    """The N x len(targets) array of x ^ t, or None when some x ^ t does not exist.

    The poset must have a bottom.  Going up a linear extension, x ^ t is x
    when x <= t.  Otherwise every lower bound of {x, t} lies under a lower
    cover c of x, hence under c ^ t, so x ^ t exists exactly when one
    candidate c ^ t lies above all the others, and it is that candidate;
    it has the largest down-set, so it comes latest in the extension, and
    one `leq` lookup per candidate tells whether it dominates.  Steps are
    batched into runs of the extension in which no member covers another,
    split further so that a run of several elements gathers at most
    _RUN_CHUNK candidate meets.  The columns are kept in extension
    coordinates and mapped back at the end.
    """
    n, width = poset.size, len(targets)
    ext = poset._linear_extension()
    pos = np.empty(n, dtype=np.intp)
    pos[ext] = np.arange(n)
    lo, hi = _cover_pairs(poset)
    by_pos = np.argsort(pos[hi], kind="stable")
    lo, hi = pos[lo[by_pos]], pos[hi[by_pos]]
    first = np.searchsorted(hi, np.arange(n + 1))  # position i's covers: first[i]:first[i + 1]
    # ext[0] is the bottom, the one element without lower covers
    latest = np.maximum.reduceat(lo, first[1:n]).tolist() if n > 1 else []
    edges = first.tolist()
    runs = [1] if n > 1 else []
    for i in range(2, n):
        if latest[i - 1] >= runs[-1] or (edges[i + 1] - edges[runs[-1]]) * width > _RUN_CHUNK:
            runs.append(i)
    runs.append(n)
    dtype = np.int16 if n < 1 << 15 else np.int32
    under = poset.leq[np.ix_(ext, targets)]
    cols = np.zeros((n, width), dtype=dtype)
    for s, e in zip(runs, runs[1:]):
        cands = cols[lo[edges[s] : edges[e]]]
        starts = first[s:e] - edges[s]
        best = np.maximum.reduceat(cands, starts, axis=0)
        spread = np.repeat(best, np.diff(first[s : e + 1]), axis=0)
        below = poset.leq[ext[cands], ext[spread]]
        if not (np.logical_and.reduceat(below, starts, axis=0) | under[s:e]).all():
            return None
        cols[s:e] = np.where(under[s:e], np.arange(s, e, dtype=dtype)[:, None], best)
    return ext.astype(dtype)[cols[pos]]


def _check_side(poset: FinitePoset) -> tuple[FinitePoset, np.ndarray]:
    """The orientation the lattice check runs on, and its meet-irreducibles.

    The poset's own meet-irreducibles (one upper cover each), or its
    join-irreducibles (one lower cover each) as those of the dual, whichever
    are fewer.
    """
    covers = poset._covers_matrix
    meet_irreducible = np.flatnonzero(np.count_nonzero(covers, axis=1) == 1)
    join_irreducible = np.flatnonzero(np.count_nonzero(covers, axis=0) == 1)
    if len(join_irreducible) < len(meet_irreducible):
        return poset.dual(), join_irreducible
    return poset, meet_irreducible


def _atom_join_columns(lattice: BoundedLattice) -> np.ndarray:
    """x v a for every element x and atom a; see `atom_join_columns`.

    Built in extension coordinates, where the candidate of least rank is
    the smallest position, then mapped back to element indices.
    """
    poset = lattice.poset
    n = poset.size
    ext = poset._linear_extension()
    pos = np.empty(n, dtype=np.intp)
    pos[ext] = np.arange(n)
    upper = _lower_covers(poset.dual())
    atoms = lattice.atoms()
    above = poset.leq[np.ix_(atoms, ext)]
    cols = np.empty((len(atoms), n), dtype=np.intp)
    for step in range(n - 1, -1, -1):
        ups = pos[upper[ext[step]]]
        if len(ups):
            cols[:, step] = np.where(above[:, step], step, cols[:, ups].min(axis=1))
        else:  # the top, above every atom
            cols[:, step] = step
    return ext[cols[:, pos]]


def _unpermute(table: np.ndarray, pos: np.ndarray, ext: np.ndarray) -> None:
    """In place, table[a, b] <- ext[table[pos[a], pos[b]]].

    Rows move along the cycles of pos with one row buffer; columns and
    values are then mapped a chunk of rows at a time.
    """
    n = len(pos)
    to = pos.tolist()
    moved = [False] * n
    buf = np.empty(n, dtype=table.dtype)
    for start in range(n):
        if moved[start]:
            continue
        buf[:] = table[start]
        cur = start
        while True:
            moved[cur] = True
            src = to[cur]
            if src == start:
                table[cur] = buf
                break
            table[cur] = table[src]
            cur = src
    step = max(1, _ENTRY_CHUNK // n)
    for lo in range(0, n, step):
        block = table[lo : lo + step]
        block[:] = np.take(ext, np.take(block, pos, axis=1))


def as_lattice(poset: FinitePoset) -> BoundedLattice:
    """Promote a poset to a lattice, or reject it with a witness.

    Requires a unique minimum and maximum; then checks that every x ^ m
    exists for the meet-irreducibles m, or every x v j for the
    join-irreducibles j on the dual, whichever are fewer, which makes the
    poset a lattice (see the module docstring).  No table is built: both
    are left for `BoundedLattice` to build on demand.  On a failed check
    the meet table is built to name the first pair, in extension order,
    that lacks a meet.
    """
    n = poset.size
    bottoms = np.nonzero(poset._up_sizes == n)[0]
    tops = np.nonzero(poset._down_sizes == n)[0]
    if len(bottoms) != 1:
        raise NotALattice("no unique minimum element")
    if len(tops) != 1:
        raise NotALattice("no unique maximum element")
    if _meets_with(*_check_side(poset)) is None:
        _meet_table(poset)  # raises NotALattice with the witness
        raise RuntimeError("the lattice check failed, yet every meet exists")
    return BoundedLattice(poset, int(bottoms[0]), int(tops[0]), {})
