"""Finite posets and bounded lattices over numpy order matrices.

A poset stores its full order relation as a boolean matrix, the only N x N
array it holds, and its Hasse diagram as an edge list: two index arrays
(lo, hi), one entry per cover, found once, when the order is validated at
construction.  The dual swaps the two arrays instead of recomputing them.
Validation packs each row of the order into 64-bit words, clears the
diagonal bits, and ORs the packed strict up-sets of every element above x
into x's two-step reach, so its cost follows the number of comparable
pairs rather than N^3; the transitivity check and the covers both read off
that reach, and only the bytes that hold a cover are unpacked.
Mobius values come straight from the defining recurrence (the value at
(x, z) makes the interval sums telescope to a delta), evaluated bottom-up
along a linear extension a run at a time.  The runs are the stretches of
the extension in which no member covers another, which the meet kernel
below cuts into pieces; no member of such a run lies below another, so
the values of a whole run are one product of the values found so far
with a block of the order.  Only the support of mu(x, .) enters the
sums, since zero terms add nothing.  This module is the oracle the rest
of the package is measured against.

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

One kernel, `_meets_with`, computes every meet and join the package
reads: the meets x ^ t of all elements x with given targets t, going up a
linear extension.  If x <= t the meet is x.  Otherwise any lower bound of
{x, t} sits under some lower cover c of x, so x ^ t must be the largest
of the c ^ t; when no single candidate dominates the others the pair is
flagged, for it has no meet.  The candidate that comes latest in the
extension is the only one that can dominate, and the kernel reads `leq`
only where that test can fail: a candidate equal to the latest lies
below it because the order is reflexive, and a row with x <= t answers
x whatever its candidates are.  On B that leaves a few percent of the
entries.  The latest candidate of every row of a piece is one maximum
over a block in which each element's lower covers are padded to the
piece's widest with copies of its own last cover; a copy is a candidate
the row already has, so it moves neither the maximum nor the outcome of
the test.
The lattice check runs the kernel with the irreducibles as targets, the
meet table with every element, and the join table on the dual.  The NBB
search reads the joins x v a with the atoms a, which are the kernel on
the dual with the atoms as targets, and the masks of the atoms below each
such join, which `nbb` builds from them once and keeps in the store.  A
join the kernel misses there is named as a missing upper bound.  The
kernel answers in extension positions: the tables and the atom joins map
its columns back to element indices, and the check reads only whether it
raised.  Every table is built only when asked for and kept in the poset's
store, which the dual shares, under the orientation it belongs to, as are
the extension, its covers and runs, the Mobius columns and the atoms.

A failed check runs the kernel again with every element as a target, to
name a witness: the pair without a meet whose later element comes
earliest in the extension, then the earliest partner.  That run stops at
the first flagged pair (x, t) with t before x, by row and then by t, and
passes over flagged pairs with t after x.  Let R be the row it stops at.
Entry (x, t) reads the entries (c, t) of the lower covers c of x, so an
entry whose two elements both come before R reads only entries of that
kind, with a smaller later element or the same one and an earlier row.
By induction in that order each is the meet: its candidates are meets,
so it is flagged exactly when the pair has none.  If t is before x, the
entry is not flagged, as its row is before R.  If t is after x, neither
is the entry (t, x), whose row is before R too and whose candidates have
a smaller later element, so {x, t} has a meet.  So every pair before R
has a meet, the entries of row R with earlier targets are flagged exactly
when the pair has none, and the run names the pair the rule asks for; a
run that stops nowhere flags nothing and completes the table.
"""

from __future__ import annotations

import copy
import graphlib
from dataclasses import dataclass

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
_RUN_CHUNK = 1 << 16  # candidate meets, padded, gathered at once by the meet kernel
_MU_CHUNK = 1 << 18  # order entries (support by run members) summed at once by the recurrence


def _packed_through(leq: np.ndarray) -> tuple[np.ndarray, ...]:
    """Strict-order rows packed 64 to a word, their two-step reach, set sizes.

    The rows of the reflexive `leq` are packed as they are, and then the
    diagonal bit of each is cleared, so no strict copy of the order is
    made.  Row x of `through` is the OR of the packed up-sets of every y
    with x < y, i.e. the boolean square of the strict order without an
    N^3 product: the work follows the number of comparable pairs.  Rows
    are gathered in chunks of whole rows, about _PAIR_CHUNK pairs each,
    less the pairs (x, x), and folded with one `bitwise_or.reduceat` per
    chunk.  The sizes are those of the strict up-sets (row counts less
    one) and down-sets (gathered columns, counted).
    """
    n = leq.shape[0]
    words = -(-n // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(leq, axis=1)
    # packbits keeps column c in bit 0x80 >> (c % 8) of byte c // 8
    diag = np.arange(n)
    packed[diag, diag >> 3] &= ~(0x80 >> (diag & 7)).astype(np.uint8)
    packed = packed.view(np.uint64)
    through = np.zeros_like(packed)
    counts = np.count_nonzero(leq, axis=1) - 1
    below = np.zeros(n, dtype=np.intp)
    ends = np.cumsum(counts)
    lo = 0
    while lo < n:
        base = int(ends[lo] - counts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")))
        rows = lo + np.flatnonzero(counts[lo:hi])
        if len(rows):
            xs, ys = np.divmod(np.flatnonzero(leq[lo:hi]), n)
            ys = ys[ys != xs + lo]
            starts = ends[rows] - counts[rows] - base
            through[rows] = np.bitwise_or.reduceat(packed[ys], starts, axis=0)
            below += np.bincount(ys, minlength=n)
        lo = hi
    return packed, through, counts, below


def _hasse_edges(hasse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set bits of packed rows as index arrays (lo, hi), sorted by lo, then hi.

    Only the nonzero 64-bit words are read, and of those only the nonzero
    bytes are unpacked, so the work past one scan of the words follows the
    number of covers, not N^2.  Byte b of word w holds columns 64w + 8b on.
    """
    rows, words = np.nonzero(hasse)
    packed = hasse[rows, words].view(np.uint8).reshape(-1, 8)
    at, byte = np.nonzero(packed)
    hit, bit = np.nonzero(np.unpackbits(packed[at, byte][:, None], axis=1))
    at = at[hit]
    return rows[at], 64 * words[at] + 8 * byte[hit] + bit


class FinitePoset:
    """Immutable finite poset with string labels and a boolean leq matrix.

    A boolean matrix is not copied: leq is a read-only view of it, so the
    caller's array stays writable but must not change afterwards.  It is
    the only N x N array the poset allocates: the covers are an edge list,
    `_covers` = (lo, hi) sorted by lo and then hi, and validation works on
    packed rows.  Lattice tables built later live in the store.
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
        packed, through, above, below = _packed_through(leq)
        # x < y < x puts x in its own two-step reach, and only then
        diag = np.arange(n)
        if (through.view(np.uint8)[diag, diag >> 3] & (0x80 >> (diag & 7))).any():
            raise ValueError("order relation is not antisymmetric")
        if (through & ~packed).any():
            raise ValueError("order relation is not transitive")
        np.bitwise_not(through, out=through)
        through &= packed
        self._covers = _hasse_edges(through)
        # the sizes of up-sets and down-sets give the bounds and a linear extension
        self._up_sizes, self._down_sizes = above + 1, below + 1
        self.leq = leq.view()
        self.leq.setflags(write=False)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        # what is derived from one orientation of the order, kept in a store
        # shared with the dual under (side, key): the extension and its
        # covers, its runs, the Mobius columns, the lattice tables and atoms,
        # and the NBB search's masks of the atoms below each atom join
        self._store: dict = {}
        self._side = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_covers(cls, labels, covers) -> "FinitePoset":
        """Poset generated by cover pairs (lo, hi) of labels.

        The order is the reflexive-transitive closure of the pairs; a cycle
        is rejected.
        """
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        up = {v: [] for v in range(len(labels))}
        for lo, hi in covers:
            up[index[lo]].append(index[hi])
        try:  # each element after every element above it
            order = list(graphlib.TopologicalSorter(up).static_order())
        except graphlib.CycleError:
            raise CycleDetected("cover relation contains a cycle") from None
        leq = np.eye(len(labels), dtype=bool)
        for v in order:
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
        lo, hi = self._covers
        by_lo = np.lexsort((hi, lo))
        return list(zip(lo[by_lo].tolist(), hi[by_lo].tolist()))

    def dual(self) -> "FinitePoset":
        """Same elements, reversed order.

        The transpose of a valid order is valid and its Hasse diagram is the
        reversed one, so nothing is validated or derived again: the order
        is a view of this poset's matrix, and the two cover arrays swap.
        """
        d = copy.copy(self)
        d.leq = self.leq.T
        d._covers = self._covers[::-1]
        d._up_sizes, d._down_sizes = self._down_sizes, self._up_sizes
        d._side = 1 - self._side
        return d

    def _derived(self, key, build):
        """What `build` returns for this orientation, built once and kept in the shared store."""
        value = self._store.get((self._side, key))
        if value is None:
            value = self._store[(self._side, key)] = build()
        return value

    # -- Mobius values ------------------------------------------------------

    def _mobius_from(self, xi: int) -> np.ndarray:
        """Vector of mu(x, y) over all y, zero where x is not below y.

        Runs of the extension in which no member covers another hold no
        two comparable elements, so a run's values read only those of
        earlier runs: for the y of a run, the delta at x less the sum of
        mu(x, z) over the z below y found so far.  Only the support of
        mu(x, .) is kept for the sums, the z with mu(x, z) != 0, and a run
        is summed against it in chunks of at most _MU_CHUNK order entries.
        The column, like the extension and its runs, is kept in the store.
        """
        def build():
            ext, _, _, _, runs = _extension_covers(self)
            up = np.flatnonzero(self.leq[xi, ext])  # the extension positions above x
            run_of = np.searchsorted(runs, up, side="right")
            mu = np.zeros(self.size, dtype=np.int64)
            support, vals = up[:0], mu[:0]
            for run in np.split(ext[up], np.flatnonzero(np.diff(run_of)) + 1):
                step = max(1, _MU_CHUNK // max(len(support), 1))
                for i in range(0, len(run), step):
                    ys = run[i : i + step]
                    mu[ys] = (ys == xi) - vals @ self.leq[np.ix_(support, ys)]
                kept = run[mu[run] != 0]
                support = np.concatenate((support, kept))
                vals = np.concatenate((vals, mu[kept]))
            mu.setflags(write=False)
            return mu

        return self._derived(("mobius", xi), build)

    def mobius(self, x, z) -> int:
        """mu(x, z) by the interval recurrence."""
        xi, zi = self._as_index(x), self._as_index(z)
        if not self.leq[xi, zi]:
            raise NotComparable(f"{self.labels[xi]} is not below {self.labels[zi]}")
        return int(self._mobius_from(xi)[zi])

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
    """A finite lattice: poset and its bounds; lattice tables built on demand.

    `as_lattice` proves the poset a lattice without building a table.
    Every table is built the first time it is asked for and kept in the
    poset's store, under the orientation it belongs to: the join table of
    one orientation is the meet table of the other, so no table is ever
    built twice.
    """

    poset: FinitePoset
    bottom: int
    top: int

    @property
    def meet_table(self) -> np.ndarray:
        every = np.arange(self.size)
        return self.poset._derived(
            "meet", lambda: _by_index(self.poset, _meets_with(self.poset, every))
        )

    @property
    def join_table(self) -> np.ndarray:
        return self.dual().meet_table

    def atom_join_columns(self) -> np.ndarray:
        """The k x N array of x v a, one row per atom a in `atoms()` order.

        The meets of every element with the atoms on the dual, transposed
        into rows of their own, which an atom order gathers: the kernel's
        work follows the atom count, not N.  A join the kernel misses is
        named as a missing upper bound of this orientation.
        """
        def build():
            dual = self.poset.dual()
            return np.ascontiguousarray(_by_index(dual, _meets_with(dual, self.atoms(), "upper")).T)

        return self.poset._derived("atom joins", build)

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
        """Elements covering the bottom, in element-index order.

        The bottom lies under every element, so x covers it exactly when
        x's down-set is {bottom, x}.  Found once per orientation and kept
        in the poset's store; each call returns a new list, which the
        caller may shuffle.
        """
        found = self.poset._derived(
            "atoms", lambda: tuple(np.flatnonzero(self.poset._down_sizes == 2).tolist())
        )
        return list(found)

    def coatoms(self) -> list[int]:
        """Elements covered by the top, in element-index order: the atoms of the dual."""
        return self.dual().atoms()

    def mobius_number(self) -> int:
        """mu(bottom, top) by the defining recurrence."""
        return self.poset.mobius(self.bottom, self.top)

    def dual(self) -> "BoundedLattice":
        """Reverse the order: bounds swap, and so do meets and joins.

        The dual poset reads the other orientation of the same store, so it
        hands over whichever tables exist and builds none.
        """
        return BoundedLattice(self.poset.dual(), self.top, self.bottom)


def _extension_covers(poset: FinitePoset) -> tuple[np.ndarray, ...]:
    """A linear extension, its inverse, the lower covers in extension positions, its runs.

    Returns ext, pos (pos[ext[i]] = i), lo, first and runs, where the
    lower covers of position i are lo[first[i]:first[i + 1]] and runs is
    `_runs`'s.  Built once per orientation, and kept in the poset's store.
    """
    def build():
        n = poset.size
        # sorting by down-set size puts every element after all it covers
        ext = np.argsort(poset._down_sizes, kind="stable")
        pos = np.empty(n, dtype=np.intp)
        pos[ext] = np.arange(n)
        # `_covers` lists each upper end's lower ends in ascending order, in
        # either orientation, and the stable sort keeps that order
        lo, hi = poset._covers
        by_pos = np.argsort(pos[hi], kind="stable")
        lo, hi = pos[lo[by_pos]], pos[hi[by_pos]]
        first = np.searchsorted(hi, np.arange(n + 1))
        return ext, pos, lo, first, _runs(lo, first)

    return poset._derived("extension", build)


def _runs(lo: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Starts of the runs of the extension in which no member covers another, then N.

    Such a run holds no two comparable elements: a chain from one member
    up to another runs through the positions between them, so its last
    step would be a cover inside the run.  `lo` and `first` are as
    `_extension_covers` gives them.
    """
    n = len(first) - 1
    latest = np.full(n, -1, dtype=np.intp)  # each position's latest lower cover
    has = np.flatnonzero(np.diff(first))
    if len(has):
        latest[has] = np.maximum.reduceat(lo, first[has])
    runs = [0]
    for i, cover in enumerate(latest.tolist()):
        if cover >= runs[-1]:
            runs.append(i)
    runs.append(n)
    return np.array(runs)


def _padded_covers(lo: np.ndarray, first: np.ndarray, runs: np.ndarray, width: int):
    """The runs cut into pieces, and each piece's lower covers as a padded block.

    Every member of a piece gets as many slots as the piece's widest
    member has lower covers, and fills those past its own with its last
    cover.  A run whose widest member has D lower covers is cut every
    _RUN_CHUNK // (D * width) members, at least one, so a piece of several
    members gathers at most _RUN_CHUNK candidate meets for `width` targets.
    A piece's block holds slot 0 of each member, then slot 1, and so on;
    the blocks lie one after another in one flat array of extension
    positions.  Returns the piece starts then N, as a list, the flat
    array, and the block bounds: piece k's is covers[bounds[k]:bounds[k + 1]].
    """
    degree = np.diff(first)
    size = np.diff(runs)
    step = _RUN_CHUNK // np.maximum(np.maximum.reduceat(degree, runs[:-1]) * width, 1)
    step = np.maximum(step, 1)
    count = -(-size // step)
    piece = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    pieces = np.append(np.repeat(runs[:-1], count) + piece * np.repeat(step, count), runs[-1])
    members = np.diff(pieces)
    block = members * np.maximum.reduceat(degree, pieces[:-1])
    bounds = np.cumsum(block) - block
    entry = np.arange(block.sum()) - np.repeat(bounds, block)
    slot, member = np.divmod(entry, np.repeat(members, block))
    member += np.repeat(pieces[:-1], block)
    covers = lo[np.minimum(first[member] + slot, first[member + 1] - 1)]
    return pieces.tolist(), covers, bounds.tolist() + [len(covers)]


def _meets_with(poset: FinitePoset, targets, bound: str = "lower") -> np.ndarray:
    """x ^ t for every element x and target t, in extension positions.

    Row i of the N x len(targets) result is the element at position i of
    the linear extension, and each entry the position of the meet;
    `_by_index` turns it into element indices.  Raises NotALattice when a
    meet is missing.  The poset must have a bottom.  Going up the
    extension, x ^ t is x when x <= t.  Otherwise every lower bound of
    {x, t} lies under a lower cover c of x, hence under c ^ t, so x ^ t
    exists exactly when one candidate c ^ t lies above all the others, and
    it is that candidate; it has the largest down-set, so it comes latest
    in the extension.  `leq` is read only for the candidates that differ
    from their row's latest, in rows where x is not below t: a candidate
    equal to the latest lies below it, as the order is reflexive, and a
    row with x <= t answers x whatever its candidates are.  Steps are
    batched into pieces of the `_runs` of the extension, the pieces of
    `_padded_covers`.  A piece's candidates are one gather from its
    block, as (slots, members, targets), and each row's latest is their
    maximum over the slots; a padding slot repeats the member's last
    cover, a candidate the row already has, so it changes neither the
    maximum nor the test.

    A flagged pair whose target comes earlier than x stops the run; one
    whose target comes later does not, since with every element a target
    it may not be the first pair the module docstring's witness rule names.
    The error names the first pair with an earlier target, by row and then
    by the target's extension position, or else the first flagged pair,
    as lacking a unique `bound`: "upper" when the caller reads the meets
    as the joins of the dual.
    """
    n, width = poset.size, len(targets)
    ext, pos, lo, first, runs = _extension_covers(poset)
    pieces, covers, bounds = _padded_covers(lo, first, runs, width)
    dtype = np.int16 if n < 1 << 15 else np.int32
    # beyond[x, j]: x is not below target j; rows by element index, read through ext
    beyond = poset.leq[:, targets]
    np.logical_not(beyond, out=beyond)
    at = pos[targets]
    positions = np.arange(n, dtype=dtype)[:, None]
    cols = np.zeros((n, width), dtype=dtype)
    witness = None
    # ext[0] is the bottom, the one element without lower covers: a piece of its own
    for s, e, a, b in zip(pieces[1:], pieces[2:], bounds[1:], bounds[2:]):
        cands = cols[covers[a:b]].reshape((b - a) // (e - s), e - s, width)
        best = cands.max(axis=0)
        out = beyond[ext[s:e]]
        test = cands != best
        test &= out
        flat = np.flatnonzero(test)
        entry = flat % best.size  # the (member, target) entry of each tested candidate
        below = poset.leq[ext[cands.reshape(-1)[flat]], ext[best.reshape(-1)[entry]]]
        if not below.all():
            rows, hit = np.divmod(entry[~below], width)
            rows, hit = rows + s, at[hit]
            i = int(np.argmin((hit > rows) * n * n + rows * n + hit))  # earlier targets first
            early = hit[i] < rows[i]
            if early or witness is None:
                witness = ext[rows[i]], ext[hit[i]]
            if early:
                break
        cols[s:e] = np.where(out, best, positions[s:e])
    if witness is not None:
        x, y = witness
        raise NotALattice(f"no unique {bound} bound for {poset.labels[x]!r}, {poset.labels[y]!r}")
    return cols


def _by_index(poset: FinitePoset, cols: np.ndarray) -> np.ndarray:
    """`_meets_with`'s result in element indices: entry [x, j] is the index of x ^ t_j."""
    ext, pos = _extension_covers(poset)[:2]
    return ext.astype(cols.dtype)[cols[pos]]  # row x is extension position pos[x]


def _check_side(poset: FinitePoset) -> tuple[FinitePoset, np.ndarray]:
    """The orientation the lattice check runs on, and its meet-irreducibles.

    The poset's own meet-irreducibles (one upper cover each), or its
    join-irreducibles (one lower cover each) as those of the dual, whichever
    are fewer.
    """
    lo, hi = poset._covers
    meet_irreducible = np.flatnonzero(np.bincount(lo, minlength=poset.size) == 1)
    join_irreducible = np.flatnonzero(np.bincount(hi, minlength=poset.size) == 1)
    if len(join_irreducible) < len(meet_irreducible):
        return poset.dual(), join_irreducible
    return poset, meet_irreducible


def as_lattice(poset: FinitePoset) -> BoundedLattice:
    """Promote a poset to a lattice, or reject it with a witness.

    Requires a unique minimum and maximum; then checks that every x ^ m
    exists for the meet-irreducibles m, or every x v j for the
    join-irreducibles j on the dual, whichever are fewer, which makes the
    poset a lattice (see the module docstring).  No table is built: both
    are left for `BoundedLattice` to build on demand.  On a failed check
    the kernel runs again with every element as a target, to name the
    first pair, in extension order, that lacks a meet.
    """
    n = poset.size
    bottoms = np.nonzero(poset._up_sizes == n)[0]
    tops = np.nonzero(poset._down_sizes == n)[0]
    if len(bottoms) != 1:
        raise NotALattice("no unique minimum element")
    if len(tops) != 1:
        raise NotALattice("no unique maximum element")
    try:
        _meets_with(*_check_side(poset))
    except NotALattice:
        _meets_with(poset, np.arange(n))  # raises NotALattice with the witness
        raise RuntimeError("the lattice check failed, yet every meet exists") from None
    return BoundedLattice(poset, int(bottoms[0]), int(tops[0]))
