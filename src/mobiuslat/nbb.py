"""Mobius numbers from NBB bases of atoms under a chosen total order.

Fix a total order on the atoms of a bounded lattice.  A nonempty atom set
D is bounded below (BB) when every member has a strictly earlier atom
lying strictly below the join of D; a set is NBB when it contains no BB
subset.  Summing (-1)^|B| over the NBB sets joining to an element gives
its Mobius value, for any choice of total order.

The coatom-side statement is the same computation on the dual lattice, so
no separate machinery exists for it.

One shortcut is used throughout: a single witness atom earlier than the
earliest member of D serves every member at once, and the earliest member
can accept no other witness, so D is BB exactly when some atom before
min(D) lies below join(D).  The test suite re-checks this against the raw
per-member definition by exhaustive enumeration.

A second fact, the suffix lemma, is a step toward the third: a set D has
a BB subset exactly when one of its suffixes S_m = {q in D : q >= m},
for m in D, is BB.  Proof: let T be a BB subset of D and m = min(T).  Then
T is inside S_m, so join(T) <= join(S_m), and both sets have the
earliest member m.  An atom before m lying strictly below join(T) lies
strictly below join(S_m) as well, so S_m is BB.

The passes below rest on the third fact, the prepended-minimum lemma.
Write a_m for the atom at position m, and let D have earliest member m.
Then D is NBB exactly when D minus m is empty or NBB, and no atom before
m lies below join(D) = a_m v join(D minus m).  Proof: the suffixes of D
are D itself and the suffixes of D minus m, so by the suffix lemma D is
NBB exactly when D is not BB and no suffix of D minus m is BB; by the
shortcut, D is BB exactly when an atom before m lies below join(D).  (No
atom before m equals join(D), which lies above a_m, so "below" and
"strictly below" agree here.)

So let g_m(x) be the sum of (-1)^|D| over the NBB sets D, the empty set
included, whose members all sit at position m or later and whose join is
x; for k atoms, g_k is 1 at the bottom and 0 elsewhere.  The sets counted
by g_m and not by g_{m+1} are those with earliest member m, and by the
lemma they are the E + m for the sets E counted by g_{m+1} with no atom
before m strictly below y = a_m v join(E), each of sign opposite to E.  So
g_m is g_{m+1} plus, for each x, -g_{m+1}(x) added at y = x v a_m when no
atom before m lies strictly below y.  By the NBB theorem g_0(x) is then
mu(bottom, x) for every x at once, after k vectorized passes over the
elements, however many NBB sets there are.  The listing runs the same
passes with each element carrying its NBB sets in place of their signed
count.

Both read the lattice through two calls only, made on arrays of
element ids: with_atom(m, x) = x v a_m, and first(y), the earliest
position of an atom strictly below y (k when there is none), so that an
atom before m lies strictly below y exactly when first(y) < m.  A view
that serves them also names its bottom ids, its number of element ids so
far and its atoms in order position.  `_Search` serves them from dense
numpy slices of a `BoundedLattice`, for one atom order or for T orders of
the same lattice at once: order t's copy of element x has the id t*N + x,
its bottoms are the T ids t*N + bottom, and each pass runs every order
together.  No set ever joins across copies, since with_atom keeps an id in
its copy.  A view that builds elements only as the passes reach them, such
as family B's inversion-mask view, may hand out new ids in with_atom, and
the column grows to match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import BoundedLattice


class EmptyAtomSet(ValueError):
    """Raised when a BB query is made on the empty set."""


@dataclass(frozen=True)
class AtomOrder:
    """A total order on the atoms of a lattice, earliest first."""

    lattice: BoundedLattice
    sequence: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sequence) != self.lattice.atoms():
            raise ValueError("sequence must list every atom exactly once")

    def position(self, atom: int) -> int:
        return self.sequence.index(atom)

    def labels(self, atoms) -> list[str]:
        """Labels of the given atoms, sorted by order position."""
        ranked = sorted(atoms, key=self.position)
        return [self.lattice.labels[a] for a in ranked]


@dataclass(frozen=True)
class NbbBase:
    """An NBB atom set together with its join."""

    atoms: tuple[int, ...]
    joins_to: int


def shuffled_order(lattice: BoundedLattice, rng) -> AtomOrder:
    """An AtomOrder drawn from the given random generator."""
    seq = lattice.atoms()
    rng.shuffle(seq)
    return AtomOrder(lattice, tuple(seq))


class _Search:
    """The dense view of the module docstring, for T atom orders of one lattice.

    The BB test, the listing and the sum all read it.  Ids are t*N + x for
    element x under order t, the t-th of `sequences`.  Row p of
    `_with_atom` is x v a for the atom a at position p of each order, with
    the offsets t*N already added, sliced from
    `BoundedLattice.atom_join_columns` (built once per lattice from its
    covers) in the smallest integer type that holds T*N; `_first[t*N + x]`
    is the earliest position, under order t, of an atom strictly below x,
    or k when there is none.  One order is T = 1, where the ids are the
    element indices.
    """

    def __init__(self, lattice: BoundedLattice, sequences):
        t, k, n = len(sequences), len(sequences[0]), lattice.size
        seqs = np.array(sequences, dtype=np.intp).reshape(t, k)
        self.atoms = seqs.T  # row p: the atom at position p under each order
        self.bottom = lattice.bottom + n * np.arange(t)
        self.size = t * n
        dtype = np.int16 if t * n < 1 << 15 else np.int32 if t * n < 1 << 31 else np.int64
        rows = np.searchsorted(lattice.atoms(), self.atoms)  # atoms() is ascending
        joins = lattice.atom_join_columns()[rows].astype(dtype, copy=False)  # (k, T, N)
        joins += (n * np.arange(t, dtype=dtype))[:, None]
        self._with_atom = joins.reshape(k, t * n)
        strict = lattice.poset.leq[seqs]  # (T, k, N)
        strict[np.arange(t)[:, None], np.arange(k), seqs] = False
        self._first = np.where(strict.any(axis=1), strict.argmax(axis=1), k).ravel()

    def with_atom(self, m: int, x: np.ndarray) -> np.ndarray:
        return self._with_atom[m, x]

    def first(self, y: np.ndarray) -> np.ndarray:
        return self._first[y]


def _prepend(view, m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x whose sets stay NBB with the atom at position m prepended, and their joins."""
    y = view.with_atom(m, x)
    kept = view.first(y) >= m
    return x[kept], y[kept]


def _mobius_column(order) -> np.ndarray:
    """mu(bottom, x) for every element id x, as signed NBB counts, not listed.

    `order` is an AtomOrder, read through a dense `_Search` of its one
    order, or any view with the two calls of the module docstring; on a
    view of T orders, entry t*N + x is order t's count at x.  Runs the
    prepended-minimum recurrence: g holds the signed count of the NBB sets
    (the empty one included) whose members all sit at position m or later,
    per join, and each pass prepends the atom at position m to every set g
    counts.  A pass sends the counts g held before it, so no set takes the
    same atom twice.
    """
    view = _Search(order.lattice, [order.sequence]) if isinstance(order, AtomOrder) else order
    g = np.zeros(view.size, dtype=np.int64)
    g[view.bottom] = 1
    for m in range(len(view.atoms) - 1, -1, -1):
        x, y = _prepend(view, m, np.flatnonzero(g))
        if view.size > len(g):  # the view reached new elements
            g = np.concatenate((g, np.zeros(view.size - len(g), dtype=np.int64)))
        np.add.at(g, y, -g[x])
    return g


def _positions(order: AtomOrder, atoms) -> list[int]:
    """Order positions of a nonempty atom set, ascending."""
    position_of = {a: p for p, a in enumerate(order.sequence)}
    found = set()
    for a in atoms:
        a = order.lattice._as_index(a)
        if a not in position_of:
            raise ValueError(f"{order.lattice.labels[a]!r} is not an atom")
        found.add(position_of[a])
    if not found:
        raise EmptyAtomSet("atom set must be nonempty")
    return sorted(found)


def is_bounded_below(order: AtomOrder, atoms) -> bool:
    """Does every member have an earlier atom below the set's join?"""
    positions = _positions(order, atoms)
    view = _Search(order.lattice, [order.sequence])
    join = view.bottom[0]
    for p in positions:
        join = view.with_atom(p, join)
    return bool(view.first(join) < positions[0])


def _nbb_sets(order: AtomOrder) -> dict[int, list[tuple[int, ...]]]:
    """The NBB sets of every element reached, as ascending position tuples.

    Runs the passes of `_mobius_column` with each element carrying the
    position tuples of its NBB sets, the empty one at the bottom, in place
    of their signed count; a pass puts m in front of every tuple it
    extends.  No list a pass extends held a set before it: a set of later
    atoms joining to y, which lies above a_m, would have that earlier atom
    strictly below its join and so be BB.  So a pass never reads a list it
    has extended, and no set takes the same atom twice.  Elements no NBB
    set joins to are absent.
    """
    view = _Search(order.lattice, [order.sequence])
    sets = {int(view.bottom[0]): [()]}
    for m in range(len(view.atoms) - 1, -1, -1):
        xs, ys = _prepend(view, m, np.fromiter(sets, dtype=np.intp, count=len(sets)))
        for u, y in zip(xs.tolist(), ys.tolist()):
            sets.setdefault(y, []).extend([(m, *ps) for ps in sets[u]])
    return sets


def nbb_bases_of(order: AtomOrder, x) -> list[NbbBase]:
    """All NBB sets joining to x, atoms listed in order position.

    Reads x's entry of `_nbb_sets`.  The sets come sorted by their tuples,
    as a depth-first search by position finds them: {0}, {0, 1},
    {0, 1, 2}, {0, 2}, {1}, and so on.
    """
    target = order.lattice._as_index(x)
    ranked = sorted(_nbb_sets(order).get(target, ()))
    return [NbbBase(tuple(order.sequence[p] for p in ps), target) for ps in ranked if ps]


def mobius_via_nbb(order: AtomOrder) -> int:
    """Signed count of NBB bases of the top element.

    Run on the dual lattice, this is the coatom-side computation of the
    Mobius number.
    """
    lattice = order.lattice
    if lattice.size < 2:
        raise ValueError("lattice must have distinct bounds")
    return int(_mobius_column(order)[lattice.top])
