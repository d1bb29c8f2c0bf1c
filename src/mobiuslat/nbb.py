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

The enumeration rests on a second fact, the suffix lemma: a set D has a
BB subset exactly when one of its suffixes S_m = {q in D : q >= m}, for m
in D, is BB.  Proof: let T be a BB subset of D and m = min(T).  Then T is
inside S_m, so join(T) <= join(S_m), and both sets have the earliest
member m.  An atom before m lying strictly below join(T) lies strictly
below join(S_m) as well, so S_m is BB.  A grown set therefore costs |D|
tests rather than one per subset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .poset import BoundedLattice


class EmptyAtomSet(ValueError):
    """Raised when a BB or NBB query is made on the empty set."""


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
    """Per-order tables for BB tests and the NBB enumeration.

    The lattice's column of joins with the atom at each position (from
    `BoundedLattice.atom_join_columns`, built once per lattice from its
    covers) becomes a list, so extending a join by one atom is one list
    index; the atoms strictly below each element become one bitmask of
    positions, a Python int, exact for any number of atoms.
    """

    def __init__(self, order: AtomOrder):
        lattice = order.lattice
        self.atoms = order.sequence
        atoms = list(self.atoms)
        k = len(atoms)
        rows = np.searchsorted(lattice.atoms(), atoms)  # atoms() is ascending
        self._with_atom = lattice.atom_join_columns()[rows].tolist()
        strict = lattice.poset.leq[atoms]
        strict[np.arange(k), atoms] = False
        weights = np.array([1 << p for p in range(k)], dtype=object)
        self._below = (weights @ strict).tolist()
        self._joins: dict[int, int] = {0: lattice.bottom}

    def join(self, mask: int) -> int:
        """Join of the atoms at the masked positions, cached per mask."""
        v = self._joins.get(mask)
        if v is None:
            low = mask & -mask
            v = self._with_atom[low.bit_length() - 1][self.join(mask ^ low)]
            self._joins[mask] = v
        return v

    def is_bb(self, mask: int) -> bool:
        return self._below[self.join(mask)] & ((mask & -mask) - 1) != 0

    def nbb_sets(self):
        """Yield every NBB position mask, nonempty, by pruned backtracking.

        Sets are grown in order position and extended only while NBB, as
        every subset of an NBB set is NBB.  By the suffix lemma in the
        module docstring a grown set D is NBB exactly when none of its |D|
        suffixes is BB, so only those are checked, dropping the earliest
        member each time, before descending.
        """
        return self._grow(0, 0)

    def _grow(self, mask: int, start: int):
        for p in range(start, len(self.atoms)):
            grown = rest = mask | 1 << p
            while rest and not self.is_bb(rest):
                rest &= rest - 1
            if not rest:
                yield grown
                yield from self._grow(grown, p + 1)


def _mask_atoms(order: AtomOrder, atoms) -> int:
    positions = {a: p for p, a in enumerate(order.sequence)}
    mask = 0
    for a in atoms:
        a = order.lattice._as_index(a)
        if a not in positions:
            raise ValueError(f"{order.lattice.labels[a]!r} is not an atom")
        mask |= 1 << positions[a]
    if mask == 0:
        raise EmptyAtomSet("atom set must be nonempty")
    return mask


def is_bounded_below(order: AtomOrder, atoms) -> bool:
    """Does every member have an earlier atom below the set's join?"""
    return _Search(order).is_bb(_mask_atoms(order, atoms))


def is_nbb(order: AtomOrder, atoms) -> bool:
    """Does the set contain no bounded-below subset?"""
    mask = _mask_atoms(order, atoms)
    search = _Search(order)
    positions = [p for p in range(mask.bit_length()) if mask >> p & 1]
    for r in range(1, len(positions) + 1):
        for combo in itertools.combinations(positions, r):
            sub = 0
            for p in combo:
                sub |= 1 << p
            if search.is_bb(sub):
                return False
    return True


def nbb_bases_of(order: AtomOrder, x) -> list[NbbBase]:
    """All NBB sets joining to x, atoms listed in order position."""
    xi = order.lattice._as_index(x)
    search = _Search(order)
    return [
        NbbBase(
            atoms=tuple(search.atoms[p] for p in range(mask.bit_length()) if mask >> p & 1),
            joins_to=search.join(mask),
        )
        for mask in search.nbb_sets()
        if search.join(mask) == xi
    ]


def mobius_via_nbb(order: AtomOrder) -> int:
    """Signed count of NBB bases of the top element.

    Run on the dual lattice, this is the coatom-side computation of the
    Mobius number.
    """
    lattice = order.lattice
    if lattice.size < 2:
        raise ValueError("lattice must have distinct bounds")
    search = _Search(order)
    total = 0
    for mask in search.nbb_sets():
        if search.join(mask) == lattice.top:
            total += -1 if mask.bit_count() % 2 else 1
    return total
