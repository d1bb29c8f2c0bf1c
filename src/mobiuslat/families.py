"""The three bounded lattices this package is about, and their checks.

Family A: permutations of [n] avoiding 123, 132 and 213, under the weak
order, with an artificial bottom adjoined.  Family B: 321-avoiding
permutations under the weak order, with an artificial top.  Family C:
compositions of n into parts 1 and 2, a part 2 splitting into 1+1 to move
up, again with an artificial bottom.  All three are bitmasks under
containment: the weak order is containment of inversion sets, and a split
adds one partial sum, so C is containment of the words' partial sums.

A and C are isomorphic: reading a composition word left to right, a 1
prepends the largest unused value and a 2 prepends the two largest in
ascending order.  The coatoms of C are the words theta_i with a single 2
in position i; their meets obey a closed shift formula when the chosen
positions are pairwise at distance 2 or more and collapse to the bottom
otherwise.  The NBB bases of the adjoined bound are predicted by sparse
subsets of [n-2] in both B (atom side) and C (coatom side); the functions
here produce those predictions and verify every structural claim at a
given size.

`CLAIMS` lists every claim `verify` checks, each with the sizes it is
checked at, in the order `verify` reports them: the structural claims size
by size first, as `verify_structure` runs them, then every other claim over
its sizes, one claim after another.

B's Mobius number also has two routes that build no lattice: a recurrence
over the packed inversion masks (`_mobius_by_rank`) and the NBB sum on a
view that joins masks as the passes reach them (`_MaskView`).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

import numpy as np

from .fibpoly import fib_poly, h_poly, sparse_sets
from .nbb import AtomOrder, _mobius_column, _Search, mobius_via_nbb, nbb_bases_of
from .permutation import (
    Permutation,
    adjacent_transposition,
    avoiders_321,
    contains_pattern,
    enumerate_avoiders,
    format_word,
    inversion_limbs,
    weak_join,
)
from .permutation import _avoider_words, _contains_rows, _rows, pair_index
from .poset import BoundedLattice, CycleDetected, FinitePoset, NotALattice, as_lattice

BOTTOM_LABEL = "0̂"
TOP_LABEL = "1̂"

AVOIDED_PATTERNS = {
    "A": (Permutation((1, 2, 3)), Permutation((1, 3, 2)), Permutation((2, 1, 3))),
    "B": (Permutation((3, 2, 1)),),
}


class NotACompositionWord(ValueError):
    """Raised when a word is not a 1/2 composition of the stated n."""


class NotAnAvoider(ValueError):
    """Raised when a permutation lies outside the avoider family."""


def word_label(word) -> str:
    """Composition words print as digit strings; every letter is 1 or 2."""
    return "".join(str(c) for c in word)


def composition_words(n: int) -> list[tuple[int, ...]]:
    """All compositions of n into parts 1 and 2, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")

    def rec(m):
        if m == 0:
            return [()]
        out = [(1,) + w for w in rec(m - 1)]
        if m >= 2:
            out += [(2,) + w for w in rec(m - 2)]
        return out

    return sorted(rec(n))


def _check_word(n: int, word) -> tuple[int, ...]:
    word = tuple(word)
    if not word or any(c not in (1, 2) for c in word) or sum(word) != n:
        raise NotACompositionWord(f"{word!r} is not a 1/2 composition of {n}")
    return word


def _split_mask(word) -> int:
    """Bit s-1 set for each partial sum s of a composition word, short of n."""
    return sum(1 << (total - 1) for total in itertools.accumulate(word[:-1]))


# Mask pairs compared at once.  Blocks are bounded in entries, not rows:
# glibc keeps a large freed temporary resident, and peak RSS follows it.
_SUBSET_CHUNK = 1 << 18
# The order matrix is filled in smaller blocks, whose uint64 temporaries
# take 256 KB: 2 MB blocks stay resident once freed, past the matrix itself.
_ORDER_CHUNK = 1 << 15
_LIMB = 0xFFFFFFFFFFFFFFFF


def _pack(masks: list[int]) -> np.ndarray:
    """Masks as rows of 64-bit limbs, as many limbs as the widest one needs.

    C's partial-sum masks take this path; inversion masks are packed
    straight from word arrays by `inversion_limbs`, in the same layout.
    """
    shifts = range(0, max(m.bit_length() for m in masks) or 1, 64)
    packed = np.empty((len(masks), len(shifts)), dtype=np.uint64)
    for limb, s in enumerate(shifts):
        packed[:, limb] = [(m >> s) & _LIMB for m in masks]
    return packed


def _subsets(a: np.ndarray, not_b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[i, j] = (row i of a is a subset of row j of b), for masks packed alike.

    Takes the complement not_b = ~b, so a caller that tests many blocks
    against the same b complements it once.  Written into `out` when it is
    given, else into a new array.
    """
    out = np.equal(a[:, :1] & not_b[:, 0], 0, out=out)
    for limb in range(1, a.shape[1]):
        out &= (a[:, limb, None] & not_b[:, limb]) == 0
    return out


def _containment_order(packed: np.ndarray, out: np.ndarray) -> None:
    """Write out[p, q] = (mask p is a subset of mask q) in place.

    The masks are rows of 64-bit limbs, as `_pack` lays them out.  `out` is
    the caller's order matrix, or the slice of it that leaves out an
    adjoined bound.
    """
    outside = ~packed
    step = max(1, _ORDER_CHUNK // max(len(packed), 1))
    for lo in range(0, len(packed), step):
        _subsets(packed[lo : lo + step], outside, out=out[lo : lo + step])


def _mobius_by_rank(packed: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """mu(bottom, x) over packed masks under containment, then at a top adjoined last.

    `packed` holds the masks as rows of 64-bit limbs, laid out like
    `_pack`, and `counts` their bit counts; one mask must be 0, the bottom.
    A mask lies strictly inside another only at a smaller bit count, so
    going up by bit count, mu(bottom, x) is minus the sum of the values
    already found at the masks inside x.  Only the nonzero values, mu's
    support, are kept to be tested against the next counts, and the top
    gets minus the sum of them all.  No N x N array is made: each block of
    subset tests is support by block.
    """
    by_count = np.argsort(counts, kind="stable")
    mu = np.zeros(len(packed) + 1, dtype=np.int64)
    support, values = packed[:0], mu[:0]
    for level in np.split(by_count, np.flatnonzero(np.diff(counts[by_count])) + 1):
        step = max(1, _SUBSET_CHUNK // max(len(support), 1))
        for lo in range(0, len(level), step):
            xs = level[lo : lo + step]
            mu[xs] = (counts[xs] == 0) - values @ _subsets(support, ~packed[xs])
        kept = level[mu[level] != 0]
        support = np.concatenate((support, packed[kept]))
        values = np.concatenate((values, mu[kept]))
    mu[-1] = -values.sum()
    return mu


def _chained(rows: list[int]) -> bool:
    """Do inversion rows hold pairs (i, j) and (j, k), that is, a 321?

    Bit j of `starts` marks a nonempty row j; row i, shifted by i + 1,
    puts each pair (i, j) on bit j.
    """
    starts = sum(1 << j for j, row in enumerate(rows) if row)
    return any((row << i + 1) & starts for i, row in enumerate(rows))


def _join_swap(n: int, mask: int | None, i: int | None) -> int | None:
    """x v s_i in B on inversion masks, with None standing for the top.

    B less its top is an order ideal of the weak order (the claim
    avoiders-downward-closed), so x v s_i is the weak join, the closure of
    Inv(x) and the pair (i, i+1), when that avoids 321, and the top
    otherwise.  A permutation contains 321 exactly when it has chained
    inversions, and a union with no chained pairs is its own closure, so
    the union decides, and is the join when it passes.  At n=1 the top is
    the only atom, and i is None.
    """
    if mask is None or i is None:
        return None
    joined = mask | 1 << pair_index(n, i, i + 1)
    return None if _chained(_rows(n, joined)) else joined


class _MaskView:
    """B at size n for `nbb._mobius_column`, built from inversion masks as reached.

    `atoms` lists the transposition indices i in order position (None for
    the top at n=1), and joins are `_join_swap`.  Masks get ids as the
    passes reach them, the identity 0 and the top 1, which `masks` holds as
    None, like `FamilyLattice.elements`.  The atoms strictly below a mask
    are its descents, the pairs (i, i+1) in it, unless it is that one
    pair; their earliest position is cached per id.
    """

    bottom, top = 0, 1

    def __init__(self, n: int, sequence):
        sequence = tuple(sequence)
        self.n = n
        self.atoms = sequence or (None,)
        self.masks: list[int | None] = [0, None]
        self._ids = {0: 0}
        self._pairs = [1 << pair_index(n, i, i + 1) for i in sequence]
        k = len(self.atoms)
        self._first = [k, 0 if n > 1 else k]

    @property
    def size(self) -> int:
        return len(self.masks)

    def with_atom(self, m: int, x: np.ndarray) -> np.ndarray:
        return np.array([self._join(m, i) for i in x.tolist()], dtype=np.intp)

    def first(self, y: np.ndarray) -> np.ndarray:
        return np.array([self._first[i] for i in y.tolist()], dtype=np.intp)

    def _join(self, m: int, i: int) -> int:
        mask = _join_swap(self.n, self.masks[i], self.atoms[m])
        if mask is None:
            return self.top
        found = self._ids.get(mask)
        if found is None:
            self._ids[mask] = found = len(self.masks)
            self.masks.append(mask)
            below = [p for p, pair in enumerate(self._pairs) if mask & pair and mask != pair]
            self._first.append(min(below, default=len(self.atoms)))
        return found


def _table_free_mobius_b(n: int) -> tuple[int, int]:
    """mu(0̂, 1̂) of B at size n by the recurrence and by NBB, no N x N array.

    The recurrence runs on the packed inversion masks of the avoiders,
    taken straight from the walk's word array; the NBB sum, under the
    canonical order, on a `_MaskView`, which shares no join code with it.
    """
    recurrence = int(_mobius_by_rank(*inversion_limbs(avoiders_321(n)))[-1])
    view = _MaskView(n, range(1, n))
    return recurrence, int(_mobius_column(view)[view.top])


@dataclass(eq=False)
class FamilyLattice:
    """One of the families as a lattice, with its NBB furniture attached.

    `words` holds the members in element order, the adjoined bound left
    out: for A and B an (M, n) array of one-line words, for C the
    composition words.
    """

    family: str
    n: int
    lattice: BoundedLattice
    adjoined: str
    words: np.ndarray | list

    @cached_property
    def elements(self) -> tuple:
        """Each element's member by index, None at the adjoined bound.

        A's and B's are `Permutation`s, built from `words` only when this
        is first read; no command reads B's.
        """
        if self.family == "C":
            members = tuple(self.words)
        else:
            members = tuple(Permutation(tuple(w)) for w in self.words.tolist())
        return members + (None,) if self.family == "B" else (None,) + members

    @cached_property
    def nbb_lattice(self) -> BoundedLattice:
        """Where NBB runs: B uses atoms directly, A and C coatoms via the dual."""
        return self.lattice if self.family == "B" else self.lattice.dual()

    @property
    def nbb_target(self) -> int:
        """Index of the adjoined bound, the element whose bases are counted."""
        return self.nbb_lattice.top

    @cached_property
    def canonical_order(self) -> AtomOrder:
        """B: adjacent transpositions by index; A, C: coatoms by theta index."""
        n = self.n
        if n == 1:
            return AtomOrder(self.nbb_lattice, tuple(self.nbb_lattice.atoms()))
        seq = tuple(
            self.lattice.poset.index(_canonical_atom(self.family, n, i)) for i in range(1, n)
        )
        return AtomOrder(self.nbb_lattice, seq)

    def _canonical_join(self, indices) -> int:
        """Join in `nbb_lattice` of the canonical atoms i: s_i in B, theta_i in A and C.

        Atom i sits at position i - 1 of the canonical order; the join is
        folded through the atom join columns, whose rows follow `atoms()`,
        which is ascending.
        """
        lattice = self.nbb_lattice
        rows = np.searchsorted(lattice.atoms(), self.canonical_order.sequence)
        cols, acc = lattice.atom_join_columns(), lattice.bottom
        for i in indices:
            acc = int(cols[rows[i - 1], acc])
        return acc


def _canonical_atom(family: str, n: int, i: int) -> str:
    """Label of canonical atom (B) or coatom (A, C) number i, 1 <= i < n."""
    if family == "B":
        return str(adjacent_transposition(n, i))
    if family == "C":
        return word_label(theta(n, i))
    return str(phi(n, theta(n, i)))


def _family_poset(family: str, n: int) -> tuple[FinitePoset, str, np.ndarray | list]:
    """The validated order of one family, its adjoined label and its members' words.

    Each is its members' bitmasks under containment plus the adjoined
    bound: inversion masks for A and B, packed from an array of their
    words, and partial-sum masks for C.  B's word array is the walk's, and
    its labels are read off it, so B builds no `Permutation`.  The words
    come in element order, the adjoined bound left out, as
    `FamilyLattice.words` keeps them.  No lattice table is built, so what
    needs only the order stops here.
    """
    if family not in ("A", "B", "C"):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if family == "C":
        words = composition_words(n)
        labels, packed = [word_label(w) for w in words], _pack([_split_mask(w) for w in words])
    else:
        if family == "B":
            words = avoiders_321(n)
        else:
            avoiders = enumerate_avoiders(n, AVOIDED_PATTERNS[family])
            words = np.array([p.word for p in avoiders], dtype=np.int8)
        labels, packed = _word_labels(words), inversion_limbs(words)[0]
    leq = np.zeros((len(words) + 1,) * 2, dtype=bool)
    if family == "B":
        leq[:, -1] = True
        core, labels = leq[:-1, :-1], labels + [TOP_LABEL]
    else:
        leq[0] = True
        core, labels = leq[1:, 1:], [BOTTOM_LABEL] + labels
    _containment_order(packed, core)
    adjoined = TOP_LABEL if family == "B" else BOTTOM_LABEL
    return FinitePoset(labels, leq), adjoined, words


def _word_labels(words: np.ndarray) -> list[str]:
    """`format_word` of each row of an (M, n) array of one-line words.

    Up to degree 9 every value is one digit, so the rows offset by ord("0")
    are the labels' bytes; beyond, the values are joined with commas.
    """
    n = words.shape[1]
    if n <= 9:
        digits = np.ascontiguousarray(words + ord("0"), dtype=np.uint8)
        return digits.view(f"S{n}").ravel().astype(str).tolist()
    names = [str(v) for v in range(n + 1)]
    return [",".join(map(names.__getitem__, row)) for row in words.tolist()]


@lru_cache(maxsize=None)
def build_family(family: str, n: int) -> FamilyLattice:
    """Construct one of the lattices A, B or C at size n."""
    poset, adjoined, words = _family_poset(family, n)
    return FamilyLattice(family, n, as_lattice(poset), adjoined, words)


@lru_cache(maxsize=None)
def weak_order_lattice(n: int) -> BoundedLattice:
    """All of S_n under the weak order, as a lattice."""
    words = _avoider_words(n)
    leq = np.empty((len(words), len(words)), dtype=bool)
    _containment_order(inversion_limbs(words)[0], leq)
    return as_lattice(FinitePoset(_word_labels(words), leq))


# -- the A/C correspondence ----------------------------------------------


def phi(n: int, word):
    """Avoider permutation named by a composition word.

    A leading 1 prepends the largest unused value; a leading 2 prepends
    the two largest in ascending order.  The bottom label passes through.

    >>> str(phi(3, (2, 1)))
    '231'
    """
    if word == BOTTOM_LABEL:
        return BOTTOM_LABEL
    word = _check_word(n, word)
    vals: list[int] = []
    m = n
    for c in word:
        if c == 1:
            vals.append(m)
            m -= 1
        else:
            vals.extend((m - 1, m))
            m -= 2
    return Permutation(tuple(vals))


def psi(n: int, p):
    """Composition word naming an avoider permutation; inverse of phi.

    >>> psi(3, Permutation((3, 1, 2)))
    (1, 2)
    """
    if p == BOTTOM_LABEL:
        return BOTTOM_LABEL
    if p.n != n:
        raise NotAnAvoider(f"degree {p.n} does not match n={n}")
    w = p.word
    out: list[int] = []
    m = n
    idx = 0
    while idx < len(w):
        if w[idx] == m:
            out.append(1)
            m -= 1
            idx += 1
        elif idx + 1 < len(w) and w[idx] == m - 1 and w[idx + 1] == m:
            out.append(2)
            m -= 2
            idx += 2
        else:
            raise NotAnAvoider(f"{p} does not start with {m} or {m-1},{m}")
    return tuple(out)


def theta(n: int, i: int) -> tuple[int, ...]:
    """The coatom word of length n-1 whose single 2 sits in position i."""
    if n < 2 or not 1 <= i <= n - 1:
        raise ValueError(f"coatom index {i} out of range for n={n}")
    return tuple(2 if k == i else 1 for k in range(1, n))


def theta_meet(n: int, indices) -> str:
    """Label of the meet of the chosen coatoms of family C.

    With all chosen positions pairwise at least 2 apart the meet is the
    word with 2s at positions i_t - (t-1); with any two adjacent positions
    the meet collapses to the bottom.  No lattice is built: the claim
    coatom-meet-formula checks this against C's lattice.
    """
    idx = tuple(indices)
    if not idx or list(idx) != sorted(set(idx)) or idx[0] < 1 or idx[-1] > n - 1:
        raise ValueError(f"indices must increase strictly within [1, {n - 1}]")
    if any(b - a < 2 for a, b in zip(idx, idx[1:])):
        return BOTTOM_LABEL
    shifted = {i - t for t, i in enumerate(idx)}
    word = tuple(2 if p in shifted else 1 for p in range(1, n - len(idx) + 1))
    return word_label(word)


def predicted_nbb_bases(family: str, n: int) -> list[tuple[str, ...]]:
    """Sparse-set predictions for the NBB bases of the adjoined bound.

    Each sparse subset S of [n-2] names the base {x_1} | {x_(s+1): s in S}
    where x_i runs over the canonical atom or coatom sequence.  Defined
    for n >= 3; listed in sparse-set order.
    """
    if family not in ("A", "B", "C"):
        raise ValueError(f"unknown family {family!r}")
    if n < 3:
        raise ValueError("predictions need n >= 3")
    out = []
    for s in sparse_sets(n - 2):
        indices = sorted({1} | {v + 1 for v in s})
        out.append(tuple(_canonical_atom(family, n, i) for i in indices))
    return out


def sparse_signed_sum(n: int) -> int:
    """Sum of (-1)^(|X|+1) over sparse subsets X of [n-2], for n >= 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return sum(-1 if len(x) % 2 == 0 else 1 for x in sparse_sets(n - 2))


# -- verification ---------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one verifiable claim at one size."""

    id: str
    family: str
    n: int
    passed: bool
    witness: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.id,
            "family": self.family,
            "n": self.n,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _upto(first: int, last: int | None = None) -> Callable[[int], range]:
    """Sizes from first through max_n, and through last at most."""
    return lambda max_n: range(first, min(max_n, last or max_n) + 1)


@dataclass
class Claim:
    """One claim `verify` checks, with its family, or "-" for none.

    `sizes(max_n)` gives the sizes `verify --max-n max_n` checks it at, and
    `check(n, seed)` its failures at size n, the first of which is the witness.
    A check that raises NotALattice or CycleDetected, as one reading a
    broken family lattice does, fails with the error's message as witness.
    """

    id: str
    family: str
    check: Callable[[int, int], list[str]]
    sizes: Callable[[int], Sequence[int]] = _upto(1)

    def run(self, n: int, seed: int = 0) -> ClaimResult:
        try:
            failures = self.check(n, seed)
        except (NotALattice, CycleDetected) as exc:
            failures = [str(exc)]
        return ClaimResult(self.id, self.family, n, not failures, failures[0] if failures else None)


def _cover_words(words: np.ndarray, upward: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper (or lower) covers of each row of an (M, n) array of words.

    A cover swaps the values k and k+1, where k precedes k+1 (upper) or
    follows it (lower).  Returns the covers as one int8 array, grouped by
    k, with the row and the k each came from.
    """
    where = np.argsort(words, axis=1)  # where[:, v - 1] is the position of v
    covers = [np.empty((0, words.shape[1]), dtype=np.int8)]
    rows, ks = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for k in range(1, words.shape[1]):
        hit = np.flatnonzero((where[:, k - 1] < where[:, k]) == upward)
        w = words[hit]
        covers.append(w + (w == k) - (w == k + 1))
        rows.append(hit)
        ks.append(np.full(len(hit), k))
    return np.concatenate(covers), np.concatenate(rows), np.concatenate(ks)


def _closure_failures(words: np.ndarray, patterns, upward: bool) -> list[str]:
    """Upper (or lower) covers of the rows of a word array that contain one of the patterns.

    One line per such cover, in row order and, per row, by the k of the
    swapped values k, k+1.
    """
    covers, rows, ks = _cover_words(words, upward)
    hit = np.zeros(len(covers), dtype=bool)
    for pat in patterns:
        hit |= _contains_rows(covers, pat.word)
    found = np.flatnonzero(hit)
    found = found[np.lexsort((ks[found], rows[found]))]
    bad = []
    for i in found.tolist():
        p, q = format_word(words[rows[i]].tolist()), format_word(covers[i].tolist())
        bad.append(f"{p} < {q} leaves the family" if upward else f"{q} < {p} leaves the family")
    return bad


def verify_structure(n: int) -> list[ClaimResult]:
    """The structural claims of `CLAIMS` whose sizes reach n, run at n.

    The closure claims test every cover of every member at once with
    `_contains_rows`; the members are the rows of the cached family
    lattices' word arrays.  The swap claims test their few words one at a
    time with `contains_pattern`.
    """
    return [claim.run(n) for claim in _STRUCTURE if n in claim.sizes(n)]


def _closed(family: str, n: int, seed: int) -> list[str]:
    """A is closed under upper covers and B under lower ones: an order filter and an ideal."""
    fam = build_family(family, n)
    return _closure_failures(fam.words, AVOIDED_PATTERNS[family], upward=family == "A")


def _head_structure(n: int, seed: int) -> list[str]:
    return [
        f"{p} starts with neither {n} nor {n-1},{n}"
        for p in build_family("A", n).elements[1:]
        if p.word[0] != n and p.word[:2] != (n - 1, n)
    ]


def _prefix_recurrence(n: int, seed: int) -> list[str]:
    two = {Permutation((n - 1, n) + w.word) for w in build_family("A", n - 2).elements[1:]}
    one = {Permutation((n,) + w.word) for w in build_family("A", n - 1).elements[1:]}
    bad = [f"overlap: {next(iter(two & one))}"] if two & one else []
    if two | one != set(build_family("A", n).elements[1:]):
        bad.append("prefix images do not cover the family")
    return bad


def _swap_joins_escape(n: int, seed: int) -> list[str]:
    fam, bad = build_family("B", n), []
    for i in range(1, n - 1):
        joined = weak_join(adjacent_transposition(n, i), adjacent_transposition(n, i + 1))
        if not contains_pattern(joined, AVOIDED_PATTERNS["B"][0]):
            bad.append(f"join of swaps {i}, {i+1} stays in the family: {joined}")
        if fam._canonical_join((i, i + 1)) != fam.lattice.top:
            bad.append(f"table join of swaps {i}, {i+1} is not the top")
    return bad


def _spread_swap_joins(n: int, seed: int) -> list[str]:
    fam = build_family("B", n)
    # a nonempty S in [n-1] with gaps of at least 2 is {1} | (S + 2), a
    # sparse set of [n+1], less its head: S + 2 starts at 3 or later, so
    # it never touches the 1, and the shared head keeps the order
    for subset in (tuple(v - 2 for v in x[1:]) for x in sparse_sets(n + 1) if len(x) > 1):
        joined = reduce(weak_join, (adjacent_transposition(n, i) for i in subset))
        word = list(range(1, n + 1))
        for i in subset:
            word[i - 1], word[i] = word[i], word[i - 1]
        product = Permutation(tuple(word))
        if joined != product or contains_pattern(product, AVOIDED_PATTERNS["B"][0]):
            return [f"join over positions {subset} is not the disjoint product"]
        if fam.lattice.labels[fam._canonical_join(subset)] != str(product):
            return [f"table join over positions {subset} disagrees"]
    return []


def _coatom_meets(n: int, seed: int) -> list[str]:
    fam, bad = build_family("C", n), []
    for r in range(1, n):
        for subset in itertools.combinations(range(1, n), r):
            table = fam.nbb_lattice.labels[fam._canonical_join(subset)]
            expect = theta_meet(n, subset)
            if table != expect:
                bad.append(f"coatom meet over {subset}: table {table}, formula {expect}")
    return bad


def _chained_inversion_disagreement(n: int) -> list[str]:
    """Failures of chained-inversion-characterization: the first disagreeing word, if any.

    Both sides run on the n! words at once, in lexicographic order, so the
    first index where they differ is the lexicographically first witness.
    The containment side stays definitional and shares no code with the
    chained sweep: `_contains_rows` tests every 3-subset of positions
    against 321.  Its own function, so the n! words die before the lattices
    that the next claims build.
    """
    words = _avoider_words(n)
    differ = np.flatnonzero(_has_chained_inversions(words) != _contains_rows(words, (3, 2, 1)))
    if not len(differ):
        return []
    first = Permutation(tuple(words[differ[0]].tolist()))
    return [f"{first}: chained inversions disagree with containment"]


def _has_chained_inversions(words: np.ndarray) -> np.ndarray:
    """Per row of an (N, n) array of words: are there inversions (i, j) and (j, k)?

    Sweeps the middle position j over the columns: an inversion ends at j
    when the largest earlier entry is larger, and one starts there when the
    smallest later entry is smaller.  The words are transposed once, a
    block of rows at a time, so each column is one contiguous row; the
    largest earlier entry is kept as the sweep goes, and the smallest later
    ones come from one accumulation over the reversed columns.
    """
    chained = np.zeros(len(words), dtype=bool)
    n = words.shape[1]
    if n < 3:
        return chained
    step = max(1, _SUBSET_CHUNK // n)
    for lo in range(0, len(words), step):
        cols = np.ascontiguousarray(words[lo : lo + step].T)
        later = np.minimum.accumulate(cols[:0:-1], axis=0)[::-1]  # later[j]: least of columns > j
        earlier = cols[0].copy()
        found = chained[lo : lo + step]
        for j in range(1, n - 1):
            found |= (earlier > cols[j]) & (later[j] < cols[j])
            np.maximum(earlier, cols[j], out=earlier)
    return chained


def _isomorphism(n: int, seed: int) -> list[str]:
    """Word-to-avoider relabeling is an order isomorphism, both ways."""
    fam_c = build_family("C", n)
    fam_a = build_family("A", n)
    failures = []
    try:
        if fam_c.lattice.size != fam_a.lattice.size:
            failures.append("element counts differ")
        else:
            mapping = np.empty(fam_c.lattice.size, dtype=np.intp)
            for i, lab in enumerate(fam_c.lattice.labels):
                image = BOTTOM_LABEL if lab == BOTTOM_LABEL else str(phi(n, fam_c.elements[i]))
                mapping[i] = fam_a.lattice.poset.index(image)
            if len(set(mapping.tolist())) != fam_c.lattice.size:
                failures.append("relabeling is not a bijection")
            else:
                lc = fam_c.lattice.poset.leq
                la = fam_a.lattice.poset.leq[np.ix_(mapping, mapping)]
                if not (lc == la).all():
                    bad = np.argwhere(lc != la)[0]
                    failures.append(
                        f"order disagrees at {fam_c.lattice.labels[bad[0]]}, {fam_c.lattice.labels[bad[1]]}"
                    )
            for w in fam_c.elements:
                if w is not None and psi(n, phi(n, w)) != w:
                    failures.append(f"round trip fails at word {word_label(w)}")
                    break
            for p in fam_a.elements:
                if p is not None and phi(n, psi(n, p)) != p:
                    failures.append(f"round trip fails at {p}")
                    break
    except (KeyError, NotAnAvoider, NotACompositionWord) as exc:
        failures.append(f"map left the family: {exc}")
    return failures


def _nbb_prediction(family: str, n: int, seed: int) -> list[str]:
    """Enumerated NBB bases of the adjoined bound match the predictions."""
    fam = build_family(family, n)
    bases = nbb_bases_of(fam.canonical_order, fam.nbb_target)
    found = {frozenset(fam.nbb_lattice.labels[a] for a in b.atoms) for b in bases}
    predicted = {frozenset(b) for b in predicted_nbb_bases(family, n)}
    failures = []
    if found != predicted:
        extra = found - predicted
        missing = predicted - found
        if extra:
            failures.append(f"unpredicted base {sorted(next(iter(extra)))}")
        if missing:
            failures.append(f"missing base {sorted(next(iter(missing)))}")
    if len(bases) != len(sparse_sets(n - 2)):
        failures.append(f"{len(bases)} bases but {len(sparse_sets(n - 2))} sparse sets")
    return failures


def mobius_summary(n: int, families=("A", "B", "C")) -> dict:
    """All computations of the Mobius number at size n, plus agreement.

    A and C run on their dense lattices; B runs both routes table-free, so
    this builds no B lattice.
    """
    oracle = {}
    via_nbb = {}
    for family in families:
        if family == "B":
            oracle[family], via_nbb[family] = _table_free_mobius_b(n)
            continue
        fam = build_family(family, n)
        oracle[family] = fam.lattice.mobius_number()
        via_nbb[family] = mobius_via_nbb(fam.canonical_order)
    sparse_sum = sparse_signed_sum(n) if n >= 3 else None
    fib_eval = fib_poly(n - 2).eval(-1) if n >= 3 else None
    values = set(oracle.values()) | set(via_nbb.values())
    if n >= 3:
        values |= {sparse_sum, fib_eval}
    return {
        "n": n,
        "oracle": oracle,
        "nbb": via_nbb,
        "sparse_sum": sparse_sum,
        "fib_eval": fib_eval,
        "agree": len(values) == 1,
    }


def _mobius_identity(n: int, seed: int) -> list[str]:
    """Every route and closed form of `mobius_summary` agrees, and so does B's dense recurrence.

    The dense lattice stays the oracle for B's table-free routes at the
    sizes where verify builds it anyway.
    """
    summary = mobius_summary(n)
    dense = build_family("B", n).lattice.mobius_number()
    if summary["agree"] and dense == summary["oracle"]["B"]:
        return []
    return [f"{summary}; dense recurrence for B: {dense}"]


def _order_independence(family: str, n: int, seed: int) -> list[str]:
    """NBB counts are order-independent, element by element.

    Under the canonical order and each shuffled one, the signed NBB count
    at every element of the lattice NBB runs on equals its Mobius value by
    the recurrence, the top included.  The shuffles are drawn as
    `shuffled_order` draws them, and all the orders run in one stacked
    search, whose column holds one row of counts per order.
    """
    fam = build_family(family, n)
    lattice = fam.nbb_lattice
    oracle = lattice.poset._mobius_from(lattice.bottom)
    rng = random.Random(f"{seed}:{family}:{n}")
    shuffles = []
    for _ in range(20):
        seq = lattice.atoms()
        rng.shuffle(seq)
        shuffles.append(seq)
    view = _Search(lattice, [fam.canonical_order.sequence, *shuffles])
    wrong = (_mobius_column(view).reshape(len(shuffles) + 1, lattice.size) != oracle).any(axis=1)
    failures = []
    if wrong[0]:
        failures.append("canonical order disagrees with the recurrence")
    bad = np.flatnonzero(wrong[1:])
    if len(bad):
        failures.append(f"shuffle {bad[0]} of {shuffles[bad[0]]} disagrees")
    return failures


def _generating_function(n: int, seed: int) -> list[str]:
    """The sparse-set generating polynomial h_k is F_k for every k up to n."""
    return [f"size {k}" for k in range(1, n + 1) if fib_poly(k) != h_poly(k)]


def _base_case(n: int, seed: int) -> list[str]:
    base = sparse_sets(n)
    return [] if base == [(1,), (1, 3), (1, 4)] else [f"got {base}"]


_STRUCTURE = (
    Claim("avoiders-upward-closed", "A", partial(_closed, "A")),
    Claim("avoiders-downward-closed", "B", partial(_closed, "B")),
    Claim("avoider-head-structure", "A", _head_structure),
    Claim("avoider-prefix-recurrence", "A", _prefix_recurrence, _upto(3)),
    Claim("chained-inversion-characterization", "B", lambda n, seed: _chained_inversion_disagreement(n)),
    Claim("adjacent-swap-joins-escape", "B", _swap_joins_escape, _upto(3)),
    Claim("spread-swap-joins-product", "B", _spread_swap_joins, _upto(2)),
    Claim("coatom-meet-formula", "C", _coatom_meets, _upto(2)),
)
CLAIMS = _STRUCTURE + (
    Claim("word-avoider-isomorphism", "A", _isomorphism, _upto(1, 10)),
    Claim("mobius-identity", "-", _mobius_identity, _upto(3, 9)),
    *(Claim("nbb-bases-predicted", f, partial(_nbb_prediction, f), _upto(3, 8)) for f in "ABC"),
    *(Claim("nbb-order-independence", f, partial(_order_independence, f)) for f in "ABC"),
    Claim("sparse-generating-function", "-", _generating_function, lambda max_n: (20,)),
    Claim("sparse-sets-base-case", "-", _base_case, lambda max_n: (4,)),
)


def verify_all(max_n: int, seed: int = 0) -> list[ClaimResult]:
    """Every claim of `CLAIMS` at its sizes up to max_n, in the order of the module docstring."""
    return [result for n in range(1, max_n + 1) for result in verify_structure(n)] + [
        claim.run(n, seed) for claim in CLAIMS[len(_STRUCTURE) :] for n in claim.sizes(max_n)
    ]
