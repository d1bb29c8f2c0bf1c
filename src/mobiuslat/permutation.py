"""Permutations in one-line notation under the weak order.

Comparison is by inversion sets: p <= q iff Inv(p) is a subset of Inv(q).
Pairs (i, j) with 1 <= i < j <= n are packed into flat bitmasks by
pair_index, so a subset test costs one machine operation; the lattice
builders and every weak-order operation here use this one format.  Block i
of a mask, read as row i, holds the pairs (i, j).  The join closes the
union of two masks under (i, j), (j, k) -> (i, k); the meet is the
complement of the closure of the pairs outside the intersection.  One
closure serves both, and one decoder turns rows back into a permutation,
rejecting rows that are no inversion set.  Both constructions are
cross-checked against exhaustive bound search in the test suite.

Avoiders are enumerated by extending prefixes in lex order.  For the two
pattern sets of the families the walk visits only live prefixes, those
that some avoider extends.

321 (family B).  Call w_j a non-maximum when some earlier value exceeds
it.  In a 321-avoider the non-maxima increase: for non-maxima a before b
with a > b, the value c > a earlier than a makes c a b a 321.  A
321-free prefix with running maximum M, whose last non-maximum is t (0 if
none), is live exactly when every unplaced value exceeds t.  If some
unplaced u < t, then c t u is a 321 for the c > t before t.  Otherwise
append the unplaced values in increasing order: each is a maximum or
exceeds t, so the non-maxima still increase, and a 321 c b a would make
b and a non-maxima with b > a.  Appending v to a live prefix gives a live
prefix exactly when v > M (a new maximum, t unchanged) or v is the
smallest unplaced value s (v becomes the last non-maximum and every value
still unplaced exceeds it).  An unplaced v < M other than s leaves s < v
unplaced behind the non-maximum v.  So the walk extends by s, when
s < M, and by every value above M, and every node it visits is live.

123, 132, 213 (family A).  The anchored checks stay, and two rules drop
dead prefixes before them, each because every completion holds a pattern.
Rule 1: a placed x with two larger values y < z still unplaced is
followed by x y z (a 123) or x z y (a 132).  Rule 2: a placed inversion
b ... a (b > a) with an unplaced c > b is followed by b a c, a 213.  Both
only weaken as values are placed, so each is checked on the value just
appended.  Rule 1 leaves only the two largest unplaced values m' < m as
candidates.  Appending m creates inversions only with larger placed
values, above which nothing is unplaced; appending m' inverts it with every
placed value between m' and m, so rule 2 allows m' exactly when m = m' + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class DegreeMismatch(ValueError):
    """Raised when two permutations of different degrees are compared."""


class DuplicateEntries(ValueError):
    """Raised when a word presented for standardization repeats a value."""


class NotAnInversionSet(ValueError):
    """Raised when a pair set is not the inversion set of any permutation."""


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on [n], stored as its one-line word."""

    word: tuple[int, ...]

    def __post_init__(self):
        n = len(self.word)
        if n == 0 or sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation word: {self.word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Value at position i, 1-based."""
        if not 1 <= i <= len(self.word):
            raise IndexError(f"position {i} not in 1..{len(self.word)}")
        return self.word[i - 1]

    def __str__(self) -> str:
        return format_word(self.word)


def format_word(word) -> str:
    """Digit string for degrees up to 9, comma-separated beyond.

    >>> format_word((2, 3, 1))
    '231'
    """
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reversal(n: int) -> Permutation:
    """The word n, n-1, ..., 1: the maximum of the weak order."""
    return Permutation(tuple(range(n, 0, -1)))


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The identity with positions i and i+1 swapped, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range for degree {n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return Permutation(tuple(word))


def reverse(p: Permutation) -> Permutation:
    """Flip the word left to right; an involution that dualizes the order."""
    return Permutation(p.word[::-1])


def inversion_set(p: Permutation) -> frozenset[tuple[int, int]]:
    """All pairs (i, j) with i < j and p(i) > p(j).

    >>> sorted(inversion_set(Permutation((2, 3, 1))))
    [(1, 3), (2, 3)]
    """
    w = p.word
    n = len(w)
    return frozenset(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if w[i - 1] > w[j - 1]
    )


def pair_index(n: int, i: int, j: int) -> int:
    """Flat index of the pair (i, j), i < j, in a fixed triangular layout."""
    # pairs with first coordinate i occupy a contiguous block
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def inversion_mask(p: Permutation) -> int:
    """Inversion set packed into an integer bitmask via pair_index.

    below[v] marks, as bit j, each position j holding a value smaller than
    v; row i is its part past i, and rows are laid out back to back.
    """
    w = p.word
    n = len(w)
    pos = [0] * (n + 1)
    for j, v in enumerate(w):
        pos[v] = j
    below = [0] * (n + 1)
    acc = 0
    for v in range(1, n + 1):
        below[v] = acc
        acc |= 1 << pos[v]
    mask = shift = 0
    for i, v in enumerate(w):
        mask |= (below[v] >> i + 1) << shift
        shift += n - 1 - i
    return mask


def _check_degrees(p: Permutation, q: Permutation) -> int:
    if p.n != q.n:
        raise DegreeMismatch(f"degrees differ: {p.n} vs {q.n}")
    return p.n


def from_inversion_set(n: int, pairs) -> Permutation:
    """Rebuild the permutation with the given inversion set.

    A pair set is an inversion set exactly when it and its complement are
    both closed under composing (i, j), (j, k) into (i, k); anything else
    is rejected.
    """
    mask = 0
    for i, j in pairs:
        if not (1 <= i < j <= n):
            raise NotAnInversionSet(f"pair {(i, j)} invalid for degree {n}")
        mask |= 1 << pair_index(n, i, j)
    return _from_rows(_rows(n, mask))


def weak_leq(p: Permutation, q: Permutation) -> bool:
    """p <= q in the weak order: Inv(p) a subset of Inv(q)."""
    _check_degrees(p, q)
    return inversion_mask(p) & ~inversion_mask(q) == 0


def _rows(n: int, mask: int) -> list[int]:
    """Block i of a pair_index mask as row i: bit j-i-1 set for each pair (i, j)."""
    return [(mask >> pair_index(n, i, i + 1)) & ((1 << (n - i)) - 1) for i in range(1, n + 1)]


def _closed(rows: list[int]) -> list[int]:
    """Close rows under (i, j), (j, k) -> (i, k), from the last row back.

    Bit d-1 of row i is the pair (i, i+d); row i+d, shifted by d and already
    closed, holds every pair (i, k) that it composes into.
    """
    rows = list(rows)
    for i in range(len(rows) - 2, -1, -1):
        bits = closed = rows[i]
        while bits:
            d = (bits & -bits).bit_length()
            closed |= rows[i + d] << d
            bits &= bits - 1
        rows[i] = closed
    return rows


def _from_rows(rows: list[int]) -> Permutation:
    """The permutation whose inversion rows these are.

    Row i counts the later positions holding smaller values, a Lehmer code,
    which names exactly one word; the rows are an inversion set exactly
    when they are that word's own rows.
    """
    free = list(range(1, len(rows) + 1))
    p = Permutation(tuple(free.pop(row.bit_count()) for row in rows))
    if _rows(p.n, inversion_mask(p)) != rows:
        raise NotAnInversionSet("not an inversion set: it or its complement is not transitive")
    return p


def weak_join(p: Permutation, q: Permutation) -> Permutation:
    """Least upper bound: the closure of the union of inversions.

    >>> str(weak_join(Permutation((2, 1, 3)), Permutation((1, 3, 2))))
    '321'
    """
    n = _check_degrees(p, q)
    return _from_rows(_closed(_rows(n, inversion_mask(p) | inversion_mask(q))))


def weak_meet(p: Permutation, q: Permutation) -> Permutation:
    """Greatest lower bound.

    A pair (i, j) survives when every increasing chain from i to j uses at
    least one pair from Inv(p) & Inv(q); equivalently, j is unreachable
    from i through pairs outside the intersection.
    """
    n = _check_degrees(p, q)
    full = (1 << n * (n - 1) // 2) - 1
    reach = _closed(_rows(n, full ^ (inversion_mask(p) & inversion_mask(q))))
    return _from_rows([w ^ r for w, r in zip(_rows(n, full), reach)])


def _ends_with_pattern(word, pat_word) -> bool:
    """Does some subsequence ending at the last position match the pattern?

    Patterns of length 3 take one pass over the prefix.  For
    pat = a b c, walk the middle position j, keep the values seen before j
    as bits of an integer, and where w_j sits on the side of the new value
    v that b sits of c, test with one mask whether an earlier value falls
    in the open interval that a demands among w_j and v.  Patterns of any
    other length go to the subset search, which is linear for length 1 or 2.
    """
    if len(pat_word) != 3:
        return _ends_with_pattern_oracle(word, pat_word)
    last = len(word) - 1
    if last < 2:
        return False
    v = word[-1]
    a, b, c = pat_word
    mid_above = b > c
    # w_i lies strictly between a lower end lo and an upper end hi, each w_j,
    # v or open; those values are the bits (1 << hi) - (2 << lo), where an
    # open top contributes 0 and an open bottom is lo = 0 (values start at 1)
    lo_j = c < b < a or b < a < c
    lo_v = b < c < a or c < a < b
    hi_j = a < b < c or c < a < b
    hi_v = a < c < b or b < a < c
    lo_fixed = 2 << v if lo_v else 2
    hi_fixed = 1 << v if hi_v else 0
    seen = 0
    for wj in word[:last]:
        if (wj > v) == mid_above:
            lo = 2 << wj if lo_j else lo_fixed
            hi = 1 << wj if hi_j else hi_fixed
            if seen & (hi - lo):
                return True
        seen |= 1 << wj
    return False


def _ends_with_pattern_oracle(word, pat_word) -> bool:
    """Subset search behind _ends_with_pattern: every (k-1)-subset of the prefix."""
    L, k = len(word), len(pat_word)
    if L < k:
        return False
    for idxs in itertools.combinations(range(L - 1), k - 1):
        vals = tuple(word[i] for i in idxs) + (word[-1],)
        if all(
            (vals[a] < vals[b]) == (pat_word[a] < pat_word[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def contains_pattern(p: Permutation, pat: Permutation) -> bool:
    """Classical containment: some subsequence of p orders like pat.

    >>> contains_pattern(Permutation((3, 1, 2)), Permutation((3, 2, 1)))
    False
    """
    w, pw = p.word, pat.word
    if len(pw) > len(w):
        return False
    for end in range(len(pw) - 1, len(w)):
        if _ends_with_pattern(w[: end + 1], pw):
            return True
    return False


def standardize(word) -> Permutation:
    """Replace distinct entries by their ranks, preserving relative order.

    >>> str(standardize((4, 2, 5)))
    '213'
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise DuplicateEntries(f"repeated value in {word!r}")
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    return Permutation(tuple(rank[v] for v in word))


def enumerate_avoiders(n: int, pats) -> list[Permutation]:
    """All permutations of [n] avoiding every given pattern, in lex order.

    The pattern sets of families A and B have walks of their own that visit
    live prefixes only (see the module docstring); any other set goes to
    the anchored search.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    pat_words = frozenset(p.word for p in pats)
    walk = _WALKS.get(pat_words)
    words = _anchored_search(n, pat_words) if walk is None else walk(n)
    return [Permutation(w) for w in words]


def _anchored_search(n: int, pat_words) -> list[tuple[int, ...]]:
    """Words of [n] avoiding every pattern word, in lex order: the generic search.

    Prefix-pruned: a prefix already containing a pattern cannot be
    completed to an avoider, and a new occurrence must use the freshly
    appended position, so only anchored checks run per extension.  It
    stands behind every pattern set without a walk of its own, and is the
    oracle the walks are tested against.
    """
    out: list[tuple[int, ...]] = []
    word: list[int] = []
    used = [False] * (n + 1)

    def grow():
        if len(word) == n:
            out.append(tuple(word))
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            word.append(v)
            if not any(_ends_with_pattern(word, pw) for pw in pat_words):
                used[v] = True
                grow()
                used[v] = False
            word.pop()

    grow()
    return out


def avoiders_321(n: int) -> np.ndarray:
    """The 321-avoiders of [n] as a (C_n, n) int8 word array, in lex order.

    The walk of the module docstring, one level at a time.  Each live
    prefix keeps its running maximum `top` and the bitmask `free` of
    unplaced values, whose lowest bit is the smallest unplaced value s.
    Its children, in increasing order of the appended value, are s when
    s < top and every value above `top`; np.repeat over those counts lays
    each parent's children out in its place, so every level stays in lex
    order.  The last value is the one left unplaced.  The words are
    gathered column by column, so the array is a transposed view.
    """
    if not 1 <= n <= 63:
        raise ValueError(f"degree {n} not in 1..63")
    # no level outgrows its C_n avoiders, and C_19 < 2**31 <= C_20
    index = np.int32 if n < 20 else np.int64
    columns = np.zeros((n, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    free = np.array([((1 << n) - 1) << 1], dtype=np.uint64)
    for j in range(n - 1):
        # the lowest set bit is a power of two, which float64 holds exactly
        low = (np.frexp(free & (~free + 1))[1] - 1).astype(np.int8)
        has_low = low < top
        counts = n - top + has_low
        first = np.cumsum(counts, dtype=index) - counts
        parent = np.repeat(np.arange(len(top), dtype=index), counts)
        # child k of parent p, at first[p] + k, appends top + 1 + k, or
        # top + k when s comes first; then s is put in its place
        value = np.repeat(top + 1 - has_low - first, counts)
        value += np.arange(len(parent), dtype=index)
        value = value.astype(np.int8)
        value[first[has_low]] = low[has_low]
        columns = columns[:, parent]
        columns[j] = value
        if j < n - 2:
            top = np.maximum(top[parent], value)
            free = free[parent]
            free ^= np.left_shift(np.uint64(1), value.astype(np.uint64))
    columns[-1] = n * (n + 1) // 2 - columns[:-1].sum(axis=0, dtype=np.int16)
    return columns.T


def inversion_limbs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inversion masks of a word array as rows of 64-bit limbs, and their sizes.

    Row r is inversion_mask of word r, limb k holding its bits 64k to
    64k + 63, in ceil(n(n-1)/2 / 64) limbs (at least one); counts[r] is
    its number of inversions.  One column comparison per pair (i, j) sets
    bit pair_index(n, i, j) of every row at once, in the little-endian
    bytes that the limbs view.
    """
    rows, n = words.shape
    limbs = max(1, (n * (n - 1) // 2 + 63) // 64)
    columns = np.ascontiguousarray(words.T)
    octets = np.zeros((8 * limbs, rows), dtype=np.uint8)
    counts = np.zeros(rows, dtype=np.int16)
    above = np.empty(rows, dtype=bool)
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            np.greater(columns[i], columns[j], out=above)
            counts += above
            octets[bit >> 3] |= above.view(np.uint8) << (bit & 7)
            bit += 1
    return np.ascontiguousarray(octets.T).view("<u8"), counts


def _walk_123_132_213(n: int) -> list[tuple[int, ...]]:
    """Words of the avoiders of 123, 132 and 213: the anchored search, pruned.

    Only the two largest unplaced values are tried (rule 1), the lower one
    only when no placed value lies between them (rule 2); the anchored
    checks still run on every extension.
    """
    word: list[int] = []
    out: list[tuple[int, ...]] = []

    def grow(free: int):
        if len(word) == n:
            out.append(tuple(word))
            return
        top = free.bit_length() - 1
        second = (free ^ (1 << top)).bit_length() - 1
        for v in (second, top):
            if v < 1 or (v == second and top > second + 1):
                continue
            word.append(v)
            if not any(_ends_with_pattern(word, pw) for pw in _TRIPLE):
                grow(free ^ (1 << v))
            word.pop()

    grow(((1 << n) - 1) << 1)
    return out


_TRIPLE = ((1, 2, 3), (1, 3, 2), (2, 1, 3))
_WALKS = {
    frozenset({(3, 2, 1)}): lambda n: [tuple(w) for w in avoiders_321(n).tolist()],
    frozenset(_TRIPLE): _walk_123_132_213,
}


def _value_swap(w, k) -> Permutation:
    # exchanging the consecutive values k, k+1 flips exactly one pair,
    # so the result is a cover neighbour in the containment order
    pos_k = w.index(k)
    pos_k1 = w.index(k + 1)
    nw = list(w)
    nw[pos_k], nw[pos_k1] = nw[pos_k1], nw[pos_k]
    return Permutation(tuple(nw))


def upper_covers(p: Permutation) -> list[Permutation]:
    """Permutations whose inversion set adds exactly one pair to p's."""
    w = p.word
    return [_value_swap(w, k) for k in range(1, len(w)) if w.index(k) < w.index(k + 1)]


def lower_covers(p: Permutation) -> list[Permutation]:
    """Permutations whose inversion set drops exactly one pair from p's."""
    w = p.word
    return [_value_swap(w, k) for k in range(1, len(w)) if w.index(k) > w.index(k + 1)]
