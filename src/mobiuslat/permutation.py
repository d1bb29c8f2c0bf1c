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

Avoiders are listed by degree, in lex order.  The words of [m] that
start with v are v followed by a word of [m-1] with every value from v up
raised by one.  `_avoider_words` takes as those words of [m-1] only the
avoiders of [m-1], and then drops the candidates that hold a pattern.  No
avoider is lost: the entries of an avoider of [m] after its first,
standardized, form a word of [m-1], and an occurrence of a pattern in it
would be one in the avoider too, so it is an avoider of [m-1] and the
avoider is among the candidates.  By the same argument an occurrence in
a candidate that leaves out its first entry is one in an avoider of [m-1],
which has none, so only the position sets through the first can hold one.
Whole arrays of candidates are tested at once by `_contains_rows`, on
those sets only; `contains_pattern` is the same definition on one word,
and the oracle it is tested against.

321 (family B) also has a walk of its own, `avoiders_321`, which visits
only live prefixes, those that some avoider extends.  Call w_j a
non-maximum when some earlier value exceeds it.  In a 321-avoider the
non-maxima increase: for non-maxima a before b with a > b, the value
c > a earlier than a makes c a b a 321.  A 321-free prefix with running
maximum M, whose last non-maximum is t (0 if none), is live exactly when
every unplaced value exceeds t.  If some unplaced u < t, then c t u is a
321 for the c > t before t.  Otherwise append the unplaced values in
increasing order: each is a maximum or exceeds t, so the non-maxima still
increase, and a 321 c b a would make b and a non-maxima with b > a.
Appending v to a live prefix gives a live prefix exactly when v > M (a
new maximum, t unchanged) or v is the smallest unplaced value s (v
becomes the last non-maximum and every value still unplaced exceeds it).
An unplaced v < M other than s leaves s < v unplaced behind the
non-maximum v.  So the walk extends by s, when s < M, and by every value
above M, and every node it visits is live.
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


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The identity with positions i and i+1 swapped, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range for degree {n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return Permutation(tuple(word))


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


def contains_pattern(p: Permutation, pat: Permutation) -> bool:
    """Classical containment: some subsequence of p orders like pat.

    The definition, one k-subset of positions at a time.

    >>> contains_pattern(Permutation((3, 1, 2)), Permutation((3, 2, 1)))
    False
    """
    pw = pat.word
    # each pair of positions in the pattern, and whether its entries ascend
    demands = [(a, b, pw[a] < pw[b]) for a, b in itertools.combinations(range(len(pw)), 2)]
    for vals in itertools.combinations(p.word, len(pw)):
        for a, b, ascends in demands:
            if (vals[a] < vals[b]) != ascends:
                break
        else:
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
    """All permutations of [n] avoiding every given pattern, in lex order."""
    if n < 1:
        raise ValueError("degree must be positive")
    return [Permutation(tuple(w)) for w in _avoider_words(n, {p.word for p in pats}).tolist()]


def _avoider_words(n: int, pat_words=()) -> np.ndarray:
    """The words of [n] avoiding every pattern word, as rows of an array, in lex order.

    Built up by degree, as the module docstring shows: the candidates of
    degree m are each v followed by an avoider of [m-1] with every value
    from v up raised by one, and those holding a pattern at a set of
    positions through the first are dropped.  With no patterns that lists
    all n! words.  The dtype is the smallest that holds n.
    """
    words = np.empty((1, 0), dtype=np.min_scalar_type(n))
    for m in range(1, n + 1):
        out = np.empty((m * len(words), m), dtype=words.dtype)
        for v in range(1, m + 1):
            block = out[(v - 1) * len(words) : v * len(words)]
            block[:, 0] = v
            block[:, 1:] = words + (words >= v)
        words = out
        for pw in pat_words:
            words = words[~_contains_rows(words, pw, through_first=True)]
    return words


def _contains_rows(words: np.ndarray, pat_word, through_first: bool = False) -> np.ndarray:
    """Per row of an (N, n) array of words: does some subsequence order like the pattern?

    The definition of containment, on whole columns: for every k-subset of
    positions, the AND of the comparison the pattern demands between each
    pair of its entries, ORed into the answer.  Subsets are walked in lex
    order, and a shared prefix of positions keeps its AND, so besides a
    column-major copy of the words only one length-N array per depth is
    alive.  A pattern longer than the words gives all False.  With
    `through_first`, only the subsets holding position 0 are tested, the
    C(n-1, k-1) of them where the first entry's occurrences are.
    """
    k, (count, n) = len(pat_word), words.shape
    found = np.zeros(count, dtype=bool)
    if k > n:
        return found
    cols = np.ascontiguousarray(words.T)

    def extend(match, chosen: tuple[int, ...]) -> None:
        d = len(chosen)
        if d == k:
            found[...] |= match
            return
        for j in range(chosen[-1] + 1 if chosen else 0, n - k + d + 1):
            m = match
            for a, i in enumerate(chosen):
                m = m & (cols[i] < cols[j] if pat_word[a] < pat_word[d] else cols[i] > cols[j])
            extend(m, chosen + (j,))

    extend(np.ones(count, dtype=bool), (0,) if through_first and k else ())
    return found


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


def inversion_limbs(words: np.ndarray) -> np.ndarray:
    """Inversion masks of a word array as rows of 64-bit limbs.

    Row r is inversion_mask of word r, limb k holding its bits 64k to
    64k + 63, in ceil(n(n-1)/2 / 64) limbs (at least one), and
    `_bit_counts` of a row is its number of inversions.  One column
    comparison per pair (i, j) sets bit pair_index(n, i, j) of every row at
    once, in the little-endian bytes that the limbs view.
    """
    rows, n = words.shape
    limbs = max(1, (n * (n - 1) // 2 + 63) // 64)
    columns = np.ascontiguousarray(words.T)
    octets = np.zeros((8 * limbs, rows), dtype=np.uint8)
    above = np.empty(rows, dtype=bool)
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            np.greater(columns[i], columns[j], out=above)
            octets[bit >> 3] |= above.view(np.uint8) << (bit & 7)
            bit += 1
    return np.ascontiguousarray(octets.T).view("<u8")


_BYTE_BITS = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)


def _bit_counts(packed: np.ndarray) -> np.ndarray:
    """The number of bits set in each row of packed masks, a byte column at a time.

    No temporary then takes more than a byte per row.
    """
    counts = np.zeros(len(packed), dtype=np.int16)
    for column in packed.view(np.uint8).T:
        counts += _BYTE_BITS[column]
    return counts
