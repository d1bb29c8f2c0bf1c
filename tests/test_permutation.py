"""Inversion sets, weak-order comparisons, and pattern avoidance."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuslat.families import AVOIDED_PATTERNS, _pack, weak_order_lattice
from mobiuslat.permutation import (
    DegreeMismatch,
    DuplicateEntries,
    NotAnInversionSet,
    Permutation,
    avoiders_321,
    contains_pattern,
    enumerate_avoiders,
    from_inversion_set,
    identity,
    inversion_limbs,
    format_word,
    inversion_mask,
    inversion_set,
    standardize,
    weak_join,
    weak_leq,
    weak_meet,
)
from mobiuslat.permutation import _avoider_words, _bit_counts, _contains_rows

P = Permutation


def all_perms(n):
    return enumerate_avoiders(n, [])


# -- the weak order's reversal and covers, which only the tests use ---------


def reversal(n):
    """The word n, n-1, ..., 1: the maximum of the weak order."""
    return P(tuple(range(n, 0, -1)))


def reverse(p):
    """Flip the word left to right; an involution that dualizes the order."""
    return P(p.word[::-1])


def _value_swap(w, k):
    # exchanging the consecutive values k, k+1 flips exactly one pair,
    # so the result is a cover neighbour in the containment order
    pos_k = w.index(k)
    pos_k1 = w.index(k + 1)
    nw = list(w)
    nw[pos_k], nw[pos_k1] = nw[pos_k1], nw[pos_k]
    return P(tuple(nw))


def upper_covers(p):
    """Permutations whose inversion set adds exactly one pair to p's."""
    w = p.word
    return [_value_swap(w, k) for k in range(1, len(w)) if w.index(k) < w.index(k + 1)]


def lower_covers(p):
    """Permutations whose inversion set drops exactly one pair from p's."""
    w = p.word
    return [_value_swap(w, k) for k in range(1, len(w)) if w.index(k) > w.index(k + 1)]


def test_constructor_validates():
    with pytest.raises(ValueError):
        P((1, 1, 2))
    with pytest.raises(ValueError):
        P((0, 1))
    with pytest.raises(ValueError):
        P(())


def test_str_uses_digits_then_commas():
    assert str(P((3, 1, 2))) == "312"
    long = identity(10)
    assert str(long) == "1,2,3,4,5,6,7,8,9,10"


def test_call_is_one_indexed():
    p = P((3, 1, 2))
    assert p(1) == 3 and p(3) == 2
    with pytest.raises(IndexError):
        p(0)
    with pytest.raises(IndexError):
        p(4)


def test_inversion_set_examples():
    assert inversion_set(P((1, 2, 3))) == frozenset()
    assert inversion_set(P((2, 1))) == frozenset({(1, 2)})
    assert inversion_set(P((2, 3, 1))) == frozenset({(1, 3), (2, 3)})
    assert len(inversion_set(reversal(4))) == 6


def test_from_inversion_set_examples():
    assert from_inversion_set(3, frozenset()) == identity(3)
    assert from_inversion_set(3, {(1, 2), (1, 3)}) == P((3, 1, 2))
    assert from_inversion_set(4, {(i, j) for i in range(1, 4) for j in range(i + 1, 5)}) == reversal(4)


def test_from_inversion_set_rejects_nonclosed():
    # (1,3) alone: either 1,3 are separated by 2 on the wrong side.
    with pytest.raises(NotAnInversionSet):
        from_inversion_set(3, {(1, 3)})
    # complement not closed: {(1,2),(2,3)} forces (1,3).
    with pytest.raises(NotAnInversionSet):
        from_inversion_set(3, {(1, 2), (2, 3)})
    with pytest.raises(NotAnInversionSet):
        from_inversion_set(3, {(2, 1)})
    with pytest.raises(NotAnInversionSet):
        from_inversion_set(3, {(1, 4)})


@pytest.mark.parametrize("n", range(1, 6))
def test_from_inversion_set_accepts_exactly_the_inversion_sets(n):
    # every subset of the n(n-1)/2 pairs: the n! inversion sets give back
    # their permutations, and every other subset is refused
    by_set = {inversion_set(p): p for p in all_perms(n)}
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    accepted = 0
    for k in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, k):
            want = by_set.get(frozenset(subset))
            if want is None:
                with pytest.raises(NotAnInversionSet):
                    from_inversion_set(n, subset)
            else:
                assert from_inversion_set(n, subset) == want
                accepted += 1
    assert accepted == len(by_set)


def test_inversion_round_trip_exhaustive():
    for n in range(1, 7):
        for p in all_perms(n):
            assert from_inversion_set(n, inversion_set(p)) == p


@given(st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_inversion_round_trip_property(word):
    p = P(tuple(word))
    assert from_inversion_set(len(word), inversion_set(p)) == p


def test_weak_leq_examples():
    assert weak_leq(P((1, 3, 2)), P((2, 3, 1)))
    assert not weak_leq(P((2, 1, 3)), P((2, 3, 1)))
    assert weak_leq(P((2, 1, 3)), P((2, 1, 3)))
    for p in all_perms(4):
        assert weak_leq(identity(4), p)
        assert weak_leq(p, reversal(4))


def test_weak_leq_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        weak_leq(P((1, 2)), P((1, 2, 3)))
    with pytest.raises(DegreeMismatch):
        weak_join(P((1, 2)), P((1, 2, 3)))
    with pytest.raises(DegreeMismatch):
        weak_meet(P((1, 2)), P((1, 2, 3)))


def test_weak_join_examples():
    assert weak_join(P((2, 1, 3)), P((1, 3, 2))) == P((3, 2, 1))
    assert weak_join(P((1, 3, 2)), P((2, 3, 1))) == P((2, 3, 1))
    p = P((2, 1, 3, 4))
    assert weak_join(p, p) == p


def test_weak_meet_examples():
    assert weak_meet(P((2, 3, 1)), P((3, 1, 2))) == identity(3)
    assert weak_meet(P((2, 3, 1)), P((3, 2, 1))) == P((2, 3, 1))
    q = P((3, 1, 2, 4))
    assert weak_meet(q, q) == q


def test_join_meet_are_bounds_exhaustive_s4():
    perms = all_perms(4)
    for p, q in itertools.product(perms, repeat=2):
        j = weak_join(p, q)
        m = weak_meet(p, q)
        assert weak_leq(p, j) and weak_leq(q, j)
        assert weak_leq(m, p) and weak_leq(m, q)
        assert weak_leq(m, j)


def test_lattice_laws_exhaustive_s3():
    perms = all_perms(3)
    for p, q, r in itertools.product(perms, repeat=3):
        assert weak_join(p, q) == weak_join(q, p)
        assert weak_meet(p, q) == weak_meet(q, p)
        assert weak_join(p, weak_join(q, r)) == weak_join(weak_join(p, q), r)
        assert weak_meet(p, weak_meet(q, r)) == weak_meet(weak_meet(p, q), r)
        assert weak_join(p, weak_meet(p, q)) == p
        assert weak_meet(p, weak_join(p, q)) == p


PERMS5 = all_perms(5)


@given(st.sampled_from(PERMS5), st.sampled_from(PERMS5), st.sampled_from(PERMS5))
@settings(max_examples=150, deadline=None)
def test_lattice_laws_property_s5(p, q, r):
    assert weak_join(p, q) == weak_join(q, p)
    assert weak_meet(p, q) == weak_meet(q, p)
    assert weak_join(p, weak_join(q, r)) == weak_join(weak_join(p, q), r)
    assert weak_meet(p, weak_meet(q, r)) == weak_meet(weak_meet(p, q), r)
    assert weak_join(p, weak_meet(p, q)) == p
    assert weak_meet(p, weak_join(p, q)) == p


PERMS6 = all_perms(6)


@given(st.integers(0, len(PERMS6) - 1), st.integers(0, len(PERMS6) - 1))
@settings(max_examples=200, deadline=None)
def test_join_meet_match_the_s6_lattice_tables(a, b):
    # the tables come from the dense order of S_6, not from the pair rows
    lattice = weak_order_lattice(6)
    p, q = PERMS6[a], PERMS6[b]
    assert str(weak_join(p, q)) == lattice.labels[lattice.join_table[a, b]]
    assert str(weak_meet(p, q)) == lattice.labels[lattice.meet_table[a, b]]


def test_reverse_is_involution_s5():
    for p in PERMS5:
        assert reverse(reverse(p)) == p


def test_reverse_is_antitone_s4():
    for p, q in itertools.product(all_perms(4), repeat=2):
        assert weak_leq(p, q) == weak_leq(reverse(q), reverse(p))


def test_covers_match_order_relation():
    # reachability through upper covers must reproduce weak_leq exactly
    for n in range(1, 6):
        perms = all_perms(n)
        for p in perms:
            reached = {p}
            frontier = [p]
            while frontier:
                nxt = []
                for q in frontier:
                    for r in upper_covers(q):
                        if r not in reached:
                            reached.add(r)
                            nxt.append(r)
                frontier = nxt
            for q in perms:
                assert (q in reached) == weak_leq(p, q)


def test_upper_and_lower_covers_are_mirror():
    for p in all_perms(4):
        for q in upper_covers(p):
            assert p in lower_covers(q)
        for q in lower_covers(p):
            assert p in upper_covers(q)


def test_cover_counts():
    # ascents and descents partition the n-1 adjacent slots
    for p in all_perms(5):
        assert len(upper_covers(p)) + len(lower_covers(p)) == 4


def test_contains_pattern_examples():
    assert contains_pattern(P((4, 3, 2, 1)), P((3, 2, 1)))
    assert not contains_pattern(P((3, 1, 2)), P((3, 2, 1)))
    assert not contains_pattern(P((2, 1, 4, 3)), P((3, 2, 1)))
    assert contains_pattern(P((2, 1, 4, 3)), P((2, 1)))
    assert contains_pattern(P((1, 2)), P((1, 2)))
    assert not contains_pattern(P((1, 2)), P((1, 2, 3)))


def test_standardize_examples():
    assert standardize((1, 2, 3)) == P((1, 2, 3))
    assert standardize((4, 2, 5)) == P((2, 1, 3))
    assert standardize((9, 7)) == P((2, 1))
    with pytest.raises(DuplicateEntries):
        standardize((3, 3, 1))


def test_standardize_fixes_permutations():
    for p in all_perms(4):
        assert standardize(p.word) == p


def test_enumerate_avoiders_examples():
    got = {p.word for p in enumerate_avoiders(3, [P((3, 2, 1))])}
    assert got == {(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)}
    pats = [P((1, 2, 3)), P((1, 3, 2)), P((2, 1, 3))]
    got = {p.word for p in enumerate_avoiders(3, pats)}
    assert got == {(2, 3, 1), (3, 1, 2), (3, 2, 1)}
    assert [p.word for p in enumerate_avoiders(1, pats)] == [(1,)]


def test_enumerate_avoiders_sorted_and_consistent():
    pats = [P((3, 2, 1))]
    for n in range(1, 7):
        out = enumerate_avoiders(n, pats)
        assert out == sorted(out)
        brute = [p for p in all_perms(n) if not contains_pattern(p, pats[0])]
        assert out == brute


def test_enumerate_avoiders_no_patterns_gives_factorial():
    import math

    for n in range(1, 7):
        assert len(all_perms(n)) == math.factorial(n)


# -- containment on one word and on arrays of words --------------------------

SHORT_PATTERNS = [P(w) for k in (1, 2, 3) for w in itertools.permutations(range(1, k + 1))]


@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=12, unique=True),
    st.sampled_from(SHORT_PATTERNS + [P((2, 4, 1, 3))]),
)
@settings(max_examples=300, deadline=None)
def test_contains_pattern_matches_standardized_subsequences(word, pat):
    p = standardize(word)
    brute = any(standardize(sub) == pat for sub in itertools.combinations(p.word, pat.n))
    assert contains_pattern(p, pat) == brute
    assert _contains_rows(np.array([p.word]), pat.word).tolist() == [brute]
    rest = itertools.combinations(p.word[1:], pat.n - 1)
    first = any(standardize(p.word[:1] + sub) == pat for sub in rest)
    assert _contains_rows(np.array([p.word]), pat.word, through_first=True).tolist() == [first]


def _brute_avoiders(n, pats):
    def shape(vals):
        return tuple(a < b for a, b in itertools.combinations(vals, 2))

    assert {p.n for p in pats} == {3}
    shapes = {shape(p.word) for p in pats}
    return [
        P(w)
        for w in itertools.permutations(range(1, n + 1))
        if not any(shape(sub) in shapes for sub in itertools.combinations(w, 3))
    ]


@pytest.mark.parametrize("family", ["A", "B"])
def test_enumerate_avoiders_matches_brute_force_filter(family):
    pats = AVOIDED_PATTERNS[family]
    for n in range(1, 9):
        assert enumerate_avoiders(n, pats) == _brute_avoiders(n, pats)


# -- the 321 walk against the generic search --------------------------------


def test_numpy_321_walk_matches_the_generic_search():
    for n in range(1, 10):
        words = avoiders_321(n)
        assert words.dtype == np.int8 and words.shape == (math.comb(2 * n, n) // (n + 1), n)
        assert np.array_equal(words, _avoider_words(n, [(3, 2, 1)])), n
    for n in (0, 64):
        with pytest.raises(ValueError):
            avoiders_321(n)


def assert_limbs_match_masks(words):
    masks = [inversion_mask(P(tuple(w))) for w in words.tolist()]
    packed = inversion_limbs(words)
    expected = _pack(masks)
    assert packed.dtype == expected.dtype and packed.shape == expected.shape
    assert np.array_equal(packed, expected)
    assert _bit_counts(packed).tolist() == [m.bit_count() for m in masks]


def test_inversion_limbs_match_packed_masks():
    # the 321-avoiders, and every word of S_n, whose reversal sets the last pair
    for n in range(1, 11):
        assert_limbs_match_masks(avoiders_321(n))
    for n in range(1, 7):
        assert_limbs_match_masks(np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8))
    # past one limb: n = 12, 13 and 20 take 66, 78 and 190 pairs, so 2, 2 and 3 limbs
    rng = random.Random(12)
    for n in (12, 13, 20):
        words = [list(range(n, 0, -1))] + [rng.sample(range(1, n + 1), n) for _ in range(50)]
        assert_limbs_match_masks(np.array(words, dtype=np.int8))


def test_enumeration_ignores_pattern_order_and_repeats():
    a = AVOIDED_PATTERNS["A"]
    assert enumerate_avoiders(6, a[::-1]) == enumerate_avoiders(6, a)
    assert enumerate_avoiders(6, [P((3, 2, 1))] * 2) == enumerate_avoiders(6, [P((3, 2, 1))])


# the families' two sets; the empty set, whose class is all of S_n; 21 and
# 12, whose class is one word, and 1, whose is empty; a pattern of length 4;
# and sets that neither family uses
PATTERN_SETS = [
    [],
    [(3, 2, 1)],
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)],
    [(2, 3, 1)],
    [(1, 3, 2, 4)],
    [(2, 1)],
    [(1,)],
    [(2, 3, 1), (3, 1, 2)],
    [(1, 2)],
]


def permutation_filter(n, pat_words):
    """All of S_n as an array, less the words that _contains_rows finds holding a pattern."""
    words = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
    hit = np.zeros(len(words), dtype=bool)
    for pw in pat_words:
        hit |= _contains_rows(words, pw)
    return words[~hit]


@pytest.mark.parametrize("pat_words", PATTERN_SETS, ids=lambda ws: ",".join(map(format_word, ws)))
def test_enumerate_avoiders_matches_the_permutation_filter(pat_words):
    pats = [P(w) for w in pat_words]
    for n in range(1, 9):
        got = [p.word for p in enumerate_avoiders(n, pats)]
        assert got == [tuple(w) for w in permutation_filter(n, pat_words).tolist()], n
        if n <= 6:
            perms = map(P, itertools.permutations(range(1, n + 1)))
            assert got == [p.word for p in perms if not any(contains_pattern(p, t) for t in pats)], n


def test_avoider_words_hold_degrees_past_127():
    # the class of 21 is the identity alone, and int8 would wrap at 128
    words = _avoider_words(130, [(2, 1)])
    assert words.tolist() == [list(range(1, 131))]


def test_enumerate_avoiders_rejects_nonpositive_degree():
    for pats in ([], AVOIDED_PATTERNS["A"], AVOIDED_PATTERNS["B"]):
        with pytest.raises(ValueError):
            enumerate_avoiders(0, pats)
