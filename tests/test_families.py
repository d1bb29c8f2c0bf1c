"""The three lattice families, their maps, and the claim suite."""

import functools
import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobiuslat.families as families
from mobiuslat.families import (
    AVOIDED_PATTERNS,
    BOTTOM_LABEL,
    CLAIMS,
    TOP_LABEL,
    ClaimResult,
    FamilyLattice,
    NotACompositionWord,
    NotAnAvoider,
    build_family,
    composition_words,
    mobius_summary,
    phi,
    predicted_nbb_bases,
    psi,
    sparse_signed_sum,
    theta,
    theta_meet,
    verify_all,
    verify_structure,
    weak_order_lattice,
    word_label,
)
from mobiuslat.families import (
    _chained,
    _chained_inversion_disagreement,
    _closure_failures,
    _containment_order,
    _cover_words,
    _family_poset,
    _join_swap,
    _mobius_by_rank,
    _pack,
    _word_labels,
)
from mobiuslat.nbb import shuffled_order
from mobiuslat.permutation import (
    Permutation,
    _avoider_words,
    _contains_rows,
    _from_rows,
    _rows,
    avoiders_321,
    contains_pattern,
    enumerate_avoiders,
    format_word,
    inversion_limbs,
    inversion_mask,
    inversion_set,
    weak_join,
    weak_leq,
)
from mobiuslat.poset import FinitePoset
from test_permutation import lower_covers, permutation_filter, upper_covers


def labels_of(fam):
    return set(fam.lattice.labels)


def test_composition_words_counts():
    # compositions of n into parts 1 and 2: Fibonacci growth
    assert [len(composition_words(n)) for n in range(1, 9)] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert composition_words(3) == [(1, 1, 1), (1, 2), (2, 1)]
    assert composition_words(1) == [(1,)]
    with pytest.raises(ValueError):
        composition_words(0)


def composition_words_by_sorting(n):
    """Every 1/2 composition of n by plain recursion, then sorted: the oracle."""
    def rec(m):
        if m == 0:
            return [()]
        out = [(1,) + w for w in rec(m - 1)]
        if m >= 2:
            out += [(2,) + w for w in rec(m - 2)]
        return out

    return sorted(rec(n))


def split_mask(word):
    """Bit s-1 set for each partial sum s of a composition word, short of n."""
    return sum(1 << (total - 1) for total in itertools.accumulate(word[:-1]))


@pytest.mark.parametrize("n", range(1, 21))
def test_compositions_come_from_the_recurrence_in_order(n):
    # words, labels and split masks in one pass over the Fibonacci recurrence
    words, labels, masks = families._compositions(n)
    assert composition_words(n) == words == composition_words_by_sorting(n)
    assert labels == [word_label(w) for w in words]
    assert masks == [split_mask(w) for w in words]


def test_word_label():
    assert word_label((2, 1, 1)) == "211"
    assert word_label((1,)) == "1"


def test_family_a_small_elements():
    fam = build_family("A", 3)
    assert labels_of(fam) == {BOTTOM_LABEL, "231", "312", "321"}
    assert fam.adjoined == BOTTOM_LABEL
    assert fam.lattice.labels[fam.lattice.bottom] == BOTTOM_LABEL
    assert fam.lattice.labels[fam.lattice.top] == "321"


def test_family_a_degenerate():
    fam = build_family("A", 1)
    assert labels_of(fam) == {BOTTOM_LABEL, "1"}
    assert fam.lattice.mobius_number() == -1


def test_family_b_small_elements():
    fam = build_family("B", 3)
    assert labels_of(fam) == {"123", "132", "213", "231", "312", TOP_LABEL}
    assert fam.adjoined == TOP_LABEL
    assert fam.lattice.labels[fam.lattice.top] == TOP_LABEL
    assert fam.lattice.labels[fam.lattice.bottom] == "123"
    # 321 is exactly the element removed from S_3
    assert "321" not in labels_of(fam)


def test_family_b2():
    fam = build_family("B", 2)
    assert labels_of(fam) == {"12", "21", TOP_LABEL}
    assert fam.lattice.mobius_number() == 0


def test_family_c_small_elements():
    fam = build_family("C", 3)
    assert labels_of(fam) == {BOTTOM_LABEL, "111", "12", "21"}
    covers = {
        (fam.lattice.labels[lo], fam.lattice.labels[hi])
        for lo, hi in fam.lattice.poset.covers()
    }
    assert covers == {
        (BOTTOM_LABEL, "12"),
        (BOTTOM_LABEL, "21"),
        ("12", "111"),
        ("21", "111"),
    }


def test_family_c4_structure():
    fam = build_family("C", 4)
    lat = fam.lattice
    assert labels_of(fam) == {BOTTOM_LABEL, "1111", "112", "121", "211", "22"}
    covers = {(lat.labels[lo], lat.labels[hi]) for lo, hi in lat.poset.covers()}
    assert covers == {
        (BOTTOM_LABEL, "22"),
        (BOTTOM_LABEL, "121"),
        ("22", "112"),
        ("22", "211"),
        ("112", "1111"),
        ("121", "1111"),
        ("211", "1111"),
    }
    assert sorted(lat.labels[a] for a in lat.atoms()) == ["121", "22"]
    assert sorted(lat.labels[c] for c in lat.coatoms()) == ["112", "121", "211"]


def family_c_from_covers(n):
    """Family C from its definition: the bottom lies under every word with no
    adjacent 1,1, and splitting one 2 of a word into 1,1 gives a word above it."""
    words = composition_words(n)
    covers = []
    for w in words:
        if all(w[i : i + 2] != (1, 1) for i in range(len(w) - 1)):
            covers.append((BOTTOM_LABEL, word_label(w)))
        for i, part in enumerate(w):
            if part == 2:
                covers.append((word_label(w), word_label(w[:i] + (1, 1) + w[i + 1 :])))
    return FinitePoset.from_covers([BOTTOM_LABEL] + [word_label(w) for w in words], covers)


def family_b_from_covers(n):
    """Family B from its definition: the weak-order covers among the
    321-avoiders of S_n, and the top above each avoider none of them covers."""
    members = [p for p in map(Permutation, itertools.permutations(range(1, n + 1)))
               if not contains_pattern(p, Permutation((3, 2, 1)))]
    kept = set(members)
    covers = []
    for p in members:
        above = [q for q in upper_covers(p) if q in kept]
        covers += [(str(p), str(q)) for q in above] or [(str(p), TOP_LABEL)]
    return FinitePoset.from_covers([str(p) for p in members] + [TOP_LABEL], covers)


@pytest.mark.parametrize("n", range(1, 8))
def test_family_b_masks_match_the_cover_definition(n):
    oracle = family_b_from_covers(n)
    fam = build_family("B", n)
    assert fam.lattice.poset.labels == oracle.labels
    assert np.array_equal(fam.lattice.poset.leq, oracle.leq)
    assert [str(p) for p in fam.elements[:-1]] == list(oracle.labels[:-1])


@pytest.mark.parametrize("n", range(1, 13))
def test_family_c_partial_sums_match_the_cover_definition(n):
    oracle = family_c_from_covers(n)
    poset = build_family("C", n).lattice.poset
    assert poset.labels == oracle.labels
    assert np.array_equal(poset.leq, oracle.leq)
    assert poset.covers() == oracle.covers()


@pytest.mark.parametrize("chunk", [1, 7, families._ORDER_CHUNK])
@given(nbits=st.integers(1, 130), data=st.data())
@settings(max_examples=40, deadline=None)
def test_containment_order_matches_subset_test(chunk, nbits, data):
    # widths up to 130 bits cross two 64-bit limb boundaries; meets and joins
    # of neighbouring draws make sure some pairs are contained, and flipping
    # one bit makes pairs that differ in a single limb
    drawn = data.draw(st.lists(st.integers(0, (1 << nbits) - 1), min_size=1, max_size=30))
    bit = data.draw(st.sampled_from([0, nbits - 1, data.draw(st.integers(0, nbits - 1))]))
    pairs = list(zip(drawn, drawn[1:]))
    masks = drawn + [a & b for a, b in pairs] + [a | b for a, b in pairs]
    masks += [a ^ (1 << bit) for a in drawn]
    k = len(masks)
    expect = np.array([[a & ~b == 0 for b in masks] for a in masks], dtype=bool)
    # written into the corner of a larger matrix, as under an adjoined bound
    border = data.draw(st.booleans())
    bordered = np.full((k + 1, k + 1), border)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_ORDER_CHUNK", chunk)
        _containment_order(_pack(masks), bordered[1:, 1:])
    assert np.array_equal(bordered[1:, 1:], expect)
    assert (bordered[0] == border).all() and (bordered[:, 0] == border).all()


@pytest.mark.parametrize("nbits", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100])
def test_containment_order_narrows_one_limb_and_matches_the_uint64_fill(monkeypatch, nbits):
    # one-limb masks go to the narrowest unsigned type that holds the widest;
    # the matrix is the uint64 fill's, and two limbs (100 bits) stay uint64
    rng = random.Random(nbits)
    drawn = [rng.getrandbits(nbits) for _ in range(40)] + [1 << (nbits - 1), (1 << nbits) - 1, 0]
    masks = drawn + [a & b for a, b in zip(drawn, drawn[1:])] + [a | b for a, b in zip(drawn, drawn[1:])]
    packed = _pack(masks)
    seen = []
    real = families._subsets

    def recording(a, not_b, out=None):
        seen.append((a.dtype, not_b.dtype))
        return real(a, not_b, out=out)

    monkeypatch.setattr(families, "_subsets", recording)
    order = np.empty((len(masks),) * 2, dtype=bool)
    _containment_order(packed, order)
    assert np.array_equal(order, real(packed, ~packed))
    dtype = np.dtype(next((t for t in (np.uint8, np.uint16, np.uint32) if np.iinfo(t).bits >= nbits), np.uint64))
    assert set(seen) == {(dtype, dtype)}
    assert packed.shape[1] == (2 if nbits > 64 else 1)


def test_family_element_counts():
    # avoiding 123, 132 and 213 leaves Fibonacci many permutations
    a_counts = [build_family("A", n).lattice.size - 1 for n in range(1, 8)]
    assert a_counts == [1, 2, 3, 5, 8, 13, 21]
    # avoiding 321 leaves Catalan many
    b_counts = [build_family("B", n).lattice.size - 1 for n in range(1, 7)]
    assert b_counts == [1, 2, 5, 14, 42, 132]
    c_counts = [build_family("C", n).lattice.size - 1 for n in range(1, 8)]
    assert c_counts == a_counts


def test_build_family_rejects_bad_input():
    with pytest.raises(ValueError):
        build_family("D", 3)
    with pytest.raises(ValueError):
        build_family("A", 0)


def test_family_caching():
    assert build_family("C", 3) is build_family("C", 3)


def test_avoided_patterns():
    assert {p.word for p in AVOIDED_PATTERNS["A"]} == {(1, 2, 3), (1, 3, 2), (2, 1, 3)}
    assert {p.word for p in AVOIDED_PATTERNS["B"]} == {(3, 2, 1)}


def test_phi_examples():
    assert str(phi(3, (2, 1))) == "231"
    assert str(phi(2, (2,))) == "12"
    assert str(phi(3, (1, 1, 1))) == "321"
    assert str(phi(5, (2, 1, 2))) == "45312"
    assert phi(3, BOTTOM_LABEL) == BOTTOM_LABEL


def test_phi_rejects_bad_words():
    with pytest.raises(NotACompositionWord):
        phi(3, (3,))
    with pytest.raises(NotACompositionWord):
        phi(3, (1, 1))
    with pytest.raises(NotACompositionWord):
        phi(3, ())


def test_psi_examples():
    assert psi(3, Permutation((3, 1, 2))) == (1, 2)
    assert psi(2, Permutation((2, 1))) == (1, 1)
    assert psi(3, BOTTOM_LABEL) == BOTTOM_LABEL


def test_psi_rejects_non_avoiders():
    with pytest.raises(NotAnAvoider):
        psi(3, Permutation((1, 2, 3)))
    with pytest.raises(NotAnAvoider):
        psi(3, Permutation((2, 1, 3)))
    with pytest.raises(NotAnAvoider):
        psi(4, Permutation((3, 1, 2)))


def test_phi_psi_round_trip():
    for n in range(1, 8):
        for w in composition_words(n):
            assert psi(n, phi(n, w)) == w
        for p in enumerate_avoiders(n, list(AVOIDED_PATTERNS["A"])):
            assert phi(n, psi(n, p)) == p


def test_phi_image_is_the_avoider_family():
    for n in range(1, 8):
        image = {phi(n, w) for w in composition_words(n)}
        assert image == set(enumerate_avoiders(n, list(AVOIDED_PATTERNS["A"])))


def test_phi_preserves_order_small():
    fam = build_family("C", 5)
    lat = fam.lattice
    words = [w for w in fam.elements if w is not None]
    for u, v in itertools.product(words, repeat=2):
        cu, cv = word_label(u), word_label(v)
        assert lat.leq(cu, cv) == weak_leq(phi(5, u), phi(5, v))


def test_theta_examples():
    assert theta(5, 1) == (2, 1, 1, 1)
    assert theta(3, 2) == (1, 2)
    assert theta(2, 1) == (2,)
    with pytest.raises(ValueError):
        theta(3, 3)
    with pytest.raises(ValueError):
        theta(3, 0)
    with pytest.raises(ValueError):
        theta(1, 1)


def test_coatoms_are_theta_words_in_chain_order():
    for n in range(2, 8):
        fam = build_family("C", n)
        lat = fam.lattice
        assert sorted(lat.labels[c] for c in lat.coatoms()) == sorted(
            word_label(theta(n, i)) for i in range(1, n)
        )
        seq = [lat.labels[a] for a in fam.canonical_order.sequence]
        assert seq == [word_label(theta(n, i)) for i in range(1, n)]


def test_atoms_of_b_are_adjacent_transpositions():
    for n in range(2, 7):
        fam = build_family("B", n)
        lat = fam.lattice
        want = {str(Permutation(tuple(
            list(range(1, i)) + [i + 1, i] + list(range(i + 2, n + 1))
        ))) for i in range(1, n)}
        assert {lat.labels[a] for a in lat.atoms()} == want


def test_theta_meet_spread_formula():
    assert theta_meet(5, [1, 3]) == "221"
    assert theta_meet(5, [1]) == "2111"
    assert theta_meet(6, [1, 3, 5]) == "222"
    assert theta_meet(7, [2, 5]) == "12121"


def test_theta_meet_adjacent_collapses():
    assert theta_meet(4, [1, 2]) == BOTTOM_LABEL
    assert theta_meet(5, [2, 3]) == BOTTOM_LABEL


def test_theta_meet_builds_no_lattice(monkeypatch):
    # C20 is past the default budget, and the closed formula needs none of it
    monkeypatch.setattr(families, "build_family", lambda *args: pytest.fail("lattice built"))
    assert theta_meet(20, (1, 2)) == BOTTOM_LABEL
    assert theta_meet(20, (1, 3, 19)) == "22111111111111112"


def test_theta_meet_bad_indices():
    with pytest.raises(ValueError):
        theta_meet(4, [])
    with pytest.raises(ValueError):
        theta_meet(4, [2, 1])
    with pytest.raises(ValueError):
        theta_meet(4, [1, 4])
    with pytest.raises(ValueError):
        theta_meet(4, [1, 1])


def test_theta_meet_matches_table_everywhere():
    for n in range(2, 8):
        fam = build_family("C", n)
        lat = fam.lattice
        for r in range(1, n):
            for idx in itertools.combinations(range(1, n), r):
                members = [lat.poset.index(word_label(theta(n, i))) for i in idx]
                want = lat.labels[lat.meet_of(members)]
                assert theta_meet(n, idx) == want


def test_predicted_nbb_bases_examples():
    assert predicted_nbb_bases("C", 3) == [("21", "12")]
    assert predicted_nbb_bases("B", 4) == [("2134", "1324")]
    assert predicted_nbb_bases("C", 5) == [
        ("2111", "1211"),
        ("2111", "1211", "1112"),
    ]
    assert predicted_nbb_bases("A", 3) == [("231", "312")]


def test_predicted_nbb_bases_name_each_canonical_coatom_once(monkeypatch):
    # 1597 bases of up to 10 coatoms each, from the 18 coatoms of A19
    calls = []
    monkeypatch.setattr(families, "phi", lambda n, word: calls.append(word) or phi(n, word))
    assert len(predicted_nbb_bases("A", 19)) == 1597
    assert len(calls) <= 18


def test_predicted_nbb_bases_rejects():
    with pytest.raises(ValueError):
        predicted_nbb_bases("B", 2)
    with pytest.raises(ValueError):
        predicted_nbb_bases("X", 4)


def test_sparse_signed_sum_sequence():
    assert [sparse_signed_sum(n) for n in range(3, 10)] == [1, 1, 0, -1, -1, 0, 1]
    with pytest.raises(ValueError):
        sparse_signed_sum(2)


def test_nbb_targets():
    for family in "ABC":
        fam = build_family(family, 4)
        assert fam.nbb_lattice.labels[fam.nbb_target] == fam.adjoined


def registered(id, family):
    return next(c for c in CLAIMS if (c.id, c.family) == (id, family))


@pytest.mark.parametrize("entry", CLAIMS, ids=lambda c: f"{c.id}:{c.family}")
def test_claim_holds(entry):
    for n in entry.sizes(7):
        result = entry.run(n)
        assert result.passed, result


def test_registry_names_each_claim_once():
    keys = [(c.id, c.family) for c in CLAIMS]
    assert len(set(keys)) == len(keys)
    assert {c.family for c in CLAIMS} <= {"A", "B", "C", "-"}


def test_verify_counts_follow_the_registry():
    assert [len(verify_all(m)) for m in range(1, 10)] == [10, 20, 36, 52, 68, 84, 100, 116, 129]


def test_verify_structure_claim_ids():
    ids = {c.id for c in verify_structure(5)}
    assert ids == {
        "avoiders-upward-closed",
        "avoiders-downward-closed",
        "avoider-head-structure",
        "avoider-prefix-recurrence",
        "chained-inversion-characterization",
        "adjacent-swap-joins-escape",
        "spread-swap-joins-product",
        "coatom-meet-formula",
    }


def test_adjacent_swap_join_escapes_directly():
    s1 = Permutation((2, 1, 3))
    s2 = Permutation((1, 3, 2))
    assert weak_join(s1, s2) == Permutation((3, 2, 1))


def test_avoider_head_structure_directly():
    for n in range(2, 7):
        for p in enumerate_avoiders(n, list(AVOIDED_PATTERNS["A"])):
            w = p.word
            assert w[0] == n or (w[0], w[1]) == (n - 1, n)


def test_prefix_recurrence_at_n3():
    got = {p.word for p in enumerate_avoiders(3, list(AVOIDED_PATTERNS["A"]))}
    assert got == {(2, 3, 1), (3, 1, 2), (3, 2, 1)}


def test_mobius_summary_values():
    want = {3: 1, 4: 1, 5: 0, 6: -1, 7: -1}
    for n, value in want.items():
        row = mobius_summary(n)
        assert row["agree"], row
        assert set(row["oracle"].values()) == {value}
        assert set(row["nbb"].values()) == {value}
        assert row["sparse_sum"] == value
        assert row["fib_eval"] == value


def test_mobius_summary_small_n():
    row = mobius_summary(2)
    assert row["sparse_sum"] is None and row["fib_eval"] is None
    assert row["agree"]
    assert set(row["oracle"].values()) == {0}
    row1 = mobius_summary(1)
    assert set(row1["oracle"].values()) == {-1}


def test_mobius_summary_family_subset():
    row = mobius_summary(6, families=("B",))
    assert list(row["oracle"]) == ["B"]
    assert row["oracle"]["B"] == -1


def test_mobius_identity_compares_b_with_the_dense_recurrence(monkeypatch):
    # every route and closed form agrees; only the dense oracle for B is off
    summary = mobius_summary(5)
    dense_b = SimpleNamespace(lattice=SimpleNamespace(mobius_number=lambda: 7))
    monkeypatch.setattr(families, "mobius_summary", lambda n: summary)
    monkeypatch.setattr(families, "build_family", lambda family, n: dense_b)
    result = registered("mobius-identity", "-").run(5)
    assert summary["agree"] and not result.passed
    assert result.witness == f"{summary}; dense recurrence for B: 7"


def test_random_order_claim_names_the_first_disagreeing_shuffle(monkeypatch):
    # one row of the stacked column is off, shuffle 2's: the witness names
    # it with the sequence shuffled_order draws from the claim's generator
    true_column = families._mobius_column

    def corrupted(view):
        column = true_column(view).copy()
        column[3 * (len(column) // 21)] += 1  # order 3, after the canonical one
        return column

    monkeypatch.setattr(families, "_mobius_column", corrupted)
    lattice = build_family("C", 6).nbb_lattice
    rng = random.Random("0:C:6")
    sequences = [shuffled_order(lattice, rng).sequence for _ in range(3)]
    result = registered("nbb-order-independence", "C").run(6, seed=0)
    assert not result.passed
    assert result.witness == f"shuffle 2 of {list(sequences[2])} disagrees"


def test_verify_all_small():
    claims = verify_all(4, seed=0)
    assert all(c.passed for c in claims)
    ids = {c.id for c in claims}
    assert "mobius-identity" in ids
    assert "sparse-generating-function" in ids
    assert "sparse-sets-base-case" in ids
    assert "word-avoider-isomorphism" in ids
    d = claims[0].to_json_dict()
    assert {"claim", "family", "n", "pass"} <= set(d)
    failing = ClaimResult("x", "-", 1, False, "because")
    assert failing.to_json_dict()["witness"] == "because"


def test_verify_builds_no_meet_or_join_table():
    # the claims read meets and joins through atom columns only: C's coatom
    # meets are joins of the dual's atoms, B's swap joins are atom joins
    families.build_family.cache_clear()
    claims = verify_all(8, seed=0)
    assert all(c.passed for c in claims)
    cached = families.build_family.cache_info().currsize
    lattices = [build_family(family, n).lattice for family in "ABC" for n in range(1, 9)]
    assert families.build_family.cache_info().currsize == cached == len(lattices)
    assert not [key for lat in lattices for key in lat.poset._store if key[1] == "meet"]
    assert (1, "atom joins") in build_family("C", 8).lattice.poset._store


def test_long_labels_use_commas():
    fam = build_family("A", 10)
    assert any("," in lab for lab in fam.lattice.labels if lab != BOTTOM_LABEL)


def test_weak_order_lattice_sizes():
    assert weak_order_lattice(3).size == 6
    assert weak_order_lattice(4).size == 24
    assert weak_order_lattice(1).size == 1


def per_word_order(perms):
    """Containment of inversion masks taken one Permutation at a time."""
    leq = np.empty((len(perms), len(perms)), dtype=bool)
    _containment_order(_pack([inversion_mask(p) for p in perms]), leq)
    return leq


def test_word_array_builds_match_per_word_masks():
    # A and S_n pack their masks from word arrays; the per-word masks are the oracle
    for n in range(1, 10):
        poset, _, words = _family_poset("A", n)
        members = enumerate_avoiders(n, AVOIDED_PATTERNS["A"])
        assert words.tolist() == [list(p.word) for p in members]
        assert poset.labels == (BOTTOM_LABEL,) + tuple(str(p) for p in members)
        assert np.array_equal(poset.leq[1:, 1:], per_word_order(members)) and poset.leq[0].all()
    for n in range(1, 7):
        poset = weak_order_lattice(n).poset
        perms = enumerate_avoiders(n, [])
        assert poset.labels == tuple(str(p) for p in perms)
        assert np.array_equal(poset.leq, per_word_order(perms))


def test_chained_inversion_predicate_matches_per_word_loop():
    # _chained on one mask's rows as Python ints, as _join_swap calls it, and
    # on a whole array of words' rows at once, as the claim calls it
    for n in range(1, 8):
        words = list(itertools.permutations(range(1, n + 1)))
        packed = inversion_limbs(np.array(words, dtype=np.uint8).reshape(-1, n))
        on_arrays = _chained(_rows(n, packed[:, 0].view(np.int64)))
        for w, flag in zip(words, on_arrays.tolist()):
            inv = inversion_set(Permutation(w))
            expect = any(
                (i, j) in inv and (j, k) in inv
                for j in range(2, n)
                for i in range(1, j)
                for k in range(j + 1, n + 1)
            )
            assert _chained(_rows(n, inversion_mask(Permutation(w)))) is expect, w
            assert flag == expect, w


def test_chained_inversion_claim_reads_the_rows_of_each_inversion_mask(monkeypatch):
    # the rows the claim builds from the words are those that _rows decodes
    # from inversion_mask, past one 64-bit limb too; the n! words are
    # replaced by 200 random ones, as 12! would not fit
    seen, rng = [], np.random.default_rng(28)
    monkeypatch.setattr(families, "_chained", lambda rows: seen.append(rows) or _chained(rows))
    for n in (2, 5, 11, 12, 14):
        words = np.array([rng.permutation(n) + 1 for _ in range(200)], dtype=np.uint8)
        monkeypatch.setattr(families, "_avoider_words", lambda n, words=words: words)
        seen.clear()
        assert _chained_inversion_disagreement(n) == [], n
        (rows,) = seen
        rows = np.array([np.broadcast_to(row, len(words)) for row in rows]).T
        for row, w in zip(rows.tolist(), words.tolist()):
            assert row == _rows(n, inversion_mask(Permutation(tuple(w)))), w


def test_chained_inversion_claim_is_stitched_across_blocks(monkeypatch):
    # blocks of a few words each: every n! still agrees, and the first word
    # that disagrees is still the witness when it sits in a later block
    monkeypatch.setattr(families, "_ORDER_CHUNK", 40)
    for n in range(1, 8):
        assert _chained_inversion_disagreement(n) == [], n
    # 3412 and 3421 are the words of S_4 whose first entry beats only the
    # last two; 3412 avoids 321, and sits in the second block of ten
    monkeypatch.setattr(families, "_chained", lambda rows: _chained(rows) | (rows[0] == 0b110))
    assert _chained_inversion_disagreement(4) == ["3412: chained inversions disagree with containment"]


def test_chained_inversion_claim_can_fail(monkeypatch):
    monkeypatch.setattr(families, "_chained", lambda rows: False)
    claim = next(c for c in verify_structure(3) if c.id == "chained-inversion-characterization")
    assert not claim.passed
    assert claim.witness == "321: chained inversions disagree with containment"


def test_chained_inversion_claim_fails_when_containment_misses_an_avoider(monkeypatch):
    # containment reports 2413, which avoids 321, as holding one
    avoider = [2, 4, 1, 3]

    def misses_one(words, pat_word):
        found = _contains_rows(words, pat_word)
        if tuple(pat_word) == (3, 2, 1):
            found |= [w == avoider for w in words.tolist()]
        return found

    monkeypatch.setattr(families, "_contains_rows", misses_one)
    claim = next(c for c in verify_structure(4) if c.id == "chained-inversion-characterization")
    assert not claim.passed
    assert claim.witness == "2413: chained inversions disagree with containment"


def word_array(perms):
    return np.array([p.word for p in perms], dtype=np.int8)


def test_lex_permutations_match_itertools():
    # the avoiders of no pattern: all n! words, which the chained-inversion claim reads
    for n in range(1, 8):
        expect = list(itertools.permutations(range(1, n + 1)))
        got = _avoider_words(n)
        assert got.dtype == np.uint8 and got.shape == (len(expect), n)
        assert [tuple(w) for w in got.tolist()] == expect


def test_contains_rows_matches_contains_pattern():
    patterns = [Permutation(w) for k in range(1, 5) for w in itertools.permutations(range(1, k + 1))]
    for n in range(1, 7):
        perms = enumerate_avoiders(n, [])
        words = word_array(perms)
        for pat in patterns + [Permutation(tuple(range(n + 1, 0, -1)))]:
            got = _contains_rows(words, pat.word).tolist()
            assert got == [contains_pattern(p, pat) for p in perms], (n, pat)


def test_cover_words_match_upper_and_lower_covers():
    for n in range(1, 6):
        perms = enumerate_avoiders(n, [])
        for upward, oracle in ((True, upper_covers), (False, lower_covers)):
            covers, rows, ks = _cover_words(word_array(perms), upward)
            assert covers.dtype == np.int8 and len(covers) == len(rows) == len(ks)
            for i, p in enumerate(perms):
                mine = [Permutation(tuple(w)) for w in covers[rows == i].tolist()]
                assert mine == oracle(p), (p, upward)
                for q, k in zip(mine, ks[rows == i].tolist()):
                    assert {a for a, b in zip(p.word, q.word) if a != b} == {k, k + 1}


def closure_oracle(members, patterns, upward):
    """The closure claims' list comprehension, one contains_pattern call per cover."""
    avoids = lambda q: not any(contains_pattern(q, t) for t in patterns)
    if upward:
        return [f"{p} < {q} leaves the family" for p in members for q in upper_covers(p) if not avoids(q)]
    return [f"{q} < {p} leaves the family" for p in members for q in lower_covers(p) if not avoids(q)]


def test_closure_failures_match_the_list_comprehension():
    # A is closed upward and B downward; the other directions, other pattern
    # sets and random subsets are not, and fail in many places
    rng = np.random.default_rng(5)
    for n in (5, 6):
        every = enumerate_avoiders(n, [])
        subsets = [
            (enumerate_avoiders(n, AVOIDED_PATTERNS["A"]), AVOIDED_PATTERNS["A"]),
            (enumerate_avoiders(n, AVOIDED_PATTERNS["B"]), AVOIDED_PATTERNS["B"]),
            (enumerate_avoiders(n, [Permutation((2, 3, 1))]), (Permutation((2, 3, 1)),)),
            ([p for p, keep in zip(every, rng.random(len(every)) < 0.3) if keep], AVOIDED_PATTERNS["B"]),
            ([p for p, keep in zip(every, rng.random(len(every)) < 0.3) if keep], AVOIDED_PATTERNS["A"]),
        ]
        failing = 0
        for members, patterns in subsets:
            for upward in (True, False):
                expect = closure_oracle(members, patterns, upward)
                words = np.array([p.word for p in members], dtype=np.int8)
                assert _closure_failures(words, patterns, upward) == expect, (n, patterns, upward)
                failing += len(expect) > 1
        assert failing >= 6, n


def test_closure_failures_on_b_words_with_an_injected_non_avoider():
    # B's own word array is closed downward; a row 4321... put in its middle
    # is not, since its lower covers hold 321, and the failures name it as
    # the members' comprehension does
    for n in (4, 6):
        words = avoiders_321(n)
        bad = np.array([4, 3, 2, 1] + list(range(5, n + 1)), dtype=words.dtype)
        words = np.insert(words, len(words) // 2, bad, axis=0)
        members = [Permutation(tuple(w)) for w in words.tolist()]
        for upward in (True, False):
            expect = closure_oracle(members, AVOIDED_PATTERNS["B"], upward)
            assert _closure_failures(words, AVOIDED_PATTERNS["B"], upward) == expect, (n, upward)
        named = f"< {members[len(words) // 2]} leaves the family"
        assert len(expect) == 3 and all(line.endswith(named) for line in expect)


@pytest.mark.parametrize("n", range(1, 11))
def test_word_labels_are_format_word(n):
    # n = 10 is past the single digits, where format_word puts commas
    words = avoiders_321(n)
    assert _word_labels(words) == [format_word(w) for w in words.tolist()]
    assert _word_labels(words.astype(np.int64)) == _word_labels(words)


def test_elements_are_the_members_when_read():
    for n in range(1, 9):
        b = build_family.__wrapped__("B", n)
        assert "elements" not in vars(b)
        assert b.elements == tuple(Permutation(tuple(w)) for w in avoiders_321(n).tolist()) + (None,)
        assert b.lattice.labels == tuple(str(p) for p in b.elements[:-1]) + (TOP_LABEL,)
        a = build_family.__wrapped__("A", n)
        assert a.elements == (None,) + tuple(enumerate_avoiders(n, AVOIDED_PATTERNS["A"]))
        assert build_family.__wrapped__("C", n).elements == (None,) + tuple(composition_words(n))


def test_dense_b_builds_no_permutation(monkeypatch):
    made = []
    post_init = Permutation.__post_init__

    def counted(self):
        made.append(self.word)
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    build_family.__wrapped__("B", 9)
    assert made == []
    # verify on lattices of its own: it reads no B element, and the few
    # permutations its claims name are far fewer than B's members
    fresh = functools.lru_cache(maxsize=None)(build_family.__wrapped__)
    monkeypatch.setattr(families, "build_family", fresh)
    assert all(c.passed for c in verify_all(8))
    assert not [n for n in range(1, 9) if "elements" in vars(fresh("B", n))]
    assert sum(len(w) == 8 for w in made) < len(avoiders_321(8))


@pytest.mark.parametrize("family", ["A", "B"])
def test_family_order_matches_a_build_from_the_generic_search(monkeypatch, family):
    # the cached lattices are read before the patch, so none is built from it;
    # A's members come from enumerate_avoiders and B's from avoiders_321, and
    # the patch hands both the words of S_n that hold no pattern
    built = {n: build_family(family, n).lattice.poset for n in range(1, 9)}

    def generic(n, pats):
        return [Permutation(tuple(w)) for w in permutation_filter(n, [p.word for p in pats]).tolist()]

    monkeypatch.setattr(families, "enumerate_avoiders", generic)
    monkeypatch.setattr(families, "avoiders_321", lambda n: permutation_filter(n, [(3, 2, 1)]))
    for n, poset in built.items():
        oracle = _family_poset(family, n)[0]
        assert poset.labels == oracle.labels
        assert (poset.leq == oracle.leq).all(), (family, n)


# -- B without N x N arrays --------------------------------------------------


def mask_label(n, mask):
    return TOP_LABEL if mask is None else str(_from_rows(_rows(n, mask)))


def test_mask_joins_match_atom_join_columns():
    # x v s_i on inversion masks, at every element and atom of the dense lattice
    for n in range(1, 9):
        fam = build_family("B", n)
        lattice = fam.lattice
        cols = lattice.atom_join_columns()
        masks = [None if p is None else inversion_mask(p) for p in fam.elements]
        for row, atom in enumerate(lattice.atoms()):
            word = fam.elements[atom]
            i = None if word is None else next(d for d in range(1, n) if word(d) > word(d + 1))
            for x, mask in enumerate(masks):
                assert mask_label(n, _join_swap(n, mask, i)) == lattice.labels[cols[row, x]], (n, i, x)


def test_mask_recurrence_matches_the_dense_recurrence():
    for n in range(1, 10):
        lattice = build_family("B", n).lattice
        column = _mobius_by_rank(inversion_limbs(avoiders_321(n)))
        assert column.tolist() == lattice.poset._mobius_from(lattice.bottom).tolist(), n


def mobius_by_rank_of(masks):
    return _mobius_by_rank(_pack(masks))


def test_mask_recurrence_on_small_orders():
    # 0 < 1 < 3 < 7 < top: mu is 1, -1, 0, 0, 0; {0, 1, 2, 4} + top: 1, -1, -1, -1, 2
    assert mobius_by_rank_of([0, 1, 3, 7]).tolist() == [1, -1, 0, 0, 0]
    assert mobius_by_rank_of([4, 0, 2, 1]).tolist() == [-1, 1, -1, -1, 2]
    # a square whose second atom sits past the first 64-bit limb, and 3,
    # which holds the first atom but not the second
    wide = 1 << 70
    assert mobius_by_rank_of([wide | 1, wide, 0, 1, 3]).tolist() == [1, -1, 1, -1, 0, 0]
