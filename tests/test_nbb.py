"""NBB atom sets and Mobius numbers, checked against the raw definition."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobiuslat.nbb as nbb_module
from mobiuslat.families import _MaskView, build_family, weak_order_lattice
from mobiuslat.nbb import (
    AtomOrder,
    EmptyAtomSet,
    NbbBase,
    is_bounded_below,
    mobius_via_nbb,
    nbb_bases_of,
    shuffled_order,
)
from mobiuslat.permutation import _from_rows, _rows
from mobiuslat.poset import FinitePoset, as_lattice
from test_poset import interval_lattice, meet_table_or_message


def m3_lattice():
    p = FinitePoset.from_covers(
        "0abc1",
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    return as_lattice(p)


def diamond_lattice():
    p = FinitePoset.from_covers("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    return as_lattice(p)


def two_chain():
    return as_lattice(FinitePoset.from_covers("01", [("0", "1")]))


def set_partitions(ground):
    if not ground:
        yield []
        return
    first, rest = ground[0], ground[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def partition_lattice(k):
    """Partitions of {1..k} ordered by refinement; 15 elements at k=4."""
    parts = [sorted(sorted(b) for b in p) for p in set_partitions(list(range(1, k + 1)))]
    labels = ["|".join("".join(map(str, b)) for b in p) for p in parts]
    block_of = []
    for p in parts:
        lookup = {}
        for b in p:
            for v in b:
                lookup[v] = frozenset(b)
        block_of.append(lookup)
    n = len(parts)
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            leq[i, j] = all(
                block_of[i][v] <= block_of[j][v] for v in range(1, k + 1)
            )
    return as_lattice(FinitePoset(labels, leq))


def order_by_labels(lat, labs):
    return AtomOrder(lat, tuple(lat.poset.index(x) for x in labs))


# -- raw-definition oracle, no shortcuts ---------------------------------


def raw_is_bb(order, subset):
    """Every member has a strictly earlier atom strictly below the join."""
    lat = order.lattice
    j = lat.join_of(subset)
    for d in subset:
        witnesses = [
            a
            for a in order.sequence
            if order.position(a) < order.position(d) and a != j and lat.leq(a, j)
        ]
        if not witnesses:
            return False
    return True


def is_nbb(order, atoms):
    """No nonempty subset is bounded below, by trying every subset."""
    atoms = list(atoms)
    return not any(
        is_bounded_below(order, sub)
        for r in range(1, len(atoms) + 1)
        for sub in itertools.combinations(atoms, r)
    )


def raw_nbb_bases(order):
    out = set()
    atoms = list(order.sequence)
    for r in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, r):
            has_bb = any(
                raw_is_bb(order, sub)
                for k in range(1, r + 1)
                for sub in itertools.combinations(combo, k)
            )
            if not has_bb:
                out.add((frozenset(combo), order.lattice.join_of(combo)))
    return out


# -- examples -------------------------------------------------------------


def test_atom_order_validates():
    lat = m3_lattice()
    with pytest.raises(ValueError):
        AtomOrder(lat, (1, 2))
    with pytest.raises(ValueError):
        AtomOrder(lat, (1, 1, 2))
    with pytest.raises(ValueError):
        AtomOrder(lat, (0, 1, 2))


def test_bounded_below_examples():
    lat = m3_lattice()
    order = order_by_labels(lat, "abc")
    assert not is_bounded_below(order, ["a"])
    assert not is_bounded_below(order, ["a", "b"])
    assert is_bounded_below(order, ["b", "c"])
    # earliest member never has a witness, so the full set is not BB
    # even though it contains the BB subset {b, c}
    assert not is_bounded_below(order, ["a", "b", "c"])
    with pytest.raises(EmptyAtomSet):
        is_bounded_below(order, [])
    with pytest.raises(ValueError):
        is_bounded_below(order, ["0"])


def test_nbb_examples():
    lat = m3_lattice()
    order = order_by_labels(lat, "abc")
    assert is_nbb(order, ["a"])
    assert is_nbb(order, ["a", "b"])
    assert is_nbb(order, ["a", "c"])
    assert not is_nbb(order, ["b", "c"])
    assert not is_nbb(order, ["a", "b", "c"])


def test_nbb_bases_of_m3():
    lat = m3_lattice()
    order = order_by_labels(lat, "abc")
    bases = nbb_bases_of(order, "1")
    got = {frozenset(lat.labels[a] for a in b.atoms) for b in bases}
    assert got == {frozenset("ab"), frozenset("ac")}
    assert mobius_via_nbb(order) == 2 == lat.mobius_number()


def test_nbb_base_atom_listing_respects_order():
    lat = m3_lattice()
    order = order_by_labels(lat, "cba")
    for base in nbb_bases_of(order, "1"):
        positions = [order.position(a) for a in base.atoms]
        assert positions == sorted(positions)


def test_listing_comes_in_preorder_by_position():
    # the order a depth-first search growing sets by position finds them in
    lat = partition_lattice(4)
    order = shuffled_order(lat, random.Random(4))
    labels = [lat.labels[a] for a in order.sequence]
    assert labels == ["1|23|4", "1|2|34", "1|24|3", "12|3|4", "14|2|3", "13|2|4"]
    top = [[order.position(a) for a in b.atoms] for b in nbb_bases_of(order, "1234")]
    assert top == [[0, 1, 3], [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 2, 5]]
    assert [[order.position(a) for a in b.atoms] for b in nbb_bases_of(order, "1|234")] == [[0, 1], [0, 2]]
    for x in range(lat.size):
        listed = [tuple(order.position(a) for a in b.atoms) for b in nbb_bases_of(order, x)]
        assert listed == sorted(listed)


def test_two_chain():
    lat = two_chain()
    order = AtomOrder(lat, tuple(lat.atoms()))
    assert mobius_via_nbb(order) == -1 == lat.mobius_number()


def test_diamond():
    lat = diamond_lattice()
    order = order_by_labels(lat, "ab")
    bases = nbb_bases_of(order, "1")
    assert [set(b.atoms) for b in bases] == [
        {lat.poset.index("a"), lat.poset.index("b")}
    ]
    assert mobius_via_nbb(order) == 1


def test_trivial_lattice_rejected():
    single = as_lattice(FinitePoset.from_covers(["x"], []))
    order = AtomOrder(single, ())
    with pytest.raises(ValueError):
        mobius_via_nbb(order)


# -- equivalence with the raw definition ----------------------------------


def equivalence_case(lat, order):
    engine = set()
    for x in range(lat.size):
        for b in nbb_bases_of(order, x):
            engine.add((frozenset(b.atoms), b.joins_to))
    assert engine == raw_nbb_bases(order)


def signed(sizes):
    return sum(-1 if k % 2 else 1 for k in sizes)


def signed_count_case(order):
    lat = order.lattice
    via_bases = signed(len(b.atoms) for b in nbb_bases_of(order, lat.top))
    via_raw = signed(len(atoms) for atoms, x in raw_nbb_bases(order) if x == lat.top)
    assert mobius_via_nbb(order) == via_bases == via_raw == lat.mobius_number()
    column_case(order)


def listed_column(order):
    """Signed count of the listed NBB sets per join, the empty set included."""
    col = np.zeros(order.lattice.size, dtype=np.int64)
    for x, sets in nbb_module._nbb_sets(order).items():
        col[x] = signed(len(ps) for ps in sets)
    return col


def column_case(order):
    # the prepended-minimum sum against the listing and the recurrence
    lat = order.lattice
    column = nbb_module._mobius_column(order)
    assert column.tolist() == listed_column(order).tolist()
    assert column.tolist() == lat.poset._mobius_from(lat.bottom).tolist()
    if lat.size > 1:
        assert mobius_via_nbb(order) == column[lat.top]


def test_engine_matches_raw_definition():
    cases = [
        m3_lattice(),
        diamond_lattice(),
        partition_lattice(4),
        weak_order_lattice(4),
        build_family("B", 5).lattice,
        build_family("C", 6).lattice.dual(),
        build_family("A", 5).lattice,
    ]
    rng = random.Random(20260814)
    for lat in cases:
        equivalence_case(lat, AtomOrder(lat, tuple(lat.atoms())))
        equivalence_case(lat, shuffled_order(lat, rng))


def test_is_bb_matches_raw_on_all_subsets():
    lat = build_family("B", 5).lattice
    order = shuffled_order(lat, random.Random(7))
    atoms = list(order.sequence)
    for r in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, r):
            assert is_bounded_below(order, combo) == raw_is_bb(order, combo)
            raw_nbb = not any(
                raw_is_bb(order, sub)
                for k in range(1, r + 1)
                for sub in itertools.combinations(combo, k)
            )
            assert is_nbb(order, combo) == raw_nbb


def test_partition_lattice_mobius():
    lat = partition_lattice(4)
    assert lat.mobius_number() == -6
    rng = random.Random(1)
    for _ in range(5):
        assert mobius_via_nbb(shuffled_order(lat, rng)) == -6


def test_per_element_mobius_identity():
    # signed base count at x equals mu(bottom, x), element by element;
    # the empty set counts once for the bottom itself
    for lat in (m3_lattice(), partition_lattice(4), weak_order_lattice(4), two_chain()):
        order = AtomOrder(lat, tuple(lat.atoms()))
        column = nbb_module._mobius_column(order)
        for x in range(lat.size):
            signed = sum((-1) ** len(b.atoms) for b in nbb_bases_of(order, x))
            if x == lat.bottom:
                signed += 1
            assert signed == lat.poset.mobius(lat.bottom, x) == column[x]


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_mobius_column_on_families(family):
    # both orientations, the canonical order and two shuffles of each
    rng = random.Random(f"column:{family}")
    for n in range(1, 9):
        fam = build_family(family, n)
        column_case(fam.canonical_order)
        for lat in (fam.lattice, fam.lattice.dual()):
            column_case(AtomOrder(lat, tuple(lat.atoms())))
            for _ in range(2):
                column_case(shuffled_order(lat, rng))


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_stacked_search_rows_are_the_single_order_columns(family):
    # T orders in one search: row t of the column is order t's own column,
    # on the lattice NBB runs on and on its dual, one to five orders
    rng = random.Random(f"stacked:{family}")
    for n in range(1, 8):
        fam = build_family(family, n)
        for lat in (fam.nbb_lattice, fam.nbb_lattice.dual()):
            sequences = [fam.canonical_order.sequence] if lat is fam.nbb_lattice else []
            sequences += [shuffled_order(lat, rng).sequence for _ in range(1 + n % 4)]
            view = nbb_module._Search(lat, sequences)
            assert view.bottom.tolist() == [t * lat.size + lat.bottom for t in range(len(sequences))]
            stacked = nbb_module._mobius_column(view).reshape(len(sequences), lat.size)
            for t, seq in enumerate(sequences):
                single = nbb_module._mobius_column(AtomOrder(lat, seq))
                assert stacked[t].tolist() == single.tolist(), (n, t, seq)


def mask_view_column(fam, order):
    """The mask view's column under a dense order of B's atoms, moved to dense indices."""
    lattice, n = fam.lattice, fam.n
    swaps = [fam.elements[a] for a in order.sequence]
    sequence = [next(i for i in range(1, n) if w(i) > w(i + 1)) for w in swaps if w is not None]
    view = _MaskView(n, sequence)
    column = nbb_module._mobius_column(view)
    out = np.zeros(lattice.size, dtype=np.int64)
    for i, mask in enumerate(view.masks):
        out[lattice.top if mask is None else lattice.poset.index(str(_from_rows(_rows(n, mask))))] = column[i]
    return out


def test_mask_view_column_matches_the_dense_column():
    # family B without N x N arrays: canonical order and three shuffles per size
    rng = random.Random("mask view")
    for n in range(1, 10):
        fam = build_family("B", n)
        orders = [fam.canonical_order] + [shuffled_order(fam.lattice, rng) for _ in range(3)]
        for order in orders:
            dense = nbb_module._mobius_column(order)
            assert mask_view_column(fam, order).tolist() == dense.tolist(), (n, order.sequence)


def test_order_independence_exhaustive():
    # the signed count of top's bases and of the raw NBB sets agree too
    for lat in (m3_lattice(), weak_order_lattice(3), weak_order_lattice(4)):
        for seq in itertools.permutations(lat.atoms()):
            signed_count_case(AtomOrder(lat, seq))


def test_dual_run_gives_same_mobius():
    # coatom-side computation: same engine on the reversed lattice
    for fam, n in (("B", 5), ("C", 5), ("A", 5)):
        lat = build_family(fam, n).lattice
        want = lat.mobius_number()
        rng = random.Random(f"{fam}{n}")
        assert mobius_via_nbb(shuffled_order(lat, rng)) == want
        assert mobius_via_nbb(shuffled_order(lat.dual(), rng)) == want


def test_random_intervals_of_s5():
    lat = weak_order_lattice(5)
    p = lat.poset
    rng = random.Random(55)
    done = 0
    while done < 100:
        x = rng.randrange(p.size)
        z = rng.randrange(p.size)
        if x == z or not p.leq[x, z]:
            continue
        sub = interval_lattice(lat, x, z)
        order = shuffled_order(sub, rng)
        assert mobius_via_nbb(order) == p.mobius(x, z)
        done += 1


SHUFFLED = {
    "partition-4": partition_lattice(4),
    "B5": build_family("B", 5).lattice,
    "C6-dual": build_family("C", 6).lattice.dual(),
}


@given(st.sampled_from(sorted(SHUFFLED)).flatmap(
    lambda name: st.tuples(st.just(name), st.permutations(SHUFFLED[name].atoms()))
))
@settings(max_examples=30, deadline=None)
def test_signed_count_on_drawn_orders(case):
    name, seq = case
    signed_count_case(AtomOrder(SHUFFLED[name], tuple(seq)))


def wide_lattice(k):
    """k pairwise incomparable atoms; the last three also lie below e."""
    labels = ["0"] + [f"a{i}" for i in range(k)] + ["e", "1"]
    n = len(labels)
    leq = np.eye(n, dtype=bool)
    leq[0] = True
    leq[:, n - 1] = True
    leq[k - 2 : k + 1, n - 2] = True
    return as_lattice(FinitePoset(labels, leq))


def test_seventy_atoms_stay_exact():
    # in the canonical order {a68, a69} is BB only through a67, whose
    # position, 67, is past what an int64 below-mask can hold
    lat = wide_lattice(70)
    e = lat.poset.index("e")
    assert lat.poset.mobius(lat.bottom, e) == 2
    assert lat.mobius_number() == 67
    canonical = AtomOrder(lat, tuple(lat.atoms()))
    # 70 singletons, the 69 pairs and 2 triples holding a0, and 2 pairs
    # below e
    found = [b.atoms for x in range(lat.size) for b in nbb_bases_of(canonical, x)]
    assert len(found) == 143
    assert all(is_nbb(canonical, atoms) for atoms in found)
    bases = [[lat.labels[a] for a in b.atoms] for b in nbb_bases_of(canonical, e)]
    assert bases == [["a67", "a68"], ["a67", "a69"]]
    assert mobius_via_nbb(canonical) == 67
    assert mobius_via_nbb(shuffled_order(lat, random.Random(70))) == 67
    column_case(canonical)
    column_case(shuffled_order(lat, random.Random(71)))


# -- atom join columns against the join table and the brute force ------------


def assert_atom_columns_match_join_table(lat):
    # the columns and the join table run the same meet kernel on the dual, so
    # the brute-force table over upper bounds, which shares none of it, is
    # the oracle for both
    for side in (lat, lat.dual()):
        cols = side.atom_join_columns()
        brute = meet_table_or_message(side.poset.dual())
        assert cols.shape == (len(side.atoms()), side.size)
        assert np.array_equal(cols, brute[:, side.atoms()].T)
        assert np.array_equal(side.join_table, brute)


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_atom_join_columns_match_join_table_on_families(family):
    for n in range(1, 9):
        assert_atom_columns_match_join_table(build_family(family, n).lattice)


def test_atom_join_columns_match_join_table_elsewhere():
    lattices = [
        m3_lattice(),
        diamond_lattice(),
        two_chain(),
        as_lattice(FinitePoset.from_covers(["x"], [])),
        partition_lattice(4),
        weak_order_lattice(4),
        wide_lattice(70),
    ]
    for lat in lattices:
        assert_atom_columns_match_join_table(lat)
