"""Finite posets: construction, Mobius values, lattice promotion."""

import copy
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mobiuslat.poset as poset_module
from mobiuslat.families import _family_poset, build_family, weak_order_lattice
from mobiuslat.nbb import shuffled_order
from mobiuslat.poset import (
    CycleDetected,
    FinitePoset,
    NotALattice,
    NotComparable,
    as_lattice,
)


def chain(k):
    labels = [f"c{i}" for i in range(k)]
    return FinitePoset.from_covers(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def diamond():
    return FinitePoset.from_covers("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def m3():
    return FinitePoset.from_covers(
        "0abc1",
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def cube():
    # subsets of {x,y,z} by inclusion
    labels = ["", "x", "y", "z", "xy", "xz", "yz", "xyz"]
    covers = [
        (a, b)
        for a in labels
        for b in labels
        if len(b) == len(a) + 1 and set(a) <= set(b)
    ]
    return FinitePoset.from_covers(labels, covers)


def double_diamond():
    # a and b share the two minimal upper bounds c and d: not a lattice
    return FinitePoset.from_covers(
        "0abcd1",
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )


def interval(p, x, z):
    """The subposet {y : x <= y <= z}."""
    xi, zi = p._as_index(x), p._as_index(z)
    if not p.leq[xi, zi]:
        raise NotComparable(f"{p.labels[xi]} is not below {p.labels[zi]}")
    idx = np.nonzero(p.leq[xi] & p.leq[:, zi])[0]
    return FinitePoset([p.labels[i] for i in idx], p.leq[np.ix_(idx, idx)])


def interval_lattice(lat, x, z):
    """The interval [x, z] of a lattice as a lattice in its own right."""
    return as_lattice(interval(lat.poset, x, z))


def mobius_matrix(p):
    """Full matrix of mu(x, y), one recurrence row per x."""
    return np.array([p._mobius_from(xi) for xi in range(p.size)])


def random_bounded_poset(rng, inner, density):
    """A random order on `inner` elements between a bottom and a top, indices shuffled.

    Each pair i < j of the inner elements is related with the given
    probability, then closed transitively; labels are the unshuffled
    indices.
    """
    n = inner + 2
    leq = np.eye(n, dtype=bool)
    leq[0] = leq[:, -1] = True
    core = leq[1:-1, 1:-1]
    core |= np.triu(rng.random((inner, inner)) < density, 1)
    for k in range(inner):
        core |= np.outer(core[:, k], core[k])
    perm = rng.permutation(n)
    return FinitePoset([str(i) for i in perm], leq[np.ix_(perm, perm)])


def meet_table_or_message(p):
    """Oracle: the meet table by brute force from leq, or the NotALattice message.

    The lower bounds of x and y are the m below both, and their greatest is
    the one whose down-set holds them all, so the one with as many elements
    below it as x and y have common lower bounds.  Without a meet somewhere
    the message names the pair whose later element comes earliest in the
    stable down-set-size order, then the earliest partner in that order.
    """
    leq = p.leq
    n = p.size
    as_float = leq.astype(np.float64)
    common = as_float.T @ as_float  # the number of lower bounds of each pair, exactly
    down = leq.sum(axis=0)
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        ms = np.flatnonzero(leq[:, x])
        greatest = leq[ms] & (down[ms, None] == common[x])
        table[x] = np.where(greatest.any(axis=0), ms[greatest.argmax(axis=0)], -1)
    ext = np.argsort(down, kind="stable")
    missing = np.tril(table[np.ix_(ext, ext)] < 0, -1)
    if missing.any():
        i = int(missing.any(axis=1).argmax())
        x, y = ext[i], ext[int(missing[i].argmax())]
        return f"no unique lower bound for {p.labels[x]!r}, {p.labels[y]!r}"
    return table


def test_from_covers_chain():
    p = chain(4)
    assert p.leq[p.index("c0"), p.index("c3")]
    assert not p.leq[p.index("c3"), p.index("c0")]
    assert p.covers() == [(0, 1), (1, 2), (2, 3)]


def test_from_covers_single_element():
    p = FinitePoset.from_covers(["only"], [])
    assert p.size == 1
    assert p.leq[0, 0]
    assert p.covers() == []


def test_from_covers_detects_cycle():
    with pytest.raises(CycleDetected):
        FinitePoset.from_covers("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        FinitePoset.from_covers("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(CycleDetected):
        FinitePoset.from_covers("a", [("a", "a")])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        FinitePoset.from_covers("aa", [])


def test_matrix_constructor_validates():
    ok = np.eye(2, dtype=bool)
    FinitePoset("ab", ok)
    bad_reflexive = np.zeros((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="^order relation is not reflexive$"):
        FinitePoset("ab", bad_reflexive)
    bad_antisym = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="^order relation is not antisymmetric$"):
        FinitePoset("ab", bad_antisym)
    # a < b < a and b < c without a < c: antisymmetry is reported first
    both = np.eye(3, dtype=bool)
    both[0, 1] = both[1, 0] = both[1, 2] = True
    with pytest.raises(ValueError, match="^order relation is not antisymmetric$"):
        FinitePoset("abc", both)
    # a two-cycle past the first byte and word of the packed rows
    far = np.eye(70, dtype=bool)
    far[3, 68] = far[68, 3] = True
    with pytest.raises(ValueError, match="^order relation is not antisymmetric$"):
        FinitePoset([str(i) for i in range(70)], far)
    bad_transitive = np.eye(3, dtype=bool)
    bad_transitive[0, 1] = bad_transitive[1, 2] = True
    with pytest.raises(ValueError, match="^order relation is not transitive$"):
        FinitePoset("abc", bad_transitive)


def test_constructor_leaves_the_callers_array_writable():
    a = np.eye(2, dtype=bool)
    p = FinitePoset("ab", a)
    a[0, 1] = True  # raised "assignment destination is read-only" once
    for leq in (p.leq, p.dual().leq):
        assert not leq.flags.writeable
        with pytest.raises(ValueError):
            leq[1, 0] = True


def test_cover_pairs_sorted_by_upper_then_lower_on_poset_and_dual():
    # the linear extension's covers sort `_covers` by upper end with a stable
    # sort, so within each upper end the lower ends must already ascend; the
    # dual holds the poset's two edge arrays swapped, and must too
    for p in (cube(), weak_order_lattice(4).poset):
        for q in (p, p.dual()):
            lo, hi = q._covers
            by_hi = np.argsort(hi, kind="stable")
            expected = np.nonzero(dense_hasse(q.leq)[0].T)  # column-major: sorted by hi, then lo
            assert list(zip(hi[by_hi].tolist(), lo[by_hi].tolist())) == list(
                zip(*(a.tolist() for a in expected))
            )


def dense_hasse(leq):
    """Oracle: covers and transitivity verdict from a dense boolean product."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    s = strict.astype(np.int64)
    through = (s @ s) > 0
    return strict & ~through, not (through & ~strict).any()


def dag_closure(n, density, seed):
    """Reflexive-transitive closure of a random DAG, with shuffled indices."""
    rng = np.random.default_rng(seed)
    leq = np.triu(rng.random((n, n)) < density, 1) | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall
        leq |= leq[:, [k]] & leq[[k], :]
    perm = rng.permutation(n)
    return leq[np.ix_(perm, perm)]


def assert_packed_matches_dense(leq):
    labels = [str(i) for i in range(len(leq))]
    covers, transitive = dense_hasse(leq)
    assert transitive
    p = FinitePoset(labels, leq)
    # np.nonzero reads row-major, so the oracle's pairs come sorted by (lo, hi)
    assert p.covers() == list(zip(*(a.tolist() for a in np.nonzero(covers))))
    assert p.dual().covers() == list(zip(*(a.tolist() for a in np.nonzero(covers.T))))
    # drop one implied (non-cover) pair: the order is no longer transitive
    implied = np.argwhere(leq & ~covers & ~np.eye(len(leq), dtype=bool))
    if len(implied):
        x, z = implied[len(implied) // 2]
        broken = leq.copy()
        broken[x, z] = False
        assert not dense_hasse(broken)[1]
        with pytest.raises(ValueError, match="^order relation is not transitive$"):
            FinitePoset(labels, broken)


@pytest.mark.parametrize("chunk", [1, 7, poset_module._PAIR_CHUNK])
@given(
    n=st.integers(1, 90),
    density=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_packed_hasse_matches_dense_product(chunk, n, density, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poset_module, "_PAIR_CHUNK", chunk)
        assert_packed_matches_dense(dag_closure(n, density, seed))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_packed_hasse_across_word_and_byte_boundaries(n):
    # sizes on either side of the packed rows' byte and 64-bit word ends; a
    # 5-pair chunk is smaller than most rows of the chain
    chain_order = np.triu(np.ones((n, n), dtype=bool))
    for chunk in (5, poset_module._PAIR_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poset_module, "_PAIR_CHUNK", chunk)
            assert_packed_matches_dense(chain_order)
            assert_packed_matches_dense(np.eye(n, dtype=bool))
            assert_packed_matches_dense(dag_closure(n, 0.05, n))


@pytest.mark.parametrize("family,n,bound", [("B", 8, 1.0), ("B", 9, 0.5)])
def test_validation_allocates_well_under_one_order_matrix(family, n, bound):
    # validation packs the rows of leq itself, and the covers are an edge
    # list: a strict copy or a cover matrix would take N^2 bytes each
    poset = build_family(family, n).lattice.poset
    tracemalloc.start()
    try:
        FinitePoset(poset.labels, poset.leq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * poset.size**2


def ndarrays(value):
    """Every ndarray in an attribute value, looking inside tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from ndarrays(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from ndarrays(v)


@pytest.mark.parametrize("family,n", [("B", 8), ("C", 16)])
def test_the_order_matrix_is_the_only_square_array(family, n):
    # uncached: a table another test built would sit in the shared poset's store
    poset = build_family.__wrapped__(family, n).lattice.poset
    for p in (poset, poset.dual()):
        square = [name for name, value in vars(p).items() for a in ndarrays(value) if a.size >= p.size**2]
        assert square == ["leq"]


def test_covers_of_diamond():
    p = diamond()
    got = {(p.labels[lo], p.labels[hi]) for lo, hi in p.covers()}
    assert got == {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}


def test_covers_regenerate_the_order():
    for p in (cube(), weak_order_lattice(4).poset):
        pairs = [(p.labels[lo], p.labels[hi]) for lo, hi in p.covers()]
        again = FinitePoset.from_covers(p.labels, pairs)
        assert np.array_equal(again.leq, p.leq)


def test_dual_transposes():
    p = diamond()
    d = p.dual()
    assert np.array_equal(d.leq, p.leq.T)
    assert np.array_equal(d.dual().leq, p.leq)
    got = {(d.labels[lo], d.labels[hi]) for lo, hi in d.covers()}
    assert got == {("a", "0"), ("b", "0"), ("1", "a"), ("1", "b")}


def test_dual_reuses_the_hasse_diagram(monkeypatch):
    p = cube()

    def refuse(m):
        raise AssertionError("the dual must not recompute its Hasse diagram")

    monkeypatch.setattr(poset_module, "_packed_through", refuse)
    d = p.dual()
    assert d.covers() == sorted((hi, lo) for lo, hi in p.covers())
    lat = as_lattice(p)
    assert lat.dual().atoms() == lat.coatoms()


def test_dual_mobius_after_primal_queries():
    # a Mobius cache shared with the dual would hand back the primal rows
    for p in (cube(), chain(4), weak_order_lattice(4).poset):
        p.mobius(0, p.size - 1)
        assert np.array_equal(mobius_matrix(p.dual()), mobius_matrix(p).T)


def test_interval():
    p = cube()
    q = interval(p, "x", "xyz")
    assert set(q.labels) == {"x", "xy", "xz", "xyz"}
    with pytest.raises(NotComparable):
        interval(p, "x", "yz")


def test_mobius_basics():
    p = chain(5)
    assert p.mobius("c2", "c2") == 1
    assert p.mobius("c1", "c2") == -1
    assert p.mobius("c0", "c2") == 0
    assert p.mobius("c0", "c4") == 0
    with pytest.raises(NotComparable):
        p.mobius("c3", "c1")


def test_mobius_known_lattices():
    assert diamond().mobius("0", "1") == 1
    assert m3().mobius("0", "1") == 2
    assert cube().mobius("", "xyz") == -1
    assert cube().mobius("x", "xyz") == 1


def test_mobius_matrix_inverts_zeta():
    for p in (diamond(), m3(), cube(), weak_order_lattice(4).poset,
              build_family("B", 5).lattice.poset, build_family("C", 6).lattice.poset):
        zeta = p.leq.astype(np.int64)
        mu = mobius_matrix(p)
        assert np.array_equal(zeta @ mu, np.eye(p.size, dtype=np.int64))
        assert np.array_equal(mu @ zeta, np.eye(p.size, dtype=np.int64))


def test_mobius_bottom_row_sums():
    # partial sums of mu(bottom, -) vanish on every proper down-set
    lat = build_family("B", 7).lattice
    p = lat.poset
    mu0 = np.array([p.mobius(lat.bottom, z) if p.leq[lat.bottom, z] else 0 for z in range(p.size)])
    sums = mu0 @ p.leq.astype(np.int64)
    want = np.zeros(p.size, dtype=np.int64)
    want[lat.bottom] = 1
    assert np.array_equal(sums, want)


def test_mobius_dual_route_large():
    # on a ~1400-element lattice, one dual-order pass gives mu(y, top) for
    # every y; spot sources recompute the same values by primal recursions
    # that share no state with it
    import random

    lat = build_family("B", 8).lattice
    p = lat.poset
    mu_up = p.dual()._mobius_from(lat.top)
    assert mu_up[lat.bottom] == lat.mobius_number()
    rng = random.Random(88)
    sources = {lat.bottom, lat.top} | {rng.randrange(p.size) for _ in range(40)}
    for y in sources:
        assert int(mu_up[y]) == p.mobius(y, lat.top)


def dense_mobius_from(p, xi):
    """The recurrence over every z in [x, y], one strided column per y."""
    above = p.leq[xi]
    mu = np.zeros(p.size, dtype=np.int64)
    for y in np.argsort(p.leq.sum(axis=0), kind="stable"):
        if above[y]:
            mu[y] = (1 if y == xi else 0) - int(mu[p.leq[:, y] & above].sum())
    return mu


@pytest.mark.parametrize("family,n", [("B", 8), ("A", 10), ("C", 12)])
def test_support_recurrence_matches_dense_oracle(family, n):
    import random

    lat = build_family(family, n).lattice
    rng = random.Random(f"{family}{n}")
    for p in (lat.poset, lat.poset.dual()):
        fresh = FinitePoset(p.labels, p.leq)  # an empty Mobius cache
        sources = {lat.bottom, lat.top} | {rng.randrange(p.size) for _ in range(12)}
        for xi in sorted(sources):
            assert np.array_equal(fresh._mobius_from(xi), dense_mobius_from(p, xi))


def loop_mobius_from(p, xi):
    """The recurrence one element at a time along the extension, over mu(x, .)'s support."""
    ext = np.argsort(p.leq.sum(axis=0), kind="stable")
    ys = ext[p.leq[xi, ext]].tolist()
    mu = np.zeros(p.size, dtype=np.int64)
    support, vals = [], []
    for y in ys:
        value = (1 if y == xi else 0) - sum(v for z, v in zip(support, vals) if p.leq[z, y])
        if value:
            mu[y] = value
            support.append(y)
            vals.append(value)
    return mu


def random_poset(rng, k, density):
    """A random order on k elements, indices shuffled, with any number of minima and maxima."""
    leq = np.eye(k, dtype=bool) | np.triu(rng.random((k, k)) < density, 1)
    for j in range(k):
        leq |= np.outer(leq[:, j], leq[j])
    perm = rng.permutation(k)
    return FinitePoset([str(i) for i in perm], leq[np.ix_(perm, perm)])


@pytest.mark.parametrize("chunk", [1, 5, 1 << 18])
def test_runwise_recurrence_matches_the_element_loop(monkeypatch, chunk):
    # from every element, on A, B and C, on random posets with and without
    # bounds, and on each dual; chunks of a few entries split the runs
    monkeypatch.setattr(poset_module, "_MU_CHUNK", chunk)
    posets = [build_family(f, n).lattice.poset for f, n in (("A", 7), ("B", 6), ("C", 8))]
    rng = np.random.default_rng(chunk)
    posets += [random_poset(rng, int(rng.integers(1, 16)), rng.uniform(0.05, 0.6)) for _ in range(20)]
    posets += [random_bounded_poset(rng, int(rng.integers(0, 14)), rng.uniform(0.05, 0.6)) for _ in range(20)]
    for p in posets:
        fresh = FinitePoset(p.labels, p.leq)  # an empty Mobius cache
        for q in (fresh, fresh.dual()):
            for xi in range(q.size):
                assert q._mobius_from(xi).tolist() == loop_mobius_from(q, xi).tolist(), (p.labels, xi)


@pytest.mark.parametrize("family,n", [("B", 8), ("C", 12)])
def test_mobius_sweep_through_the_kept_extension_matches_an_empty_store(family, n):
    # 200 seeded sources on each orientation read the extension and runs the
    # store keeps for it; a copy whose store starts empty builds them again
    lat = build_family(family, n).lattice
    rng = np.random.default_rng(n)
    for p in (lat.poset, lat.poset.dual()):
        for xi in rng.integers(0, p.size, 200).tolist():
            uncached = copy.copy(p)
            uncached._store = {}
            column = uncached._mobius_from(xi)
            assert np.array_equal(p._mobius_from(xi), column), (family, xi)
            z = int(rng.choice(np.flatnonzero(p.leq[xi])))
            assert p.mobius(xi, z) == column[z]


def test_mobius_of_dual_is_transpose():
    for p in (diamond(), m3(), cube()):
        assert np.array_equal(mobius_matrix(p.dual()), mobius_matrix(p).T)


def brute_meet_join(p):
    """Meet and join by scanning the order matrix; None when not unique."""
    n = p.size
    leq = p.leq
    meets = [[None] * n for _ in range(n)]
    joins = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lbs = [m for m in range(n) if leq[m, x] and leq[m, y]]
            best = [m for m in lbs if all(leq[o, m] for o in lbs)]
            meets[x][y] = best[0] if len(best) == 1 else None
            ubs = [m for m in range(n) if leq[x, m] and leq[y, m]]
            best = [m for m in ubs if all(leq[m, o] for o in ubs)]
            joins[x][y] = best[0] if len(best) == 1 else None
    return meets, joins


def test_lattice_tables_match_brute_force():
    for poset in (m3(), cube(), weak_order_lattice(4).poset,
                  build_family("C", 5).lattice.poset, build_family("B", 4).lattice.poset):
        lat = as_lattice(poset)
        meets, joins = brute_meet_join(poset)
        for x in range(poset.size):
            for y in range(poset.size):
                assert lat.meet(x, y) == meets[x][y]
                assert lat.join(x, y) == joins[x][y]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_tables_match_bound_search_on_weak_order_intervals(data):
    big = weak_order_lattice(5)
    x = data.draw(st.integers(0, big.size - 1), label="x")
    above = np.flatnonzero(big.poset.leq[x])
    z = int(above[data.draw(st.integers(0, len(above) - 1), label="z")])
    sub = interval(big.poset, x, z)
    # shuffle the element indices so the linear extension is far from sorted
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(sub.size)
    p = FinitePoset([sub.labels[i] for i in perm], sub.leq[np.ix_(perm, perm)])
    lat = as_lattice(p)
    meets, joins = brute_meet_join(p)
    assert lat.meet_table.dtype == lat.join_table.dtype == np.int16
    assert lat.meet_table.tolist() == meets
    assert lat.join_table.tolist() == joins


def test_lattice_connecting_laws():
    lat = as_lattice(cube())
    for x in range(lat.size):
        for y in range(lat.size):
            assert (lat.meet(x, y) == x) == lat.leq(x, y)
            assert (lat.join(x, y) == y) == lat.leq(x, y)


def test_as_lattice_rejects_missing_bounds():
    two = FinitePoset("ab", np.eye(2, dtype=bool))
    with pytest.raises(NotALattice):
        as_lattice(two)
    vee = FinitePoset.from_covers("0ab", [("0", "a"), ("0", "b")])
    with pytest.raises(NotALattice):
        as_lattice(vee)


def test_as_lattice_rejects_double_diamond_with_witness():
    # the witness is the first bad element in linear-extension order
    with pytest.raises(NotALattice, match="^no unique lower bound for 'd', 'c'$"):
        as_lattice(double_diamond())


@given(seed=st.integers(0, 2**32 - 1), inner=st.integers(0, 13), density=st.floats(0.05, 0.7))
@example(seed=0, inner=8, density=0.3)  # a lattice
@example(seed=7, inner=8, density=0.3)  # not a lattice
@example(seed=76, inner=8, density=0.3)  # the partner by extension position, not by index
@settings(max_examples=150, deadline=None)
def test_lattice_check_matches_meet_table(seed, inner, density):
    # on each orientation the irreducible check, and the kernel with every
    # element as a target, pass exactly when the brute-force table completes,
    # and give its columns; with every element a target the kernel fails
    # with the oracle's witness, and so does as_lattice
    p = random_bounded_poset(np.random.default_rng(seed), inner, density)
    for side in (p, p.dual()):
        table = meet_table_or_message(side)
        upper = [lo for lo, _ in side.covers()]
        irreducible = np.array([x for x in range(side.size) if upper.count(x) == 1], dtype=np.intp)
        for targets in (irreducible, np.arange(side.size)):
            if isinstance(table, str):
                with pytest.raises(NotALattice) as failed:
                    poset_module._meets_with(side, targets)
                if len(targets) == side.size:
                    assert str(failed.value) == table
            else:
                cols = poset_module._meets_with(side, targets)
                assert np.array_equal(poset_module._by_index(side, cols), table[:, targets])
        try:
            as_lattice(side)
            verdict = None
        except NotALattice as exc:
            verdict = str(exc)
        assert verdict == (table if isinstance(table, str) else None)


def oracle_meets_with(poset, targets):
    """The meet kernel with no entry left untested: the oracle for `_meets_with`.

    Every candidate c ^ t, equal to its row's latest or not and whether or
    not x <= t, is looked up in `leq` against the latest, each row's latest
    comes from `np.maximum.reduceat` over its own lower covers, unpadded,
    and the rows x <= t are gathered as `leq[np.ix_(ext, targets)]`.  It
    takes the runs of the extension uncut, so `_RUN_CHUNK` leaves it alone.
    """
    n, width = poset.size, len(targets)
    ext, pos, lo, first, runs = poset_module._extension_covers(poset)
    edges, runs = first.tolist(), runs[1:].tolist()
    dtype = np.int16 if n < 1 << 15 else np.int32
    under = poset.leq[np.ix_(ext, targets)]
    at = pos[targets]
    cols = np.zeros((n, width), dtype=dtype)
    witness = None
    for s, e in zip(runs, runs[1:]):
        cands = cols[lo[edges[s] : edges[e]]]
        starts = first[s:e] - edges[s]
        best = np.maximum.reduceat(cands, starts, axis=0)
        spread = np.repeat(best, np.diff(first[s : e + 1]), axis=0)
        below = poset.leq[ext[cands], ext[spread]]
        bad = ~(np.logical_and.reduceat(below, starts, axis=0) | under[s:e])
        if bad.any():
            rows, hit = np.nonzero(bad)
            rows, hit = rows + s, at[hit]
            i = int(np.argmin((hit > rows) * n * n + rows * n + hit))
            early = hit[i] < rows[i]
            if early or witness is None:
                witness = ext[rows[i]], ext[hit[i]]
            if early:
                break
        cols[s:e] = np.where(under[s:e], np.arange(s, e, dtype=dtype)[:, None], best)
    if witness is not None:
        x, y = witness
        raise NotALattice(f"no unique lower bound for {poset.labels[x]!r}, {poset.labels[y]!r}")
    return cols


def kernel_or_message(kernel, poset, targets):
    try:
        return kernel(poset, targets)
    except NotALattice as exc:
        return str(exc)


def kernel_cases(p):
    """(poset, targets) pairs on p and its dual: the check side, the atom joins, every element."""
    for q in (p, p.dual()):
        yield poset_module._check_side(q)
        yield q.dual(), np.flatnonzero(q._down_sizes == 2)  # x v a over the atoms a of q
        yield q, np.arange(q.size)


def assert_kernel_matches_oracle(monkeypatch, posets):
    for p in posets:
        for q, targets in kernel_cases(p):
            expect = kernel_or_message(oracle_meets_with, q, targets)
            for chunk in (1, 7, 1 << 16):
                monkeypatch.setattr(poset_module, "_RUN_CHUNK", chunk)
                got = kernel_or_message(poset_module._meets_with, q, targets)
                if isinstance(expect, str):
                    assert isinstance(got, str) and got == expect, (p.labels, chunk)
                else:
                    assert np.array_equal(got, expect), (p.labels, chunk)


def test_meet_kernel_matches_the_oracle_on_the_families(monkeypatch):
    posets = [build_family(f, n).lattice.poset for f in "ABC" for n in range(1, 9)]
    assert_kernel_matches_oracle(monkeypatch, posets)


def test_meet_kernel_matches_the_oracle_on_random_bounded_posets(monkeypatch):
    rng = np.random.default_rng(20)
    posets = [random_bounded_poset(rng, int(rng.integers(0, 16)), rng.uniform(0.05, 0.6)) for _ in range(150)]
    verdicts = [isinstance(kernel_or_message(oracle_meets_with, p, np.arange(p.size)), str) for p in posets]
    assert 20 <= sum(verdicts) <= 130  # lattices and non-lattices both
    assert_kernel_matches_oracle(monkeypatch, posets)


def test_meet_kernel_stays_under_the_dense_estimate_at_b9():
    # the order matrix is held while the check runs, so the kernel has what
    # cli's dense estimate at B9 allows past it
    from mobiuslat import cli

    poset = build_family("B", 9).lattice.poset
    side, targets = poset_module._check_side(FinitePoset(poset.labels, poset.leq))
    count = cli._element_count("B", 9)
    assert side.size == count and len(targets) <= 2**9
    tracemalloc.start()
    try:
        poset_module._meets_with(side, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cli._dense_estimate("B", 9, 9) - count * count


def test_check_that_flags_only_later_targets_still_fails():
    # x and m share the lower bounds p and q.  The check meets with m, u and
    # v, and every pair it flags, (x, m), (m, u) and (m, v), has its target
    # after its row, so only the end of the run can fail it
    p = FinitePoset.from_covers(
        "0pqxmuv1",
        [("0", "p"), ("0", "q"), ("p", "x"), ("q", "x"), ("p", "m"), ("q", "m"),
         ("x", "u"), ("x", "v"), ("u", "1"), ("v", "1"), ("m", "1")],
    )
    checked, targets = poset_module._check_side(p)
    assert checked is p and [p.labels[t] for t in targets] == ["m", "u", "v"]
    with pytest.raises(NotALattice, match="^no unique lower bound for 'x', 'm'$"):
        poset_module._meets_with(checked, targets)
    assert meet_table_or_message(p) == "no unique lower bound for 'm', 'x'"
    with pytest.raises(NotALattice, match="^no unique lower bound for 'm', 'x'$"):
        as_lattice(p)


def test_a_join_the_atom_kernel_misses_is_named_a_missing_upper_bound():
    # C at n=6 without the cover 11211 < 111111 in its edge list passes the
    # check, but the kernel, which walks the covers, misses 111111 ^ 11211.
    # The meet table names a missing lower bound of C; the atom joins of the
    # dual, whose joins are C's meets, name a missing upper bound of the dual
    poset = _family_poset("C", 6)[0]
    lo, hi = poset._covers
    keep = (lo != poset.index("11211")) | (hi != poset.index("111111"))
    poset._covers = (lo[keep], hi[keep])
    lattice = as_lattice(poset)
    with pytest.raises(NotALattice, match="^no unique upper bound for '111111', '11211'$"):
        lattice.dual().atom_join_columns()
    with pytest.raises(NotALattice, match="^no unique lower bound for '111111', '11211'$"):
        lattice.meet_table


def test_lattice_check_examples_are_a_lattice_and_not_one():
    # the explicit examples above cover both verdicts, whatever hypothesis draws
    posets = [random_bounded_poset(np.random.default_rng(seed), 8, 0.3) for seed in (0, 7)]
    assert [isinstance(meet_table_or_message(p), str) for p in posets] == [False, True]


def twin_of_a_join(p):
    """p plus a copy of its first element below the top with two lower covers.

    The copy has the same strict down-set and up-set as the original, so
    the two have no meet.
    """
    lo, hi = np.array(p.covers()).T
    lower, upper = np.bincount(hi, minlength=p.size), np.bincount(lo, minlength=p.size)
    e = int(np.flatnonzero((lower >= 2) & (upper > 0))[0])
    leq = np.zeros((p.size + 1,) * 2, dtype=bool)
    leq[:-1, :-1] = p.leq
    leq[-1, :-1], leq[:-1, -1] = p.leq[e], p.leq[:, e]
    leq[-1, e] = leq[e, -1] = False
    leq[-1, -1] = True
    return FinitePoset(p.labels + ("twin",), leq)


@pytest.mark.parametrize("family,n,side", [("B", 8, "join"), ("C", 16, "meet")])
def test_as_lattice_rejects_a_twin_with_the_meet_table_witness(family, n, side):
    p = twin_of_a_join(build_family(family, n).lattice.poset)
    checked, targets = poset_module._check_side(p)
    assert (checked is p) == (side == "meet")
    with pytest.raises(NotALattice):
        poset_module._meets_with(checked, targets)
    witness = meet_table_or_message(p)
    assert isinstance(witness, str)
    with pytest.raises(NotALattice, match=f"^{re.escape(witness)}$"):
        as_lattice(p)


def test_as_lattice_never_returns_on_a_failed_check(monkeypatch):
    # the check fails, then the run with every element as a target finds no pair
    calls = []

    def check_fails_first(poset, targets):
        calls.append(len(targets))
        if len(calls) == 1:
            raise NotALattice("the check failed")
        return np.zeros((poset.size, len(targets)), dtype=np.int16)

    monkeypatch.setattr(poset_module, "_meets_with", check_fails_first)
    with pytest.raises(RuntimeError):
        as_lattice(cube())
    assert calls == [3, 8]


def test_as_lattice_checks_without_relabeling(monkeypatch):
    # the check reads the kernel's verdict only: its columns stay in
    # extension positions, and no table is mapped back to element indices
    monkeypatch.setattr(poset_module, "_by_index", lambda *args: pytest.fail("relabeled"))
    for family in "ABC":
        p = build_family(family, 6).lattice.poset
        lattice = as_lattice(FinitePoset(p.labels, p.leq))
        assert lattice.leq(lattice.bottom, lattice.top)
        assert not [key for key in lattice.poset._store if key[1] in ("meet", "atom joins", "atoms")]


def test_as_lattice_accepts_weak_orders():
    for n in range(1, 6):
        lat = weak_order_lattice(n)
        assert lat.size == len(list(itertools.permutations(range(n))))
        assert lat.leq(lat.bottom, lat.top)


def test_atoms_of_two_chain():
    lat = as_lattice(chain(2))
    assert lat.atoms() == [lat.top]
    assert lat.coatoms() == [lat.bottom]


def test_bounds_and_atoms():
    lat = as_lattice(cube())
    assert lat.labels[lat.bottom] == ""
    assert lat.labels[lat.top] == "xyz"
    assert sorted(lat.labels[a] for a in lat.atoms()) == ["x", "y", "z"]
    assert sorted(lat.labels[c] for c in lat.coatoms()) == ["xy", "xz", "yz"]
    assert lat.mobius_number() == -1


def test_meet_of_join_of():
    lat = as_lattice(cube())
    idx = lat.poset.index
    assert lat.meet_of([idx("xy"), idx("xz"), idx("yz")]) == idx("")
    assert lat.join_of([idx("x"), idx("y")]) == idx("xy")
    assert lat.meet_of([]) == lat.top
    assert lat.join_of([]) == lat.bottom


def test_lattice_dual_swaps_structure():
    lat = as_lattice(m3())
    d = lat.dual()
    assert d.bottom == lat.top and d.top == lat.bottom
    assert d.meet("a", "b") == lat.join("a", "b")
    assert d.join("a", "b") == lat.meet("a", "b")
    assert d.mobius_number() == lat.mobius_number() == 2
    assert sorted(d.atoms()) == sorted(lat.coatoms())


def test_join_table_is_built_on_demand_and_shared_with_the_dual():
    from mobiuslat import families
    from mobiuslat.nbb import mobius_via_nbb

    # a dense B6 of its own: the recurrence and the NBB count need no table
    fam = families.build_family.__wrapped__("B", 6)
    fam.lattice.mobius_number()
    mobius_via_nbb(fam.canonical_order)
    assert not [key for key in fam.lattice.poset._store if key[1] == "meet"]
    small = as_lattice(cube())
    assert small.dual().join_table is small.meet_table
    assert small.join_table is small.dual().meet_table
    assert small.dual().dual().join_table is small.join_table


def test_meet_table_is_built_on_demand():
    from mobiuslat import families
    from mobiuslat.nbb import mobius_via_nbb, nbb_bases_of

    fam = families.build_family.__wrapped__("C", 16)
    nbb_bases_of(fam.canonical_order, fam.nbb_target)
    rng = random.Random(16)
    for _ in range(5):
        mobius_via_nbb(shuffled_order(fam.nbb_lattice, rng))
    fam.lattice.mobius_number()
    store = fam.lattice.poset._store
    assert not [key for key in store if key[1] == "meet"]
    assert fam.lattice.meet_table is fam.lattice.dual().join_table
    assert (0, "meet") in store and (1, "meet") not in store


def test_shuffled_orders_leave_atoms_sorted():
    # shuffled_order shuffles the list atoms() returns, so it must be a copy
    import random

    lat = as_lattice(cube())
    atoms = lat.atoms()
    rng = random.Random(3)
    shuffled_order(lat, rng)
    shuffled_order(lat, rng)
    assert lat.atoms() == atoms == sorted(atoms)


def test_atoms_are_kept_per_orientation_and_returned_as_new_lists():
    lat = as_lattice(cube())
    atoms = lat.atoms()
    atoms.reverse()
    atoms.append(lat.top)
    assert lat.atoms() == [1, 2, 3] and lat.atoms() is not lat.atoms()
    assert lat.poset._store[(0, "atoms")] == (1, 2, 3)
    coatoms = lat.dual().atoms()
    coatoms.clear()
    assert lat.dual().atoms() == lat.coatoms() == [4, 5, 6]
    assert lat.poset._store[(1, "atoms")] == (4, 5, 6)


def test_interval_lattice():
    lat = weak_order_lattice(4)
    sub = interval_lattice(lat, lat.bottom, lat.poset.index("3214"))
    assert sub.labels[sub.bottom] == "1234"
    assert sub.labels[sub.top] == "3214"
    assert sub.mobius_number() == lat.poset.mobius(lat.bottom, lat.poset.index("3214"))


def test_to_dot_structure():
    p = diamond()
    dot = p.to_dot()
    assert dot.startswith("digraph hasse {")
    assert dot.rstrip().endswith("}")
    assert '  "0" -> "a";' in dot
    assert dot.count("->") == 4


def test_to_dot_escapes_quotes():
    p = FinitePoset.from_covers(['a"b', "c"], [('a"b', "c")])
    dot = p.to_dot()
    assert '"a\\"b"' in dot


def test_to_json_dict():
    p = diamond()
    d = p.to_json_dict()
    assert d["elements"] == ["0", "a", "b", "1"]
    assert ["0", "a"] in d["covers"]
    assert len(d["covers"]) == 4
