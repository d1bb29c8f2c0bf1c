"""Fibonacci-style polynomials, sparse subsets, and their generating function."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobiuslat.fibpoly import IntPolynomial, fib_poly, h_poly, sparse_sets


def test_polynomial_normalizes_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert IntPolynomial(()).coeffs == ()


def test_polynomial_str():
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((5,))) == "5"
    assert str(IntPolynomial((1, 3, 1))) == "1 + 3*q + 1*q^2"
    assert str(IntPolynomial((0, 0, 2))) == "2*q^2"
    assert str(IntPolynomial((-1, 0, 4))) == "-1 + 4*q^2"


def test_polynomial_add_and_shift():
    a = IntPolynomial((1, 1))
    b = IntPolynomial((0, 2, 3))
    assert (a + b).coeffs == (1, 3, 3)
    assert a.shift(2).coeffs == (0, 0, 1, 1)
    assert IntPolynomial(()).shift(3).coeffs == ()


def test_polynomial_eval():
    p = IntPolynomial((1, 3, 1))
    assert p.eval(0) == 1
    assert p.eval(1) == 5
    assert p.eval(-1) == -1
    assert IntPolynomial(()).eval(7) == 0


def test_fib_poly_small_cases():
    assert fib_poly(1).coeffs == (1,)
    assert fib_poly(2).coeffs == (1,)
    assert fib_poly(3).coeffs == (1, 1)
    assert fib_poly(4).coeffs == (1, 2)
    assert fib_poly(5).coeffs == (1, 3, 1)
    assert fib_poly(6).coeffs == (1, 4, 3)


def test_fib_poly_recurrence():
    for n in range(3, 25):
        want = fib_poly(n - 1) + fib_poly(n - 2).shift(1)
        assert fib_poly(n).coeffs == want.coeffs


def test_fib_poly_at_one_is_fibonacci():
    fibs = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    for n, f in enumerate(fibs, start=1):
        assert fib_poly(n).eval(1) == f


def test_fib_poly_at_minus_one_has_period_six():
    got = [fib_poly(n).eval(-1) for n in range(1, 14)]
    assert got == [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0, 1]


def test_fib_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        fib_poly(0)
    with pytest.raises(ValueError):
        fib_poly(-2)


@given(st.integers(1, 18), st.integers(-3, 3))
def test_fib_poly_recurrence_pointwise(n, q):
    if n >= 3:
        assert fib_poly(n).eval(q) == fib_poly(n - 1).eval(q) + q * fib_poly(n - 2).eval(q)


def test_sparse_sets_examples():
    assert sparse_sets(1) == [(1,)]
    assert sparse_sets(2) == [(1,)]
    assert sparse_sets(3) == [(1,), (1, 3)]
    assert sparse_sets(4) == [(1,), (1, 3), (1, 4)]


def test_sparse_sets_are_sparse():
    for n in range(1, 13):
        for s in sparse_sets(n):
            assert 1 in s
            assert all(1 <= x <= n for x in s)
            members = sorted(s)
            assert all(b - a >= 2 for a, b in zip(members, members[1:]))


def test_sparse_sets_complete():
    # brute force every subset containing 1 with no two consecutive members
    import itertools

    for n in range(1, 11):
        brute = set()
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), r):
                if 1 in combo and all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                    brute.add(combo)
        assert set(sparse_sets(n)) == brute
        assert len(sparse_sets(n)) == len(brute)


def test_sparse_sets_count_matches_fib_value():
    for n in range(1, 21):
        assert len(sparse_sets(n)) == fib_poly(n).eval(1)


def test_sparse_sets_rejects_nonpositive():
    with pytest.raises(ValueError):
        sparse_sets(0)


def test_h_poly_counts_by_size():
    # coefficient of q^k = number of sparse sets with k+1 members
    for n in range(1, 19):
        sizes = [len(s) for s in sparse_sets(n)]
        want = [0] * max(sizes)
        for s in sizes:
            want[s - 1] += 1
        assert list(h_poly(n).coeffs) == want


def test_h_poly_rejects_nonpositive():
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            h_poly(n)


def test_h_poly_examples():
    assert h_poly(1).coeffs == (1,)
    assert h_poly(2).coeffs == (1,)
    assert h_poly(4).coeffs == (1, 2)
    assert h_poly(6).coeffs == fib_poly(6).coeffs


def test_h_poly_equals_fib_poly():
    for n in range(1, 21):
        assert h_poly(n).coeffs == fib_poly(n).coeffs
