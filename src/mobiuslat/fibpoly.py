"""Fibonacci-style polynomials and sparse subsets of [n].

F_1 = F_2 = 1 and F_{k+2} = F_{k+1} + q * F_k, so F_n collects the constant
1 plus powers of q rather than the classical Fibonacci polynomials.  A
subset X of [n] is called sparse when 1 is a member and no two members are
consecutive; the generating polynomial of sparse sets by size,
H_n(q) = sum over sparse X of q^(|X| - 1), coincides with F_n(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial in q; coeffs[k] is the coefficient of q^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        # normalized form: no trailing zeros, () is the zero polynomial
        if self.coeffs and self.coeffs[-1] == 0:
            trimmed = list(self.coeffs)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            object.__setattr__(self, "coeffs", tuple(trimmed))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def shift(self, k: int = 1) -> "IntPolynomial":
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def eval(self, q: int) -> int:
        """Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^{k}")
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def fib_poly(n: int) -> IntPolynomial:
    """F_n(q) from F_1 = F_2 = 1, F_{k+2} = F_{k+1} + q F_k.

    >>> str(fib_poly(5))
    '1 + 3*q + 1*q^2'
    """
    if n < 1:
        raise ValueError("index must be at least 1")
    prev, cur = IntPolynomial((1,)), IntPolynomial((1,))
    for _ in range(n - 2):
        prev, cur = cur, cur + prev.shift()
    return cur


def sparse_sets(n: int) -> list[tuple[int, ...]]:
    """All sparse subsets of [n] in lexicographic order.

    Sparse means 1 is a member and no two members are consecutive; the
    empty set does not qualify.

    >>> sparse_sets(4)
    [(1,), (1, 3), (1, 4)]
    """
    if n < 1:
        raise ValueError("universe bound must be at least 1")
    out: list[tuple[int, ...]] = []
    # depth-first with an explicit stack: each set precedes its extensions,
    # and extensions are popped smallest first, which is lexicographic order
    stack = [(1,)]
    while stack:
        prefix = stack.pop()
        out.append(prefix)
        stack.extend(prefix + (nxt,) for nxt in range(n, prefix[-1] + 1, -1))
    return out


def h_poly(n: int) -> IntPolynomial:
    """Sparse-set size generating polynomial: sum of q^(|X|-1).

    Builds the sparse sets level by level, each level the list of the
    sets' last members: a set extends by any member at least two past its
    last, as `sparse_sets` extends its prefixes, and the coefficient of
    q^j is the number of sets with j + 1 members.

    >>> str(h_poly(6))
    '1 + 4*q + 3*q^2'
    """
    if n < 1:
        raise ValueError("universe bound must be at least 1")
    coeffs: list[int] = []
    last = [1]
    while last:
        coeffs.append(len(last))
        last = [m for end in last for m in range(end + 2, n + 1)]
    return IntPolynomial(tuple(coeffs))
