"""Prime field arithmetic and Lagrange interpolation.

Everything downstream (shares, signatures, aggregates) is an integer in
[0, p). The default modulus is the Mersenne prime 2^61 - 1: shares fit a
64-bit word and Python ints absorb the 122-bit products before reduction.
Tests mostly run on p = 251 where failures are readable by eye.

The scheme only ever interpolates through a few fixed abscissas (the HF1
images of K_d, K_s, the CSP IDs and the filler IDs), so the working path
is `lagrange_weights`, memoized per (abscissas, target, p), which sharing
folds into coefficients; it is the one way to evaluate through given
points. `Polynomial` and `lagrange_interpolate` build the coefficient
form; they are the reference the tests compare against, and each weight
vector is derived from them once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import DuplicateAbscissa, EmptyInput

P_DEFAULT = 2305843009213693951  # 2^61 - 1


def inv(a: int, p: int) -> int:
    """Multiplicative inverse via Fermat; p must be prime, a nonzero."""
    return pow(a, p - 2, p)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 12 primes as bases, exact
    for every n below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in bases)


class Polynomial:
    """Coefficient form, constant term first, trailing zeros trimmed."""

    __slots__ = ("coefficients", "p")

    def __init__(self, coefficients: Sequence[int], p: int):
        coeffs = [c % p for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)
        self.p = p

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % self.p
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients and self.p == other.p

    def __hash__(self):
        return hash((self.coefficients, self.p))

    def __repr__(self):
        return f"Polynomial({list(self.coefficients)}, p={self.p})"


def poly_eval(poly: Polynomial, x: int) -> int:
    return poly(x % poly.p)


def lagrange_interpolate(points: Sequence[tuple[int, int]], p: int) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points.

    Raises DuplicateAbscissa when two x coincide and EmptyInput on an empty
    list. Reference path: k basis products of O(k^2) each plus k modular
    inverses, so O(k^3) per call; hot paths use `lagrange_weights` instead.
    """
    if not points:
        raise EmptyInput("no points to interpolate")
    xs = [x % p for x, _ in points]
    ys = [y % p for _, y in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"repeated x in {xs}")

    k = len(xs)
    coeffs = [0] * k
    for i in range(k):
        # basis numerator: product of (x - x_j) for j != i, built incrementally
        basis = [1]
        for j in range(k):
            if j == i:
                continue
            nxt = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] = (nxt[d + 1] + c) % p
                nxt[d] = (nxt[d] - c * xs[j]) % p
            basis = nxt
        denom = 1
        for j in range(k):
            if j != i:
                denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * inv(denom, p) % p
        for d, c in enumerate(basis):
            coeffs[d] = (coeffs[d] + c * scale) % p
    return Polynomial(coeffs, p)


@lru_cache(maxsize=4096)
def lagrange_weights(xs: tuple[int, ...], x: int, p: int) -> tuple[int, ...]:
    """Lagrange basis values l_i(x) for the abscissas xs, so that the
    polynomial through (xs[i], y_i) takes sum(l_i(x) * y_i) at x.

    l_i is the reference interpolant of the i-th unit vector, so both
    paths agree by construction and reject empty or repeated abscissas
    alike (EmptyInput, DuplicateAbscissa). Memoized: the scheme's
    abscissa tuples and targets come from a small fixed set per key
    material, so each weight vector is built once.
    """
    if not xs:
        raise EmptyInput("no points to interpolate")
    points = [(xj, 0) for xj in xs]
    weights = []
    for i, xi in enumerate(xs):
        points[i] = (xi, 1)
        weights.append(poly_eval(lagrange_interpolate(points, p), x))
        points[i] = (xi, 0)
    return tuple(weights)
