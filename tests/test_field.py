import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Polynomial, lagrange_interpolate, poly_eval
from fvss.errors import DuplicateAbscissa, EmptyInput
from fvss.field import is_prime, lagrange_weights

from .oracles import eval_poly, interpolate_at, interpolate_gauss

P = 251


def test_known_parabola():
    # x^2 + 1 through (1,2), (2,5), (3,10)
    f = lagrange_interpolate([(1, 2), (2, 5), (3, 10)], P)
    assert f.coefficients == (1, 0, 1)
    assert f.degree == 2


def test_constant_and_identity():
    assert lagrange_interpolate([(7, 42)], P).coefficients == (42,)
    f = lagrange_interpolate([(0, 0), (1, 1)], P)
    assert f.coefficients == (0, 1)


def test_single_zero_point_gives_zero_polynomial():
    f = lagrange_interpolate([(5, 0)], P)
    assert f.coefficients == (0,)
    assert f(123) == 0


def test_duplicate_abscissa_rejected():
    with pytest.raises(DuplicateAbscissa):
        lagrange_interpolate([(1, 2), (1, 3)], P)
    with pytest.raises(DuplicateAbscissa):
        lagrange_interpolate([(4, 2), (255, 3)], P)  # 255 ≡ 4 (mod 251)


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        lagrange_interpolate([], P)


def test_polynomial_trims_trailing_zeros():
    f = Polynomial((3, 2, 0, 0), P)
    assert f.coefficients == (3, 2)
    assert f.degree == 1


def test_poly_eval_matches_call():
    f = Polynomial((1, 2, 3), P)
    for x in range(10):
        assert poly_eval(f, x) == f(x) == (1 + 2 * x + 3 * x * x) % P


@st.composite
def point_sets(draw, p):
    k = draw(st.integers(min_value=1, max_value=8))
    xs = draw(
        st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True)
    )
    ys = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    return list(zip(xs, ys))


@given(point_sets(P))
@settings(max_examples=200)
def test_matches_gaussian_elimination_small_prime(points):
    f = lagrange_interpolate(points, P)
    assert list(f.coefficients) == interpolate_gauss(points, P)
    for x, y in points:
        assert f(x) == y % P


@given(point_sets(P_DEFAULT))
@settings(max_examples=50)
def test_matches_gaussian_elimination_default_prime(points):
    f = lagrange_interpolate(points, P_DEFAULT)
    assert list(f.coefficients) == interpolate_gauss(points, P_DEFAULT)


@given(
    st.lists(st.integers(0, P - 1), min_size=1, max_size=6),
    st.lists(st.integers(0, P - 1), min_size=6, max_size=6, unique=True),
)
@settings(max_examples=200)
def test_eval_interpolate_round_trip(coeffs, xs):
    f = Polynomial(tuple(coeffs), P)
    points = [(x, f(x)) for x in xs]
    g = lagrange_interpolate(points, P)
    assert g == f


def test_fewer_points_than_degree_admit_any_secret():
    """t-1 points of a degree t-1 polynomial determine nothing: for every
    candidate constant term there is a consistent polynomial."""
    secret = 42
    f = Polynomial((secret, 17, 8, 91), P)  # degree 3, as with t = 4
    revealed = [(x, f(x)) for x in (3, 7, 11)]  # one short of t
    for candidate in range(P):
        g = lagrange_interpolate([(0, candidate)] + revealed, P)
        assert g(0) == candidate
        assert all(g(x) == y for x, y in revealed)


def test_eval_matches_oracle_eval():
    coeffs = [5, 0, 7, 200]
    f = Polynomial(tuple(coeffs), P)
    for x in range(0, P, 17):
        assert f(x) == eval_poly(coeffs, x, P)


# cached Lagrange weights: the path every share, reconstruction and sum takes


def _check_weights(points, x, p):
    xs = tuple(px for px, _ in points)
    ys = [py for _, py in points]
    assert interpolate_at(xs, ys, x, p) \
        == eval_poly(interpolate_gauss(points, p), x, p) \
        == lagrange_interpolate(points, p)(x % p)


@given(point_sets(P), st.integers(-P, 2 * P))
@settings(max_examples=200)
def test_weights_match_gaussian_elimination_small_prime(points, x):
    _check_weights(points, x, P)


@given(point_sets(P_DEFAULT), st.integers(0, P_DEFAULT - 1))
@settings(max_examples=50)
def test_weights_match_gaussian_elimination_default_prime(points, x):
    _check_weights(points, x, P_DEFAULT)


def test_weights_reject_empty_and_duplicate_abscissas():
    with pytest.raises(EmptyInput):
        lagrange_weights((), 3, P)
    with pytest.raises(EmptyInput):
        interpolate_at((), (), 3, P)
    with pytest.raises(DuplicateAbscissa):
        lagrange_weights((1, 1), 0, P)
    with pytest.raises(DuplicateAbscissa):
        interpolate_at((4, 255), (2, 3), 0, P)  # 255 ≡ 4 (mod 251)


def test_is_prime_equals_trial_division_below_20000():
    def trial(n):
        return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n)] == [n for n in range(-3, 20000)
                                                            if trial(n)]


@pytest.mark.parametrize("n,prime", [
    (P_DEFAULT, True),
    (2**64 - 59, True),                 # the largest prime below 2^64
    (2**61, False),
    (10**18, False),
    (3**38, False),
    (561, False),                       # a Carmichael number
    (3215031751, False),                # a strong pseudoprime to bases 2, 3, 5 and 7
    (3825123056546413051, False),       # a strong pseudoprime to the bases 2 to 23
    (2**64 - 1, False),
])
def test_is_prime_on_large_primes_and_pseudoprimes(n, prime):
    assert is_prime(n) is prime
