"""Finite field arithmetic: frozen examples plus exhaustive axiom sweeps."""

import pytest

from ryser import gf
from ryser.errors import DegenerateDegreeError, NotPrimeError, SizeExceededError, ZeroInverseError
from ryser.gf import FiniteField, least_irreducible

# every prime power up to 32
SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3),
                (29, 1), (31, 1), (2, 5)]


# independent oracle: dense polynomial arithmetic over Z_p, no shared code
def poly_mul_mod(a, b, mod, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by monic mod
    deg_m = len(mod) - 1
    for top in range(len(prod) - 1, deg_m - 1, -1):
        c = prod[top]
        if c:
            for i in range(deg_m + 1):
                prod[top - deg_m + i] = (prod[top - deg_m + i] - c * mod[i]) % p
    return prod[:deg_m]


def test_gf2_is_xor_and():
    f = FiniteField(2, 1)
    for a in range(2):
        for b in range(2):
            assert f.add(a, b) == a ^ b
            assert f.mul(a, b) == a & b


def test_gf3_arithmetic():
    f = FiniteField(3, 1)
    assert f.mul(2, 2) == 1
    assert f.add(2, 2) == 1


def test_gf4_modulus_and_products():
    f = FiniteField(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1
    x, x1 = 2, 3  # digit encodings of x and x+1
    assert f.mul(x, x) == x1
    assert f.inv(x) == x1
    assert f.mul(x, x1) == 1
    # full multiplication table against the polynomial oracle
    for a in range(4):
        for b in range(4):
            da = [a % 2, a // 2]
            db = [b % 2, b // 2]
            ra = poly_mul_mod(da, db, [1, 1, 1], 2)
            assert f.mul(a, b) == ra[0] + 2 * ra[1]


def test_gf5_inverse():
    f = FiniteField(5)
    assert f.inv(2) == 3


def test_additive_identity_everywhere():
    for p, k in SMALL_ORDERS:
        f = FiniteField(p, k)
        for a in f.elements():
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a


def test_build_errors():
    with pytest.raises(NotPrimeError):
        FiniteField(4, 1)
    with pytest.raises(NotPrimeError):
        FiniteField(1, 1)
    with pytest.raises(DegenerateDegreeError):
        FiniteField(2, 0)
    with pytest.raises(SizeExceededError):
        FiniteField(2, 17)
    with pytest.raises(ZeroInverseError):
        FiniteField(7).inv(0)


def test_order_bound_is_checked_before_any_arithmetic(monkeypatch):
    # 2^100000 has 30,103 digits, past Python's int-to-str limit, and
    # trial division of a 14-digit p took half a second before the bound
    with pytest.raises(SizeExceededError, match=r"field order 2\^100000 exceeds 65536"):
        FiniteField(2, 100000)

    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) ran before the order bound")

    monkeypatch.setattr(gf, "is_prime", no_primality_test)
    with pytest.raises(SizeExceededError, match="field order 10000000000037 exceeds 65536"):
        FiniteField(10000000000037)
    with pytest.raises(SizeExceededError, match="field order 66049 exceeds 65536"):
        FiniteField(257, 2)


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, k):
    f = FiniteField(p, k)
    q = f.q
    els = range(q)
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_multiplicative_group_cyclic(p, k):
    f = FiniteField(p, k)
    q = f.q

    def order(a):
        n, x = 1, a
        while x != 1:
            x = f.mul(x, a)
            n += 1
        return n

    orders = [order(a) for a in range(1, q)]
    assert all((q - 1) % n == 0 for n in orders)
    assert max(orders) == q - 1  # some element generates the whole group


def test_build_is_deterministic():
    a = FiniteField(3, 2)
    b = FiniteField(3, 2)
    assert a.modulus == b.modulus
    assert a.mul_table == b.mul_table
    assert a.add_table == b.add_table


def test_least_irreducible_is_irreducible_and_least():
    # brute re-derivation for GF(8): scan candidates low-degree-first
    m = least_irreducible(2, 3)
    assert m[-1] == 1 and len(m) == 4
    # no roots in GF(2) implies irreducible for cubics
    for r in (0, 1):
        val = sum(c * r ** i for i, c in enumerate(m)) % 2
        assert val != 0


PRIME_POWERS_TO_64 = [
    (p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for k in range(1, 7) if p ** k <= 64
]


@pytest.mark.parametrize("p,k", PRIME_POWERS_TO_64)
def test_log_tables_equal_the_polynomial_arithmetic(p, k):
    f = FiniteField(p, k)
    q = f.q
    elems = range(q)
    assert f.add_table == tuple(tuple(f._add_raw(a, b) for b in elems) for a in elems)
    assert f.mul_table == tuple(tuple(f._mul_raw(a, b) for b in elems) for a in elems)
    assert [f._mul_raw(a, f.inv(a)) for a in range(1, q)] == [1] * (q - 1)
