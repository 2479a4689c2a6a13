"""Exact arithmetic in the finite field GF(p^k).

Elements are integers in [0, q).  The integer a encodes the polynomial
sum(d_i * x^i) where (d_0, d_1, ...) are the base-p digits of a, so 0 is
the additive identity and 1 the multiplicative identity.  Extension
fields reduce modulo a deterministically chosen modulus: the
lexicographically least monic irreducible polynomial of degree k over
Z_p, comparing coefficient tuples low-degree first.
"""

from itertools import product

from .errors import DegenerateDegreeError, NotPrimeError, SizeExceededError, ZeroInverseError

MAX_ORDER = 1 << 16     # size guard: arithmetic stays table/desk scale
TABLE_LIMIT = 256       # precompute q*q add/mul tables up to this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        a = _poly_trim(a)
        shift = len(a) - 1 - dm
        c = a[-1]
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a = a[:-1]
    return _poly_trim(a)


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            if not _poly_mod(m, g, p):
                return False
    return True


def least_irreducible(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over Z_p
    (low-degree coefficients compared first)."""
    for low in product(range(p), repeat=k):
        m = list(low) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


def _add_rows(p, k):
    """Addition table of GF(p^k), digit by digit: with n = p^j, the
    element a + n*t (a < n, t < p) adds as the table of the first j
    digits plus n times the sum of the top digits mod p."""
    rows = [(0,)]
    n = 1
    for _ in range(k):
        rows = [tuple(x + n * ((t + u) % p) for u in range(p) for x in rows[a])
                for t in range(p) for a in range(n)]
        n *= p
    return tuple(rows)


class FiniteField:
    """GF(p^k) with deterministic construction; immutable once built."""

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise DegenerateDegreeError(f"extension degree must be >= 1, got {k}")
        # The bound comes first, and p**k is formed only for p and 2**k
        # within it; the message names a larger order p^k.
        small = p <= MAX_ORDER and k < MAX_ORDER.bit_length()
        if p > 1 and not (small and p ** k <= MAX_ORDER):
            order = p ** k if small or k == 1 else f"{p}^{k}"
            raise SizeExceededError(f"field order {order} exceeds {MAX_ORDER}")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = (0, 1) if k == 1 else least_irreducible(p, k)
        self.add_table = None
        self.mul_table = None
        self._inv = None
        if q <= TABLE_LIMIT:
            self.add_table = _add_rows(p, k)
            self.mul_table, self._inv = self._mul_rows()

    def _mul_rows(self):
        """Multiplication table and inverses from the log/antilog tables of
        the least primitive element, so O(q) polynomial products, not q^2.
        Elements from 2 up are tried in order; powering one stops at its
        first return to 1, so a non-primitive try costs its order."""
        q = self.q
        for g in range(2, q) if q > 2 else (1,):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._mul_raw(x, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp += exp          # exp[i + j] for logs i, j < q - 1
        nonzero_logs = log[1:]
        rows = [(0,) * q]
        rows += [(0, *map(exp[log[a]:].__getitem__, nonzero_logs)) for a in range(1, q)]
        inv = (0, *(exp[q - 1 - log[a]] for a in range(1, q)))
        return tuple(rows), inv

    # --- element codec ---

    def digits(self, a: int):
        """Base-p digit vector (coefficients, low degree first)."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, digits) -> int:
        a = 0
        for d in reversed(list(digits)):
            a = a * self.p + (d % self.p)
        return a

    # --- arithmetic ---

    def _add_raw(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        da, db = self.digits(a), self.digits(b)
        return self.encode((x + y) % self.p for x, y in zip(da, db))

    def _mul_raw(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(_poly_trim(self.digits(a)), _poly_trim(self.digits(b)), self.p)
        rem = _poly_mod(prod, self.modulus, self.p)
        return self.encode(rem + [0] * (self.k - len(rem)))

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][b]
        return self._add_raw(a, b)

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[a][b]
        return self._mul_raw(a, b)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.encode((-d) % self.p for d in self.digits(a))

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k}, q={self.q})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))
