"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the rational power basis 1, z, ..., z^(phi(n)-1) of
Q(zeta_n), with z = zeta_n, and are always normalised so that the stored
order equals the conductor of the element (in particular rationals have
order 1, and the order is never congruent to 2 mod 4).  This makes equality,
hashing and integrality tests coefficient comparisons: the power basis is an
integral basis of the ring of integers Z[zeta_n].  Sums of many terms go
through `lincomb`, which embeds every term once and normalises only the
result, instead of folding `+` over canonical partial sums.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class CycloError(ValueError):
    pass


class CycloParseError(CycloError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    assert n >= 1
    result = n
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            result -= result // q
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly = _poly_divide_exact(poly, list(cyclotomic_poly(d)))
    assert len(poly) == euler_phi(n) + 1
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row e is z^e on the power basis of Q(zeta_n); covers products and e < n."""
    k = euler_phi(n)
    phi_n = cyclotomic_poly(n)
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * k
    cur[0] = Fraction(1)
    for _ in range(max(n, 2 * k - 1)):
        rows.append(tuple(cur))
        # multiply by z: shift, then reduce the overflow via z^k = -(lower part)
        top = cur[k - 1]
        cur = [Fraction(0)] + cur[: k - 1]
        if top:
            for j in range(k):
                cur[j] -= top * phi_n[j]
    return tuple(rows)


def _zeta_power_vec(n: int, e: int) -> tuple[Fraction, ...]:
    """z^e on the power basis of Q(zeta_n)."""
    return _power_table(n)[e % n]


def _mul_vecs(n: int, a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    k = euler_phi(n)
    table = _power_table(n)
    conv = [Fraction(0)] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = [Fraction(0)] * k
    for e, ce in enumerate(conv):
        if ce:
            row = table[e]
            for j in range(k):
                out[j] += ce * row[j]
    return tuple(out)


@lru_cache(maxsize=None)
def _embed_matrix(m: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns: images of the power basis of Q(zeta_m) inside Q(zeta_n), m | n."""
    assert n % m == 0
    step = n // m
    return tuple(_zeta_power_vec(n, step * j) for j in range(euler_phi(m)))


@lru_cache(maxsize=None)
def _galois_matrix(n: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns: images of z^j under z -> z^k."""
    return tuple(_zeta_power_vec(n, (j * k) % n) for j in range(euler_phi(n)))


def _apply_columns(cols: tuple[tuple[Fraction, ...], ...], vec) -> tuple[Fraction, ...]:
    size = len(cols[0]) if cols else 0
    out = [Fraction(0)] * size
    for j, vj in enumerate(vec):
        if vj:
            col = cols[j]
            for i in range(size):
                out[i] += vj * col[i]
    return tuple(out)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve an (overdetermined) rational system exactly; None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][-1]
    for i in range(r, len(aug)):
        if aug[i][-1]:
            return None
    # free columns (rank-deficient input) are not expected here
    return sol


@lru_cache(maxsize=None)
def _fixing_exponents(n: int, d: int) -> tuple[int, ...]:
    """All k with gcd(k, n) = 1, k = 1 mod d, k != 1: Gal(Q(zeta_n)/Q(zeta_d))."""
    return tuple(k for k in range(2, n + 1) if gcd(k, n) == 1 and (k - 1) % d == 0)


class CycloNum:
    """An exact element of a cyclotomic field, in canonical form."""

    __slots__ = ("order", "_vec", "_hash")

    def __init__(self, order: int, vec: tuple[Fraction, ...], _canonical: bool = False):
        if _canonical:
            self.order = order
            self._vec = vec
        else:
            self.order, self._vec = _normalise(order, vec)
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        return CycloNum(1, (Fraction(q),), _canonical=True)

    @staticmethod
    def zeta(n: int, e: int = 1) -> "CycloNum":
        if n < 1:
            raise CycloError(f"root-of-unity order must be positive, got {n}")
        return CycloNum.from_exponents(n, {e: Fraction(1)})

    @staticmethod
    def from_exponents(n: int, coeffs: dict) -> "CycloNum":
        """Build sum of c_e * zeta_n^e from a sparse exponent map."""
        if n < 1:
            raise CycloError(f"root-of-unity order must be positive, got {n}")
        k = euler_phi(n)
        vec = [Fraction(0)] * k
        for e, c in coeffs.items():
            c = Fraction(c)
            if not c:
                continue
            row = _zeta_power_vec(n, e % n)
            for j in range(k):
                vec[j] += c * row[j]
        return CycloNum(n, tuple(vec))

    # -- views -------------------------------------------------------------

    def exponent_coeffs(self) -> dict[int, Fraction]:
        """Sparse map e -> coefficient of zeta_order^e (canonical basis view)."""
        return {e: c for e, c in enumerate(self._vec) if c}

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise CycloError(f"not a rational number: {self}")
        return self._vec[0]

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self._vec)

    def __bool__(self) -> bool:
        return any(self._vec)

    # -- arithmetic ---------------------------------------------------------

    def _embedded(self, n: int) -> tuple[Fraction, ...]:
        if n == self.order:
            return self._vec
        return _apply_columns(_embed_matrix(self.order, n), self._vec)

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other)
        n = lcm(self.order, other.order)
        a = self._embedded(n)
        b = other._embedded(n)
        return CycloNum(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, tuple(-x for x in self._vec), _canonical=True)

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CycloNum":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other)
        if self.order == 1:
            q = self._vec[0]
            return CycloNum(other.order, tuple(q * c for c in other._vec),
                            _canonical=bool(q))
        if other.order == 1:
            return other * self
        n = lcm(self.order, other.order)
        return CycloNum(n, _mul_vecs(n, self._embedded(n), other._embedded(n)))

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse, via the multiplication-matrix linear system."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.order
        if n == 1:
            return CycloNum.from_rational(1 / self._vec[0])
        k = euler_phi(n)
        table = _power_table(n)
        cols = [_mul_vecs(n, self._vec, table[j]) for j in range(k)]
        rows = [[cols[j][i] for j in range(k)] for i in range(k)]
        rhs = [Fraction(1)] + [Fraction(0)] * (k - 1)
        sol = _solve_exact(rows, rhs)
        assert sol is not None
        return CycloNum(n, tuple(sol))

    def __truediv__(self, other) -> "CycloNum":
        return self * _coerce(other).invert()

    def __rtruediv__(self, other) -> "CycloNum":
        return _coerce(other) * self.invert()

    def galois(self, k: int) -> "CycloNum":
        """Apply the field automorphism zeta -> zeta^k, gcd(k, order) = 1."""
        n = self.order
        k %= n
        if gcd(k, n) != 1:
            raise CycloError(f"galois exponent {k} is not coprime to order {n}")
        if n == 1 or k == 1:
            return self
        # conjugates share the conductor, so the result is already canonical
        return CycloNum(n, _apply_columns(_galois_matrix(n, k), self._vec),
                        _canonical=True)

    def conjugate(self) -> "CycloNum":
        return self.galois(-1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.order == other.order and self._vec == other._vec

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self._vec))
        return self._hash

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return cyclo_to_str(self)

    def __repr__(self) -> str:
        return f"CycloNum({cyclo_to_str(self)!r})"


def _coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    raise TypeError(f"cannot treat {x!r} as a cyclotomic number")


def lincomb(terms) -> CycloNum:
    """sum q*x over pairs (rational q, CycloNum x), accumulated in Q(zeta_N)
    with N the lcm of the orders and normalised once."""
    terms = [(q, x) for q, x in terms if q and x]
    if not terms:
        return ZERO
    n = lcm(*[x.order for _, x in terms])
    acc = [Fraction(0)] * euler_phi(n)
    for q, x in terms:
        for j, c in enumerate(x._embedded(n)):
            if c:
                acc[j] += q * c
    return CycloNum(n, tuple(acc))


def _normalise(n: int, vec: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    """Descend to the conductor of the element; returns (order, coeffs)."""
    assert len(vec) == euler_phi(n)
    if n == 1:
        return 1, tuple(vec)
    for d in divisors(n):
        if d % 4 == 2:
            continue
        fixed = True
        for k in _fixing_exponents(n, d):
            if _apply_columns(_galois_matrix(n, k), vec) != tuple(vec):
                fixed = False
                break
        if not fixed:
            continue
        if d == n:
            return n, tuple(vec)
        cols = _embed_matrix(d, n)
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(euler_phi(n))]
        sol = _solve_exact(rows, list(vec))
        assert sol is not None, "galois-fixed element must descend"
        return d, tuple(sol)
    raise AssertionError("unreachable: d = n is always a candidate")


# ---------------------------------------------------------------------------
# conductors


def conductor(values) -> int:
    """Least n with every element of the set contained in Q(zeta_n)."""
    values = list(values)
    if not values:
        raise CycloError("conductor of an empty set is undefined")
    big = lcm(*[v.order for v in values])
    embedded = [v._embedded(big) for v in values]
    for d in divisors(big):
        if d % 4 == 2:
            continue
        if all(
            _apply_columns(_galois_matrix(big, k), vec) == vec
            for k in _fixing_exponents(big, d)
            for vec in embedded
        ):
            return d
    raise AssertionError("unreachable: d = lcm of orders always works")


def conductor_p(values, p: int) -> int:
    """The exact p-part of conductor(values)."""
    return p_part(conductor(values), p)


# ---------------------------------------------------------------------------
# the E(n) expression grammar


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise CycloParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            self.pos = start
            self.error("expected an integer")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def atom(self) -> CycloNum:
        # 'E(' n ')' ['^' e]
        self.take("E")
        self.take("(")
        n = self.integer()
        if n <= 0:
            self.error(f"E({n}) is not a valid root of unity")
        self.take(")")
        e = 1
        if self.peek() == "^":
            self.take("^")
            e = self.integer()
        return CycloNum.zeta(n, e)

    def term(self) -> CycloNum:
        if self.peek() == "E":
            return self.atom()
        num = self.integer()
        if self.peek() == "/":
            self.take("/")
            den = self.integer()
            if den <= 0:
                self.error("denominator must be a positive integer")
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        if self.peek() == "*":
            self.take("*")
            return CycloNum.from_rational(coeff) * self.atom()
        return CycloNum.from_rational(coeff)

    def expr(self) -> CycloNum:
        sign = 1
        if self.peek() == "-":
            self.take("-")
            sign = -1
        total = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.term()
            total = total + t if op == "+" else total - t
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return total


def parse_cyclo(expr: str) -> CycloNum:
    """Parse an E(n)-notation cyclotomic expression into canonical form."""
    return _Parser(expr).expr()


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cyclo_to_str(a: CycloNum) -> str:
    """Print in the input grammar; parse(cyclo_to_str(a)) == a."""
    if a.order == 1:
        return _frac_str(a._vec[0])
    parts = []
    for e, c in enumerate(a._vec):
        if not c:
            continue
        atom = f"E({a.order})" if e == 1 else f"E({a.order})^{e}" if e else None
        mag = _frac_str(abs(c))
        if atom is None:
            body = mag
        elif abs(c) == 1:
            body = atom
        else:
            body = f"{mag}*{atom}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)
