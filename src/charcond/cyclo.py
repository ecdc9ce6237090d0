"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the rational power basis 1, z, ..., z^(phi(n)-1) of
Q(zeta_n), z = zeta_n, at their conductor: rationals have order 1, and the
order is never 2 mod 4.  Equality, hashing and integrality tests are then
coefficient comparisons (the power basis is an integral basis of Z[zeta_n]).
Products, embeddings and Galois images are maps on exponents followed by one
reduction mod Phi_n (`_reduce`, on integers `reduce_int`); `lincomb` sums
many terms with one reduction and one normalisation.

Conductors and inverses walk down the fields Q(zeta_n) > Q(zeta_(n/q)), one
prime q | n at a time, with no linear solve (`_descend`).  If q^2 | n, x lies
in Q(zeta_(n/q)) iff its coordinates vanish off multiples of q; if n = 2 mod 4
the fields are equal; otherwise x lies there iff a generator of the cyclic
H = Gal(Q(zeta_n)/Q(zeta_(n/q))) fixes it, and then x = Tr_H(x)/(q-1).
`_normalise` descends while some prime lets the element down; `invert`
multiplies y by c, the product of its nontrivial H-conjugates, so that y*c =
N_H(y) lies one field down, and collects the c on the way down to a rational.
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
    for q in prime_factors(n):
        result -= result // q
    return result


def nu_p(n: int, p: int) -> int:
    """p-adic valuation of a positive integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing the positive integer n."""
    return p ** nu_p(n, p)


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing the positive integer n, ascending."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


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
    """Coefficients (ascending) of the n-th cyclotomic polynomial: for a prime
    q with n = qm, Phi_n(x) = Phi_m(x^q), divided by Phi_m(x) unless q | m."""
    if n == 1:
        return (-1, 1)
    q = prime_factors(n)[0]
    below = cyclotomic_poly(n // q)
    poly = [0] * (q * (len(below) - 1) + 1)
    poly[::q] = below
    return tuple(poly if n % (q * q) == 0 else _poly_divide_exact(poly, below))


def reduce_int(n: int, acc: list[int]) -> list[int]:
    """sum acc[e] * z^e on the power basis of Z[zeta_n]: the remainder by
    the monic Phi_n, computed in place in the integer list acc."""
    phi_n = cyclotomic_poly(n)
    k = len(phi_n) - 1
    low = [(j, a) for j, a in enumerate(phi_n[:k]) if a]
    for top in range(n - 1, k - 1, -1):
        c = acc[top]
        if c:
            for j, a in low:
                acc[top - k + j] -= c * a
    return acc[:k]


def _reduce(n: int, terms) -> tuple[Fraction, ...]:
    """sum c * z^e over pairs (e, c) on the power basis of Q(zeta_n), by
    `reduce_int` on integer numerators over one common denominator."""
    terms = [(e % n, c) for e, c in terms if c]
    den = lcm(*[c.denominator for _, c in terms])
    acc = [0] * n
    for e, c in terms:
        acc[e] += c.numerator * (den // c.denominator)
    return tuple(Fraction(c, den) for c in reduce_int(n, acc))


def _mul(n: int, a, s: int, b, t: int) -> tuple[Fraction, ...]:
    """a * b in Q(zeta_n), for a in Q(zeta_(n/s)) and b in Q(zeta_(n/t))."""
    return _reduce(n, ((s * i + t * j, x * y) for i, x in enumerate(a) if x
                       for j, y in enumerate(b) if y))


def _descend(n: int, q: int, vec: tuple) -> tuple[Fraction, ...] | None:
    """Coordinates of x in Q(zeta_(n/q)), q | n prime, or None if x is not there."""
    m = n // q
    if m % q == 0:
        # 1, z, ..., z^(q-1) is a basis of Q(zeta_n) over Q(zeta_m)
        return None if any(any(vec[r::q]) for r in range(1, q)) else vec[::q]
    if q == 2:  # zeta_n = -zeta_m^((m+1)/2)
        return _reduce(m, ((j * (m + 1) // 2, -c if j % 2 else c)
                           for j, c in enumerate(vec)))
    # H is generated by the k = 1 mod m that is a primitive root g mod q
    g = next(g for g in range(2, q) if all(pow(g, (q - 1) // r, q) != 1
                                           for r in prime_factors(q - 1)))
    k = 1 + m * ((g - 1) * pow(m, -1, q) % q)
    if _reduce(n, ((j * k, c) for j, c in enumerate(vec))) != vec:
        return None
    # Tr(zeta_n^j) is zeta_m^(j/q) times q-1 if q | j, and times -1 if not
    u, w = pow(q, -1, m), Fraction(-1, q - 1)
    return _reduce(m, ((j * u, c if j % q == 0 else c * w)
                       for j, c in enumerate(vec)))


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
        return CycloNum(n, _reduce(n, ((e, Fraction(c))
                                       for e, c in coeffs.items())))

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
        step = n // self.order
        return _reduce(n, ((step * j, c) for j, c in enumerate(self._vec)))

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
            if not q:
                return self
            return CycloNum(other.order, tuple(q * c for c in other._vec),
                            _canonical=True)
        if other.order == 1:
            return other * self
        n = lcm(self.order, other.order)
        return CycloNum(n, _mul(n, self._vec, n // self.order,
                                other._vec, n // other.order))

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse, by norms down the tower of subfields."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        n, y, cofactors = self.order, self._vec, []
        while n > 1:
            q = prime_factors(n)[0]
            m, c = n // q, (Fraction(1),)
            for k in range(1 + m, n, m):  # H less 1: k = 1 mod m, prime to n
                if gcd(k, n) == 1:
                    c = _mul(n, c, 1, _reduce(n, ((j * k, a) for j, a
                                                  in enumerate(y))), 1)
            cofactors.append((n, c))
            n, y = m, _descend(n, q, _mul(n, y, 1, c, 1))
        inv, order = (1 / y[0],), 1
        for n, c in reversed(cofactors):
            inv, order = _mul(n, inv, n // order, c, 1), n
        # Q(1/a) = Q(a), so the inverse is already stored at its conductor
        return CycloNum(order, inv, _canonical=True)

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
        return CycloNum(n, _reduce(n, ((j * k, c)
                                       for j, c in enumerate(self._vec))),
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
    """sum q*x over pairs (rational q, CycloNum x), reduced once in Q(zeta_N)
    with N the lcm of the orders and normalised once."""
    terms = [(q, x) for q, x in terms if q and x]
    if not terms:
        return ZERO
    n = lcm(*[x.order for _, x in terms])
    return CycloNum(n, _reduce(n, (((n // x.order) * j, c * q) for q, x in terms
                                   for j, c in enumerate(x._vec) if c)))


def _normalise(n: int, vec: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    """(conductor, coeffs there) of the element, one prime at a time; once x
    is not in Q(zeta_(n/q)) it is in no Q(zeta_d), d | n/q, so q is done."""
    for q in prime_factors(n):
        while n % q == 0 and (down := _descend(n, q, vec)) is not None:
            n, vec = n // q, down
    return n, vec


# ---------------------------------------------------------------------------
# conductors


def conductor(values) -> int:
    """Least n with every element of the set contained in Q(zeta_n).

    Every element is stored at its conductor, which is never 2 mod 4, and for
    such orders Q(zeta_a) lies in Q(zeta_b) exactly when a | b; so this is the
    lcm of the stored orders."""
    orders = [v.order for v in values]
    if not orders:
        raise CycloError("conductor of an empty set is undefined")
    return lcm(*orders)


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
        if not (self.pos < len(self.text) and self.text[self.pos].isdecimal()):
            self.pos = start
            self.error("expected an integer")
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
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
