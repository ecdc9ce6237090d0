"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is held at its conductor n as integer numerators on the power
basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), z = zeta_n, over one positive
denominator that shares no factor with them: rationals have order 1, and
the order is never 2 mod 4.  Equality and hashing compare (order,
numerators, denominator); an element is an algebraic integer exactly when
its denominator is 1 (the power basis is an integral basis of Z[zeta_n]).
Products, embeddings and Galois images are maps on exponents followed by
one integer reduction mod Phi_n (`_reduce`, `reduce_int`); `lincomb` and
`parse_cyclo` sum many terms with one reduction and one normalisation.
On algebraic integers, `hermitian_int` is the one weighted Hermitian sum
sum_c w_c x_c conj(y_c) of class functions (inner products, reciprocity,
restrictions, Gram forms), with conj read as the exponent map e -> -e.
Two views read an element: `coeffs(n)`, rational coordinates on the power
basis of Q(zeta_n), and `int_terms(n)`, the integer pairs (e, c) of an
algebraic integer as a sum of c * zeta_n^e.

Conductors and inverses walk down the fields Q(zeta_n) > Q(zeta_(n/q)), one
prime q | n at a time, with no linear solve (`_descend`).  If n = 2 mod 4
the fields are equal; otherwise x lies in Q(zeta_(n/q)) iff a Z-linear test
of its numerators vanishes (`_fixed_test`): if q^2 | n, its coordinates off
multiples of q; if not, sigma(x) - x for a generator sigma of the cyclic
H = Gal(Q(zeta_n)/Q(zeta_(n/q))), and then x = Tr_H(x)/(q-1), a division
that is exact on numerators since Z[zeta_n] meets Q(zeta_(n/q)) in
Z[zeta_(n/q)].  `_normalise` descends while some prime lets the element
down; `invert` multiplies the numerators y by c, the product of their
nontrivial H-conjugates, so that y*c = N_H(y) lies one field down, and
collects the c on the way down to the integer norm N: 1/x = den * c / N.
`conductor_tests` runs the same tests at one prime, as Z-linear maps;
`conductor_p_int` reads a p-part off them.
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


@lru_cache(maxsize=256)
def euler_phi(n: int) -> int:
    if n < 1:
        raise CycloError(f"euler_phi needs a positive integer, got {n}")
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
    # the quotient by the monic den; the one caller divides Phi_m(x^q) by
    # Phi_m(x), q a prime not dividing m, which leaves no remainder
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return out


@lru_cache(maxsize=256)
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


def _reduce(n: int, terms) -> list[int]:
    """sum c * z^e over integer pairs (e, c) on the power basis of Z[zeta_n],
    exponents taken mod n, by one `reduce_int`."""
    acc = [0] * n
    for e, c in terms:
        acc[e % n] += c
    return reduce_int(n, acc)


def lincomb_int(n: int, pairs) -> list[int]:
    """sum w * x over pairs (integer w, x given as `int_terms(n)`), on the
    power basis of Z[zeta_n]."""
    return _reduce(n, ((e, w * a) for w, x in pairs for e, a in x))


def sum_products_int(n: int, triples) -> list[int]:
    """sum w * x * y over triples (integer w, x, y), x and y given as
    `int_terms(n)`, on the power basis of Z[zeta_n] by one `reduce_int`."""
    acc = [0] * n
    for w, x, y in triples:
        for e, a in x:
            for f, b in y:
                acc[(e + f) % n] += w * a * b
    return reduce_int(n, acc)


def hermitian_int(n: int, weights, rows, cols) -> list[list[list[int]]]:
    """sum_c w_c * x_c * conj(y_c) for each row x and each col y, all given
    as `int_terms(n)`, on the power basis of Z[zeta_n]: one
    `sum_products_int` per (x, y), conjugation being exponent negation."""
    conj = [[[(-e, a) for e, a in y] for y in col] for col in cols]
    return [[sum_products_int(n, zip(weights, x, y)) for y in conj]
            for x in rows]


def _mul(n: int, a, s: int, b, t: int) -> list[int]:
    """a * b on the power basis of Z[zeta_n], for integer coordinates a in
    Q(zeta_(n/s)) and b in Q(zeta_(n/t))."""
    return _reduce(n, ((s * i + t * j, x * y) for i, x in enumerate(a) if x
                       for j, y in enumerate(b) if y))


def _over_lcm(terms) -> tuple[int, list]:
    """(d, [(key, a * d // b)]) for triples (key, a, b): the rationals a/b
    as integer numerators over d, the lcm of the b."""
    den = lcm(*[b for _, _, b in terms])
    return den, [(key, a * (den // b)) for key, a, b in terms]


def _generator(n: int, q: int) -> int:
    """k = 1 mod n/q generating Gal(Q(zeta_n)/Q(zeta_(n/q))), odd q || n."""
    g = next(g for g in range(2, q) if all(pow(g, (q - 1) // r, q) != 1
                                           for r in prime_factors(q - 1)))
    return 1 + n // q * ((g - 1) * pow(n // q, -1, q) % q)


def _fixed_test(n: int, q: int, vec) -> list[int]:
    """A Z-linear map of x = sum vec[j] * z^j that vanishes exactly when x
    lies in Q(zeta_(n/q)), for q | n prime and n != 2 mod 4: the coordinates
    off multiples of q if q^2 | n (1, z, ..., z^(q-1) is a basis of Q(zeta_n)
    over Q(zeta_(n/q))), otherwise `reduce_int`(sigma_k x) - x."""
    if n % (q * q) == 0:
        return [c for j, c in enumerate(vec) if j % q]
    k = _generator(n, q)
    return [a - c for a, c in
            zip(_reduce(n, ((j * k, c) for j, c in enumerate(vec))), vec)]


def _descend(n: int, q: int, vec) -> list[int] | None:
    """Integer coordinates of x in Q(zeta_(n/q)), q | n prime, or None if x
    is not there."""
    m = n // q
    if q == 2 and m % 2:  # zeta_n = -zeta_m^((m+1)/2)
        return _reduce(m, ((j * (m + 1) // 2, -c if j % 2 else c)
                           for j, c in enumerate(vec)))
    if any(_fixed_test(n, q, vec)):
        return None
    if m % q == 0:
        return vec[::q]
    # Tr(zeta_n^j) is zeta_m^(j/q) times q-1 if q | j, and times -1 if not
    u = pow(q, -1, m)
    return [c // (q - 1) for c in _reduce(
        m, ((j * u, c * (q - 1) if j % q == 0 else -c)
            for j, c in enumerate(vec)))]


class CycloNum:
    """sum num[j] * zeta_order^j / den, for integers num[j] and a positive
    integer den, held in canonical form."""

    __slots__ = ("order", "_num", "_den", "_hash")

    def __init__(self, order: int, num, den: int = 1,
                 _at_conductor: bool = False):
        if not _at_conductor:
            order, num = _normalise(order, num)
        g = gcd(den, *num)
        self.order = order
        self._num = tuple(c // g for c in num)
        self._den = den // g
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":  # q an int or a Fraction
        return CycloNum(1, (q.numerator,), q.denominator, _at_conductor=True)

    @staticmethod
    def zeta(n: int, e: int = 1) -> "CycloNum":
        return CycloNum.from_exponents(n, {e: 1})

    @staticmethod
    def from_exponents(n: int, coeffs: dict) -> "CycloNum":
        """Build sum of c_e * zeta_n^e from a sparse exponent map with int
        or Fraction values."""
        if n < 1:
            raise CycloError(f"root-of-unity order must be positive, got {n}")
        den, terms = _over_lcm([(e, c.numerator, c.denominator)
                                for e, c in coeffs.items()])
        return CycloNum(n, _reduce(n, terms), den)

    # -- views -------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise CycloError(f"not a rational number: {self}")
        return Fraction(self._num[0], self._den)

    def is_algebraic_integer(self) -> bool:
        return self._den == 1

    def coeffs(self, n: int | None = None) -> tuple[Fraction, ...]:
        """Rational coordinates on the power basis of Q(zeta_n), n a
        multiple of the order (the order itself by default)."""
        num = self._num
        if n not in (None, self.order):
            num = _reduce(n, (((n // self.order) * j, c)
                              for j, c in enumerate(num)))
        return tuple(Fraction(c, self._den) for c in num)

    def int_terms(self, n: int) -> list[tuple[int, int]] | None:
        """Pairs (e, c), self = sum c * zeta_n^e for n a multiple of the
        order; None if self is not an algebraic integer."""
        if self._den != 1:
            return None
        step = n // self.order
        return [(step * e, c) for e, c in enumerate(self._num) if c]

    def __bool__(self) -> bool:
        return any(self._num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "CycloNum":
        return lincomb([(1, self), (1, _coerce(other))])

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, [-c for c in self._num], self._den,
                        _at_conductor=True)

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CycloNum":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other)
        if self.order == 1:
            q = self._num[0]
            if not q:
                return self
            return CycloNum(other.order, [q * c for c in other._num],
                            self._den * other._den, _at_conductor=True)
        if other.order == 1:
            return other * self
        n = lcm(self.order, other.order)
        return CycloNum(n, _mul(n, self._num, n // self.order,
                                other._num, n // other.order),
                        self._den * other._den)

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse, by norms down the tower of subfields."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        n, y, cofactors = self.order, self._num, []
        while n > 1:
            q = prime_factors(n)[0]
            m, c = n // q, [1]
            for k in range(1 + m, n, m):  # H less 1: k = 1 mod m, prime to n
                if gcd(k, n) == 1:
                    c = _mul(n, c, 1, _reduce(n, ((j * k, a) for j, a
                                                  in enumerate(y))), 1)
            cofactors.append((n, c))
            n, y = m, _descend(n, q, _mul(n, y, 1, c, 1))
        # y is the integer norm N of the numerators, their product with all
        # the cofactors; 1/x = den * (product of the cofactors) / N
        inv, order = [self._den if y[0] > 0 else -self._den], 1
        for n, c in reversed(cofactors):
            inv, order = _mul(n, inv, n // order, c, 1), n
        # Q(1/a) = Q(a), so the inverse is already at its conductor
        return CycloNum(order, inv, abs(y[0]), _at_conductor=True)

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
                                       for j, c in enumerate(self._num))),
                        self._den, _at_conductor=True)

    def conjugate(self) -> "CycloNum":
        return self.galois(-1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (self.order == other.order and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self._num, self._den))
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
    den, weights = _over_lcm([(x, q.numerator, q.denominator * x._den)
                              for q, x in terms])
    return CycloNum(n, _reduce(n, (((n // x.order) * j, w * c)
                                   for x, w in weights
                                   for j, c in enumerate(x._num) if c)), den)


def _normalise(n: int, vec) -> tuple[int, list[int]]:
    """(conductor, coordinates there) of the element, one prime at a time;
    once x is not in Q(zeta_(n/q)) it is in no Q(zeta_d), d | n/q."""
    if not any(vec[1:]):  # a rational, on the basis 1, z, z^2, ...
        return 1, vec[:1]
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


def conductor_tests(n: int, vec: list[int], p: int):
    """`_descend`'s tests at p alone on x = sum vec[j] * z^j in Z[zeta_n], on
    `reduce_int`'s basis, as pairs (t, y) in descending t: the conductor
    p-part of x is the first t with y nonzero, and 1 if there is none.  Each
    y is a `_fixed_test`, Z-linear in vec; after a test at p^2 | n the next
    reads the slice vec[::p].  Q(zeta_n) = Q(zeta_(n/2)) when n = 2 mod 4."""
    while n % p == 0 and (p != 2 or n % 4 == 0):
        yield p_part(n, p), _fixed_test(n, p, vec)
        n, vec = n // p, vec[::p]


def conductor_p_int(n: int, vec: list[int], p: int) -> int:
    """The p-part of the conductor c of x = sum vec[j] * z^j in Z[zeta_n], on
    `reduce_int`'s basis, by `conductor_tests`: Q(zeta_a) and Q(zeta_b) meet
    in Q(zeta_gcd(a, b)) and c is never 2 mod 4, so x lies in Q(zeta_(n/p))
    exactly when p does not divide c / gcd(c, n/p)."""
    return next((t for t, y in conductor_tests(n, vec, p) if any(y)), 1)


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

    def atom(self) -> tuple[int, int]:
        # 'E(' n ')' ['^' e] as (n, e); a term c * E(n)^e is (c, n, e)
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
        return n, e

    def term(self) -> tuple[Fraction, int, int]:
        if self.peek() == "E":
            return (Fraction(1),) + self.atom()
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
            return (coeff,) + self.atom()
        return coeff, 1, 0

    def expr(self) -> CycloNum:
        op, terms = self.peek(), []
        if op == "-":
            self.take("-")
        while True:
            c, n, e = self.term()
            terms.append((-c if op == "-" else c, n, e))
            op = self.peek()
            if op not in ("+", "-"):
                break
            self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        order = lcm(*[n for _, n, _ in terms])
        den, terms = _over_lcm([(e * (order // n), c.numerator, c.denominator)
                                for c, n, e in terms])
        return CycloNum(order, _reduce(order, terms), den)


def parse_cyclo(expr: str) -> CycloNum:
    """Parse an E(n)-notation cyclotomic expression into canonical form."""
    return _Parser(expr).expr()


def _frac_str(num: int, den: int) -> str:
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def cyclo_to_str(a: CycloNum) -> str:
    """Print in the input grammar; parse(cyclo_to_str(a)) == a."""
    if a.order == 1:
        return _frac_str(a._num[0], a._den)
    parts = []
    for e, c in enumerate(a._num):
        if not c:
            continue
        atom = f"E({a.order})" if e == 1 else f"E({a.order})^{e}" if e else None
        mag = _frac_str(abs(c), a._den)
        if atom is None:
            body = mag
        elif mag == "1":
            body = atom
        else:
            body = f"{mag}*{atom}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)
