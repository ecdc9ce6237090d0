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
`reduce_int` clears by the relation z^phi(n) = -(lower terms of Phi_n),
held per order (`_relation`); `cyclotomic_poly` builds Phi_n as a power
series truncated past degree phi(n), one pass per factor 1 - x^d.
On algebraic integers, `hermitian_int` is the one weighted Hermitian sum
sum_c w_c x_c conj(y_c) of class functions (inner products, reciprocity,
restrictions, Gram forms), with conj read as the exponent map e -> -e.
Two views read an element: `coeffs(n)`, rational coordinates on the power
basis of Q(zeta_n), and `int_terms(n)`, the integer pairs (e, c) of an
algebraic integer as a sum of c * zeta_n^e.  `int_rows` is the one place
matrices of values become integer terms, at the lcm of their orders, and
`pack` the one place integer vectors become single integers.

Conductors and inverses walk down the fields Q(zeta_n) > Q(zeta_(n/q)), one
prime q | n at a time, with no linear solve.  If n = 2 mod 4 the fields are
equal; otherwise x lies in Q(zeta_(n/q)) iff a Z-linear test of its
numerators vanishes (`_fixed_test`): if q^2 | n, its coordinates off
multiples of q; if not, sigma(x) - x for a generator sigma of the cyclic
H = Gal(Q(zeta_n)/Q(zeta_(n/q))).  `_descend` maps the coordinates of an x
that lies there one field down: if q || n, x = Tr_H(x)/(q-1), a division
that is exact on numerators since Z[zeta_n] meets Q(zeta_(n/q)) in
Z[zeta_(n/q)].  `_normalise` descends while some prime lets the element
down; `invert` multiplies the numerators y by c, the product of their
nontrivial H-conjugates, so that y*c = N_H(y) lies one field down with no
test, and collects the c on the way down to the integer norm N:
1/x = den * c / N.  A level with n = 2 mod 4 has trivial H and only
descends, and the walk stops as soon as y is rational.  `conductor_tests`
runs the same tests at one prime, as Z-linear maps.

Normalisation tests only the primes where the conductor can drop
(`_tied`).  If, among the canonical terms of a sum in Q(zeta_n) or the two
factors of a product, exactly one reaches the q-part of n, the result keeps
that q-part: Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a, b)), so were the
result in Q(zeta_(n/q)), that one term (the result less the others, or over
the other factor) would lie in a field with a smaller q-part than its
conductor.  `parse_cyclo` applies the rule to the conductors of its atoms.
"""

from __future__ import annotations

import re
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
    """p-adic valuation of a positive integer, p >= 2."""
    if n < 1 or p < 2:
        raise CycloError(f"nu_p needs n >= 1 and p >= 2, got {n} and {p}")
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


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.  For
    n > 1, Phi_n(x) is the product of (1 - x^d)^mu(n/d) over the d | n with
    n/d squarefree, as a power series truncated past x^phi(n): a factor
    with d > phi(n) leaves those coefficients alone, and each other one is
    one pass over them, times 1 - x^d or times 1 + x^d + x^(2d) + ...
    (Arnold and Monagan, Math. Comp. 80, 2011)."""
    if n == 1:
        return (-1, 1)
    k = euler_phi(n)
    poly, factors = [1] + [0] * k, [(n, 1)]
    for q in prime_factors(n):
        factors += [(d // q, -mu) for d, mu in factors]
    for d, mu in factors:  # both ranges are empty if d > k
        if mu > 0:
            for i in range(k, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, k + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


@lru_cache(maxsize=256)
def _relation(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), pairs (j - phi(n), a) for the nonzero a = Phi_n[j], j below
    phi(n)): z^phi(n) = -sum a * z^j, the relation `reduce_int` clears by."""
    poly = cyclotomic_poly(n)
    k = len(poly) - 1
    return k, tuple((j - k, a) for j, a in enumerate(poly[:k]) if a)


def reduce_int(n: int, acc: list[int]) -> list[int]:
    """sum acc[e] * z^e on the power basis of Z[zeta_n]: the remainder by
    the monic Phi_n, computed in place in the integer list acc."""
    k, low = _relation(n)
    for top in range(n - 1, k - 1, -1):
        c = acc[top]
        if c:
            for j, a in low:
                acc[top + j] -= c * a
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


def int_rows(*matrices) -> tuple:
    """(n, each matrix as `int_terms(n)`), n the lcm of the orders of all
    the values in all the matrices; a non-integral value's terms are None."""
    n = lcm(*[x.order for rows in matrices for row in rows for x in row])
    return (n, *[[[x.int_terms(n) for x in row] for row in rows]
                 for rows in matrices])


def hermitian_int(n: int, weights, rows, cols) -> list[list[list[int]]]:
    """sum_c w_c * x_c * conj(y_c) for each row x and each col y, all given
    as `int_terms(n)`, on the power basis of Z[zeta_n]: one
    `sum_products_int` per (x, y), conjugation being exponent negation."""
    conj = [[[(-e, a) for e, a in y] for y in col] for col in cols]
    return [[sum_products_int(n, zip(weights, x, y)) for y in conj]
            for x in rows]


def pack(fields, width: int) -> int:
    """sum fields[i] * 2^(width * i): integer vectors as one integer, so
    that a linear combination of vectors is one of integers."""
    return sum(f << width * i for i, f in enumerate(fields))


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


@lru_cache(maxsize=256)
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


def _descend(n: int, q: int, vec) -> list[int]:
    """Integer coordinates in Q(zeta_(n/q)), q | n prime, of an x that lies
    there."""
    m = n // q
    if q == 2 and m % 2:  # zeta_n = -zeta_m^((m+1)/2)
        return _reduce(m, ((j * (m + 1) // 2, -c if j % 2 else c)
                           for j, c in enumerate(vec)))
    if m % q == 0:
        return vec[::q]
    # Tr(zeta_n^j) is zeta_m^(j/q) times q-1 if q | j, and times -1 if not
    u = pow(q, -1, m)
    return [c // (q - 1) for c in _reduce(
        m, ((j * u, c * (q - 1) if j % q == 0 else -c)
            for j, c in enumerate(vec)))]


@lru_cache(maxsize=256)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """(q, p_part(n, q)) for each prime q | n, ascending."""
    return tuple((q, p_part(n, q)) for q in prime_factors(n))


def _tied(n: int, orders) -> list[int]:
    """The primes q | n where a sum or product in Q(zeta_n) of nonzero terms
    at these conductors can lie in Q(zeta_(n/q)): all but those where one
    order alone reaches the q-part of n (see the module docstring)."""
    out = []
    for q, t in _prime_powers(n):
        reached = 0
        for c in orders:
            if c % t == 0:
                reached += 1
        if reached != 1:
            out.append(q)
    return out


class CycloNum:
    """sum num[j] * zeta_order^j / den, for integers num[j] and a positive
    integer den, held in canonical form.  Inside this module, `_primes`
    lists the primes where the element can leave Q(zeta_order), none if
    order is its conductor; by default every prime is tested."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, num, den: int = 1, _primes=None):
        if _primes is None:
            if order < 1 or den < 1 or len(num) != euler_phi(order):
                raise CycloError(f"no element of order {order} with "
                                 f"{len(num)} numerators over {den}")
            _primes = prime_factors(order)
        if _primes:
            order, num = _normalise(order, num, _primes)
        g = gcd(den, *num)
        self.order = order
        self._num = tuple(num) if g == 1 else tuple([c // g for c in num])
        self._den = den // g

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":  # q an int or a Fraction
        return CycloNum(1, (q.numerator,), q.denominator, _primes=())

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
            num = _reduce(n, ((self._step(n) * j, c)
                              for j, c in enumerate(num)))
        return tuple(Fraction(c, self._den) for c in num)

    def int_terms(self, n: int) -> list[tuple[int, int]] | None:
        """Pairs (e, c), self = sum c * zeta_n^e for n a multiple of the
        order; None if self is not an algebraic integer."""
        step = self._step(n)
        if self._den != 1:
            return None
        return [(step * e, c) for e, c in enumerate(self._num) if c]

    def _step(self, n: int) -> int:
        """n / order, the exponent of zeta_n that is zeta_order."""
        if n < 1 or n % self.order:
            raise CycloError(f"Q(zeta_{n}) does not contain Q(zeta_"
                             f"{self.order})")
        return n // self.order

    def __bool__(self) -> bool:
        return any(self._num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "CycloNum":
        return lincomb([(1, self), (1, _coerce(other))])

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, [-c for c in self._num], self._den,
                        _primes=())

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
                            self._den * other._den, _primes=())
        if other.order == 1:
            return other * self
        n = lcm(self.order, other.order)
        return CycloNum(n, _mul(n, self._num, n // self.order,
                                other._num, n // other.order),
                        self._den * other._den,
                        _tied(n, (self.order, other.order)))

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse, by norms down the tower of subfields."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        n, y, cofactors = self.order, self._num, []
        while any(y[1:]):  # else y is the integer N on the basis 1, z, ...
            q = prime_factors(n)[0]
            m, c = n // q, None
            if n % 4 != 2:  # else Q(zeta_n) = Q(zeta_m) and H is trivial
                for k in range(1 + m, n, m):  # k = 1 mod m
                    if gcd(k, n) == 1:  # k in H, k != 1
                        image = _reduce(n, ((j * k, a) for j, a
                                            in enumerate(y)))
                        c = image if c is None else _mul(n, c, 1, image, 1)
                cofactors.append((n, c))
                y = _mul(n, y, 1, c, 1)
            n, y = m, _descend(n, q, y)
        # y is the norm N of the numerators, their product with all the
        # cofactors; 1/x = den * (product of the cofactors) / N
        den = self._den if y[0] > 0 else -self._den
        order, inv = cofactors.pop() if cofactors else (1, [1])
        inv = [den * a for a in inv]
        for n, c in reversed(cofactors):
            inv, order = _mul(n, inv, n // order, c, 1), n
        # Q(1/a) = Q(a), so the inverse is already at its conductor
        return CycloNum(order, inv, abs(y[0]), _primes=())

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
                        self._den, _primes=())

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
        return hash((self.order, self._num, self._den))

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
                                   for j, c in enumerate(x._num) if c)), den,
                    _tied(n, [x.order for _, x in terms]))


def _normalise(n: int, vec, primes) -> tuple[int, list[int]]:
    """(conductor, coordinates there) of the element, testing the given
    primes one at a time; once x is not in Q(zeta_(n/q)) it is in no
    Q(zeta_d), d | n/q."""
    if not any(vec[1:]):  # a rational, on the basis 1, z, z^2, ...
        return 1, vec[:1]
    for q in primes:
        while n % q == 0 and (q == 2 and n % 4 == 2
                              or not any(_fixed_test(n, q, vec))):
            n, vec = n // q, _descend(n, q, vec)
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
    """`_normalise`'s tests at p alone on x = sum vec[j] * z^j in Z[zeta_n], on
    `reduce_int`'s basis, as pairs (t, y) in descending t: the conductor
    p-part of x is the first t with y nonzero, and 1 if there is none, since
    Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)) and a conductor is
    never 2 mod 4.  Each y is a `_fixed_test`, Z-linear in vec; after a test
    at p^2 | n the next reads the slice vec[::p].  Q(zeta_n) = Q(zeta_(n/2))
    when n = 2 mod 4."""
    while n % p == 0 and (p != 2 or n % 4 == 0):
        yield p_part(n, p), _fixed_test(n, p, vec)
        n, vec = n // p, vec[::p]


# ---------------------------------------------------------------------------
# the E(n) expression grammar


_WS = re.compile(r"\s*")
# one signed term: [c[/d]][*]E(n)[^e], every part optional so that the
# first missing one locates a syntax error
_TERM = re.compile(
    r"\s*(?P<op>[-+]?)\s*(?:(?P<c>-?\d+)(?:\s*(?P<sl>/)(?:\s*(?P<d>-?\d+))?)?"
    r"(?:\s*(?P<x>\*))?)?(?:\s*(?P<z>E)(?:\s*(?P<lp>\()(?:\s*(?P<n>-?\d+)"
    r"(?:\s*(?P<rp>\))(?:\s*(?P<hat>\^)(?:\s*(?P<e>-?\d+))?)?)?)?)?)?")


def parse_cyclo(text: str) -> CycloNum:
    """Parse an E(n)-notation cyclotomic expression into canonical form: a
    sum of terms c, c/d, E(n) or c/d*E(n), each E(n) optionally ^e, the
    first one optionally negated; one `_TERM` match per term."""
    def fail(message, pos, skip=False):
        raise CycloParseError(message, _WS.match(text, pos).end() if skip
                              else pos)

    pos, terms = 0, []
    try:
        while True:
            m = _TERM.match(text, pos)
            op, c, sl, d, x, z, lp, n, rp, hat, e = m.groups()
            if terms and not op:
                break
            if op == "+" and not terms:
                fail("expected an integer", m.start("op"))
            if c is None and not z:
                fail("expected an integer", m.end())
            if sl and d is None:
                fail("expected an integer", m.end("sl"), True)
            if d is not None and int(d) <= 0:
                fail("denominator must be a positive integer", m.end("d"))
            coeff = ((-1 if op == "-" else 1) * int(c or 1), int(d or 1))
            if c is not None and not x:
                terms.append(coeff + (1, 0))
                pos = m.end("d" if sl else "c")
                continue
            if not z:
                fail("expected 'E'", m.end("x"), True)
            if not lp:
                fail("expected '('", m.end("z"), True)
            if n is None:
                fail("expected an integer", m.end("lp"), True)
            if int(n) <= 0:
                fail(f"E({int(n)}) is not a valid root of unity", m.end("n"))
            if not rp:
                fail("expected ')'", m.end("n"), True)
            if hat and e is None:
                fail("expected an integer", m.end("hat"), True)
            terms.append(coeff + (int(n), int(e) if hat else 1))
            pos = m.end()
    except CycloParseError:
        raise
    except ValueError:  # int() refused a number past the interpreter's
        # digit limit; the try costs nothing until then.  Name the first
        for g in "cdne":
            try:
                int(m[g] or 0)
            except ValueError:
                fail("integer has too many digits", m.start(g))
    pos = m.start("op")
    if pos != len(text):
        fail(f"unexpected {text[pos]!r}", pos)
    order = lcm(*[n for _, _, n, _ in terms])
    den = lcm(*[d for _, d, _, _ in terms])
    acc, conds = [0] * order, []
    for c, d, n, e in terms:
        acc[e * (order // n) % order] += c * (den // d)
        # c * E(n)^e has conductor n / gcd(n, e), halved if that is 2 mod 4,
        # or 1 if c = 0
        k = n // gcd(n, e) if c else 1
        conds.append(k // 2 if k % 4 == 2 else k)
    return CycloNum(order, reduce_int(order, acc), den, _tied(order, conds))


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
        body = mag if atom is None else atom if mag == "1" else f"{mag}*{atom}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)
