"""Reduction of cyclotomic integers modulo a fixed prime ideal above p.

Write N = p^a n' with p not dividing n', and f for the order of p mod n'.
The target field F_{p^f} is Z/p[x] modulo g, the least monic divisor of
degree f of Phi_{n'} mod p, and zeta_{n'} goes to x mod g.  Every such
divisor is irreducible: over F_p all irreducible factors of Phi_{n'} have
degree f (Lidl-Niederreiter, Finite Fields, Thm 2.47).  So no irreducibility
test or primitive-element search is needed, and repeated runs pick the same
ideal.  Blocks and Brauer correspondents read off the residues do not depend
on which prime above p is picked.  Each map holds the images of zeta_N^e for
e = 0..N-1, built once by successive multiplication, so that reducing a
value is an integer sum of table rows and one reduction mod p.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .cyclo import CycloError, CycloNum, cyclotomic_poly, p_part


class ResidueError(ValueError):
    pass


# -- polynomial helpers over Z/p (coefficient lists, ascending) -------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a, mod, p):
    a = a[:]
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a[:dm])

def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_rem(a[:], mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


class PrimeFieldElem(namedtuple("PrimeFieldElem", "field coords")):
    """Element of F_{p^f}: coefficient vector modulo the field's modulus.
    `field` is its `ResidueMap`, compared by identity."""

    __slots__ = ()

    def _check_field(self, other: "PrimeFieldElem"):
        if self.field is not other.field:
            raise ResidueError("elements of different residue fields")

    def __add__(self, other: "PrimeFieldElem") -> "PrimeFieldElem":
        self._check_field(other)
        p = self.field.p
        return PrimeFieldElem(self.field, tuple((a + b) % p for a, b in
                                                zip(self.coords, other.coords)))

    def __mul__(self, other: "PrimeFieldElem") -> "PrimeFieldElem":
        self._check_field(other)
        m = self.field
        prod = _poly_mulmod(list(self.coords), list(other.coords), list(m.modulus), m.p)
        return m._elem(prod)

    def __pow__(self, e: int) -> "PrimeFieldElem":
        m = self.field
        return m._elem(_poly_powmod(list(self.coords), e, list(m.modulus), m.p))

    def __bool__(self) -> bool:
        return any(self.coords)


class ResidueMap:
    """Ring homomorphism Z[zeta_N] -> F_{p^f} with zeta_{p^a} -> 1, for a
    `modulus` of degree f = `field_degree`, monic irreducible over Z/p with
    ascending coefficients.  `root_image`, x mod modulus, is the image of
    zeta_{n'}, and `zeta_powers[e]` the coords of zeta_N^e for e < N."""

    def __init__(self, ambient_order: int, p: int, field_degree: int,
                 modulus: tuple[int, ...]):
        self.ambient_order, self.p = ambient_order, p
        self.field_degree, self.modulus = field_degree, modulus
        self.root_image = self._elem(_poly_rem([0, 1], modulus, p))
        # zeta_N = zeta_{p^a}^c * zeta_{n'}^d with d * p^a = 1 mod n'
        pa = p_part(ambient_order, p)
        step = self.root_image ** pow(pa, -1, ambient_order // pa)
        powers = [self.one]
        for _ in range(ambient_order - 1):
            powers.append(powers[-1] * step)
        self.zeta_powers = tuple(x.coords for x in powers)

    def _elem(self, coeffs: list[int]) -> PrimeFieldElem:
        coeffs = list(coeffs) + [0] * (self.field_degree - len(coeffs))
        return PrimeFieldElem(self, tuple(c % self.p for c in coeffs[: self.field_degree]))

    @property
    def one(self) -> PrimeFieldElem:
        return self._elem([1])

    @property
    def zero(self) -> PrimeFieldElem:
        return self._elem([])


def _multiplicative_order(p: int, n: int) -> int:
    f, acc = 1, p % n
    while acc != 1:
        acc = acc * p % n
        f += 1
    return f


@lru_cache(maxsize=64)
def build_residue_map(N: int, p: int) -> ResidueMap:
    """Deterministic residue map for Q(zeta_N) at the prime p."""
    if N < 1:
        raise ResidueError(f"ambient order must be positive, got {N}")
    pa = p_part(N, p)
    nprime = N // pa
    f = 1 if nprime == 1 else _multiplicative_order(p, nprime)
    phi = [c % p for c in cyclotomic_poly(nprime)]

    def digits(code):  # low coefficients first
        return [(code // p ** i) % p for i in range(f)]
    # the least monic divisor of degree f in the order of `digits`; one
    # exists, since Phi_{n'} mod p is a product of irreducibles of degree f
    modulus = next(tuple(c + [1]) for c in map(digits, range(p ** f))
                   if not _poly_rem(phi, c + [1], p))
    return ResidueMap(N, p, f, modulus)


def reduce_cyclo(m: ResidueMap, a: CycloNum) -> PrimeFieldElem:
    """Image of an integral cyclotomic number under the residue map."""
    if not a.is_algebraic_integer():
        raise ResidueError(f"cannot reduce a non-integral value: {a}")
    N = m.ambient_order
    if N % a.order != 0:
        raise CycloError(
            f"value of order {a.order} does not embed in the ambient Q(zeta_{N})")
    out = [0] * m.field_degree
    for e, c in a.int_terms(N):
        out = [x + c * y for x, y in zip(out, m.zeta_powers[e])]
    return m._elem(out)
