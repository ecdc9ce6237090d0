"""Reduction of cyclotomic integers modulo the radical of p.

Write N = p^a n' with p not dividing n'.  Z[zeta_N]/(p) is F_p[x]/(Phi_N),
and Phi_N = Phi_{n'}^phi(p^a) mod p with Phi_{n'} squarefree mod p, so the
quotient by the radical of p, the intersection of the primes above p, is
F_p[x]/(Phi_{n'}).  There zeta_{p^a} goes to 1 and zeta_{n'} to x, hence
zeta_N to x^t with t = p^(-a) mod n'.  Two values have equal images exactly
when they are congruent modulo every prime above p; no prime is chosen, so
no factor of Phi_{n'} mod p is searched for.

Blocks read off these residues are the p-blocks.  The block partition does
not depend on the prime above p: by Osima's theorem, chi and psi are linked
when sum_s chi(s) conj(psi(s)) over the p-regular s is nonzero, which names
no prime (Navarro, Characters and Blocks of Finite Groups, ch. 3).  So
congruence modulo one prime above p and modulo all of them link the same
characters.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import CycloError, CycloNum, lincomb_int, p_part


class ResidueError(ValueError):
    pass


class ResidueMap(namedtuple("ResidueMap", "ambient_order p nprime zeta_power")):
    """Z[zeta_N] -> F_p[x]/(Phi_{n'}) for N = `ambient_order` = p^a n',
    sending zeta_N to x^`zeta_power`."""

    __slots__ = ()


def build_residue_map(N: int, p: int) -> ResidueMap:
    """The reduction of Z[zeta_N] modulo the radical of the prime p."""
    if N < 1:
        raise ResidueError(f"ambient order must be positive, got {N}")
    nprime = N // p_part(N, p)
    return ResidueMap(N, p, nprime, pow(N // nprime, -1, nprime))


def reduce_cyclo(m: ResidueMap, a: CycloNum) -> tuple[int, ...]:
    """Image of an integral cyclotomic number: its coordinates mod p on the
    power basis 1, x, ..., x^(phi(n')-1), by one reduction mod Phi_{n'}."""
    if not a.is_algebraic_integer():
        raise ResidueError(f"cannot reduce a non-integral value: {a}")
    N = m.ambient_order
    if N % a.order != 0:
        raise CycloError(
            f"value of order {a.order} does not embed in the ambient Q(zeta_{N})")
    terms = [(e * m.zeta_power, c) for e, c in a.int_terms(N)]
    return tuple(c % m.p for c in lincomb_int(m.nprime, [(1, terms)]))
