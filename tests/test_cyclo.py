"""Exact cyclotomic arithmetic, checked against a floating-point complex
embedding oracle and hand-computed field facts."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from charcond.cyclo import (ONE, ZERO, CycloNum, conductor, conductor_p,
                            cyclo_to_str, cyclotomic_poly, divisors, euler_phi,
                            lincomb, p_part, parse_cyclo)


def embed(a: CycloNum) -> complex:
    """Numeric image of a under zeta_n -> exp(2 pi i / n)."""
    return sum(complex(f) * cmath.exp(2j * cmath.pi * e / a.order)
               for e, f in a.exponent_coeffs().items())


def random_cyclo(rng, n: int) -> CycloNum:
    coeffs = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for e in rng.sample(range(n), min(n, 3))}
    return CycloNum.from_exponents(n, coeffs)


class TestBasics:
    def test_euler_phi(self):
        assert [euler_phi(n) for n in (1, 2, 3, 4, 8, 9, 12, 60)] == \
            [1, 1, 2, 2, 4, 6, 4, 16]

    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_p_part(self):
        assert p_part(360, 2) == 8
        assert p_part(360, 5) == 5
        assert p_part(7, 5) == 1

    def test_cyclotomic_poly(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)

    def test_i_squared(self):
        i = CycloNum.zeta(4)
        assert i * i == CycloNum.from_rational(-1)

    def test_rational_detection(self):
        a = CycloNum.zeta(5)
        s = a + a.galois(2) + a.galois(3) + a.galois(4)
        assert s.is_rational and s.rational_value() == -1

    def test_canonical_order_never_2_mod_4(self):
        # zeta_6 = -zeta_3^2 lives in Q(zeta_3)
        z6 = CycloNum.zeta(6)
        assert z6.order == 3
        assert z6 == -(CycloNum.zeta(3) * CycloNum.zeta(3))


class TestConductor:
    def test_rationals_have_conductor_1(self):
        assert conductor([CycloNum.from_rational(Fraction(7, 3))]) == 1

    def test_sqrt5_has_conductor_5(self):
        z = CycloNum.zeta(5)
        sqrt5 = z - z.galois(2) - z.galois(3) + z.galois(4)
        assert (sqrt5 * sqrt5).rational_value() == 5
        assert conductor([sqrt5]) == 5

    def test_sqrt2_has_conductor_8(self):
        z = CycloNum.zeta(8)
        sqrt2 = z + z.galois(7)
        assert (sqrt2 * sqrt2).rational_value() == 2
        assert conductor([sqrt2]) == 8

    def test_sqrt_minus3_has_conductor_3(self):
        z = CycloNum.zeta(3)
        r = z - z.galois(2)
        assert (r * r).rational_value() == -3
        assert conductor([r]) == 3

    def test_set_conductor_is_lcm_of_generators(self):
        vals = [CycloNum.zeta(3), CycloNum.zeta(4)]
        assert conductor(vals) == 12

    def test_p_part_of_conductor(self):
        vals = [CycloNum.zeta(12)]
        assert conductor_p(vals, 2) == 4
        assert conductor_p(vals, 3) == 3
        assert conductor_p(vals, 5) == 1

    def test_conductor_of_sum_can_drop(self):
        z = CycloNum.zeta(5)
        assert conductor([z + z.galois(2) + z.galois(3) + z.galois(4)]) == 1


class TestAlgebraicIntegers:
    def test_golden_ratio_is_integral(self):
        z = CycloNum.zeta(5)
        sqrt5 = z - z.galois(2) - z.galois(3) + z.galois(4)
        phi = (CycloNum.from_rational(1) + sqrt5) * Fraction(1, 2)
        assert phi.is_algebraic_integer()

    def test_half_is_not_integral(self):
        assert not CycloNum.from_rational(Fraction(1, 2)).is_algebraic_integer()

    def test_scaled_root_is_not_integral(self):
        assert not (CycloNum.zeta(5) * Fraction(1, 3)).is_algebraic_integer()


class TestNumericOracle:
    """Exact operations agree with complex floating point to 1e-9."""

    ORDERS = (1, 3, 4, 5, 7, 8, 9, 12, 15)

    def test_ring_operations(self):
        rng = random.Random(20240817)
        for _ in range(300):
            n = rng.choice(self.ORDERS)
            m = rng.choice(self.ORDERS)
            a, b = random_cyclo(rng, n), random_cyclo(rng, m)
            assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9
            assert abs(embed(a - b) - (embed(a) - embed(b))) < 1e-9
            assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-9
            if b:
                assert abs(embed(a / b) - embed(a) / embed(b)) < 1e-9

    def test_galois_and_conjugate(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.choice(self.ORDERS)
            a = random_cyclo(rng, n)
            assert abs(embed(a.conjugate()) - embed(a).conjugate()) < 1e-9
            k = rng.choice([k for k in range(1, max(n, 2))
                            if math.gcd(k, max(n, 1)) == 1] or [1])
            # galois(k) followed by galois(k') with k*k' = 1 mod n is identity
            if n > 1:
                kinv = pow(k, -1, n)
                assert a.galois(k).galois(kinv) == a

    def test_inverse(self):
        rng = random.Random(99)
        for _ in range(100):
            a = random_cyclo(rng, rng.choice(self.ORDERS))
            if a:
                assert a * a.invert() == CycloNum.from_rational(1)


class TestParser:
    @pytest.mark.parametrize("text,value", [
        ("0", CycloNum.from_rational(0)),
        ("-3/2", CycloNum.from_rational(Fraction(-3, 2))),
        ("E(4)", CycloNum.zeta(4)),
        ("E(5)^3", CycloNum.zeta(5, 3)),
        ("1+E(3)+E(3)^2", CycloNum.from_rational(0)),
        ("2*E(7)^2-1/3*E(7)", 2 * CycloNum.zeta(7, 2)
         - Fraction(1, 3) * CycloNum.zeta(7)),
    ])
    def test_parse(self, text, value):
        assert parse_cyclo(text) == value

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            a = random_cyclo(rng, rng.choice((1, 4, 5, 8, 9, 12)))
            assert parse_cyclo(cyclo_to_str(a)) == a

    @pytest.mark.parametrize("bad", ["", "E()", "E(0)", "1+", "E(4)^", "x"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_cyclo(bad)


class TestLincomb:
    """lincomb (one embedding, one normalisation) against the left fold of
    `+` and `*` that it replaces."""

    ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16)

    @staticmethod
    def fold(terms):
        acc = ZERO
        for q, x in terms:
            acc = acc + q * x
        return acc

    def test_matches_fold(self):
        # as in test_properties, terms come from two independently drawn
        # orders, so sums live in Q(zeta_lcm) with lcm up to 240
        rng = random.Random(31)
        for _ in range(300):
            orders = (rng.choice(self.ORDERS), rng.choice(self.ORDERS))
            terms = []
            for _ in range(rng.randint(1, 6)):
                q = rng.choice([0, rng.randint(-5, 5),
                                Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
                x = random_cyclo(rng, rng.choice(orders))
                if rng.random() < 0.1:
                    x = ZERO
                terms.append((q, x))
            assert lincomb(terms) == self.fold(terms)

    def test_empty_and_zero_sums(self):
        assert lincomb([]) == ZERO
        assert lincomb([(0, CycloNum.zeta(5)), (3, ZERO)]) == ZERO
        z = CycloNum.zeta(3)
        assert lincomb([(1, ONE), (1, z), (1, z * z)]) == ZERO

    def test_descends_to_conductor(self):
        z = CycloNum.zeta(5)
        total = lincomb((1, z.galois(k)) for k in range(1, 5))
        assert total.is_rational and total.rational_value() == -1
        # sqrt(-3) from Q(zeta_12) terms lands in Q(zeta_3)
        i = CycloNum.zeta(4)
        s = lincomb([(2, CycloNum.zeta(12, 2)), (-1, ONE), (0, i)])
        assert s.order == 3 and (s * s).rational_value() == -3
