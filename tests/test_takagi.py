import random
from fractions import Fraction as F

import pytest

from oracles import (
    brute_g,
    brute_G,
    brute_T_dyadic,
    fd_slope,
    fraction_G,
    reference_slope_seq,
    takagi_periodic,
)
from takagi_lab.exactnum import dyadic_neighbors, is_dyadic
from takagi_lab.takagi import (
    Enclosure,
    _grid_nums,
    G,
    g,
    slope,
    slope_seq,
    slope_sum,
    takagi_enclosure,
    takagi_exact,
)


def random_nondyadic(rng, max_den=997):
    q = rng.choice([3, 5, 7, 9, 11, 13, 21, 33, 99, 341, 683, max_den])
    p = rng.randrange(1, q)
    while (F(p, q) * (1 << 40)).denominator == 1:
        p = rng.randrange(1, q)
    return F(p, q)


class TestGridDistance:
    def test_examples_against_oracle(self):
        assert g(1, F(1, 3)) == brute_g(1, F(1, 3)) == F(1, 6)
        assert g(2, F(1, 3)) == brute_g(2, F(1, 3)) == F(1, 12)
        assert g(3, F(1, 8)) == 0

    def test_bulk_oracle_agreement(self):
        rng = random.Random(7)
        for _ in range(500):
            x = F(rng.randrange(-500, 500), rng.randrange(1, 500))
            k = rng.randrange(1, 20)
            assert g(k, x) == brute_g(k, x)

    def test_bounds_and_periodicity(self):
        rng = random.Random(8)
        for _ in range(300):
            x = F(rng.randrange(-100, 100), rng.randrange(1, 100))
            k = rng.randrange(1, 16)
            value = g(k, x)
            assert 0 <= value <= F(1, 1 << (k + 1))
            assert value == g(k, x + 1)

    def test_index_check(self):
        with pytest.raises(ValueError):
            g(0, F(1, 3))


class TestPartialSums:
    def test_examples(self):
        assert G(2, F(1, 3)) == F(1, 4)
        assert G(0, F(5, 7)) == 0
        assert G(3, F(1, 4)) == F(1, 4)

    def test_classical_adds_integer_distance(self):
        assert G(2, F(1, 3), classical=True) == F(1, 4) + F(1, 3)
        assert G(0, F(1, 4), classical=True) == F(1, 4)


class TestOrbitKernel:
    """The integer orbit kernel against the Fraction sum it replaced."""

    DENOMINATORS = (1, 2, 3, 7, 12, 997, 3 << 10, 1 << 20, 10**9 + 7, (1 << 31) - 1,
                    (1 << 61) - 1, (1 << 89) - 1)

    @staticmethod
    def brute(n, x, classical):
        return brute_G(n, x) + (brute_g(0, x) if classical else 0)

    def test_bit_identical_to_fraction_sum(self):
        rng = random.Random(13)
        cases = [(F(0), 0, False), (F(-5, 3), 300, True), (F(1, (1 << 61) - 1), 300, False),
                 (F(-7, 1 << 20), 300, True), (F(5), 17, True)]
        while len(cases) < 520:
            q = rng.choice(self.DENOMINATORS)
            x = F(rng.randrange(-3 * q, 3 * q + 1), q)
            cases.append((x, rng.randrange(0, 301), rng.random() < 0.5))
        for x, n, classical in cases:
            value = G(n, x, classical=classical)
            assert value == fraction_G(n, x, classical=classical) == self.brute(n, x, classical)
            if n:
                assert g(n, x) == brute_g(n, x)

    def test_integer_and_dyadic_arguments(self):
        for n in (0, 1, 5, 64):
            assert G(n, -4) == G(n, F(-4)) == fraction_G(n, -4) == 0
            assert G(n, 3, classical=True) == 0
            d = F(-13, 64)
            assert G(n, d, classical=True) == fraction_G(n, d, classical=True)
            assert G(n, d) == self.brute(n, d, False)

    def test_deep_slopes_against_finite_differences(self):
        rng = random.Random(14)
        for _ in range(200):
            # even denominators too: their orbit has a pre-period
            q = rng.choice((3, 7, 997, (1 << 61) - 1, (1 << 89) - 1, 6, 3 << 40, 997 << 7))
            x = F(rng.randrange(-2 * q, 2 * q), q)
            if is_dyadic(x):
                continue
            for k in (rng.randrange(1, 151), 150, rng.randrange(151, 4000)):
                assert slope(k, x) == fd_slope(k, x)

    def test_corner_rejected_at_negative_dyadic(self):
        x = F(-3, 8)  # 5/8 mod 1, a corner of g_k for every k >= 2
        assert slope(1, x) == fd_slope(1, x) == 1
        for k in (2, 3, 150):
            with pytest.raises(ValueError, match="corner"):
                slope(k, x)

    def test_deep_enclosure_contains_series_value(self):
        for x in (F(1, 3), F(5, 7), F(-2, 9), F(11, 31), F(1, (1 << 61) - 1)):
            enc = takagi_enclosure(x, 4000)
            assert takagi_periodic(x) in enc
            assert enc.width() == F(1, 1 << 4001)


class TestPeriodClose:
    """``G`` closes Horner's rule after one binary period; ``==`` against the term sum."""

    @staticmethod
    def pre_period_and_period(q):
        L = (q & -q).bit_length() - 1
        odd, P = q >> L, 1
        while pow(2, P, odd) != 1 % odd:
            P += 1
        return L, P

    def test_orders_around_the_period(self):
        rng = random.Random(16)
        # integers, odd, even (a pre-period), pure powers of two (period 1)
        denominators = (1, 2, 3, 5, 7, 9, 11, 12, 13, 24, 31, 40, 96, 127, 255, 341,
                        3 << 9, 7 << 12, 1 << 10, 997, 5 * 7 * 11 * 13)
        for q in denominators:
            L, P = self.pre_period_and_period(q)
            many = max(3, 500 // P)  # whole periods, with a head of t < P terms
            orders = {0, 1, max(L - 1, 0), L, L + 1, L + P - 1, L + P, L + P + 1,
                      L + 2 * P, L + many * P, L + many * P + rng.randrange(P),
                      rng.randrange(L + 3 * P + 1)}
            for _ in range(4):
                x = F(rng.randrange(-3 * q, 3 * q + 1), q)
                for n in orders:
                    for classical in (False, True):
                        assert G(n, x, classical=classical) == fraction_G(
                            n, x, classical=classical), (x, n, classical)

    def test_orbits_that_do_not_return_within_n(self):
        rng = random.Random(17)
        for q, n in (((1 << 61) - 1, 60), ((1 << 61) - 1, 61), (10**9 + 7, 300),
                     (999999999989, 300), (3 << 20, 19), (3 << 20, 21), (997 << 5, 40)):
            for _ in range(6):
                x = F(rng.randrange(-2 * q, 2 * q), q)
                classical = rng.random() < 0.5
                assert G(n, x, classical=classical) == fraction_G(n, x, classical=classical)

    def test_enclosure_after_many_periods(self):
        # 5/24 = 0.0011(01)*: pre-period 3, period 2
        for x in (F(5, 24), F(-5, 24), F(7, 40)):
            for depth in (1, 3, 4, 5, 4000, 4001):
                enc = takagi_enclosure(x, depth, classical=True)
                assert enc.lo == fraction_G(depth, x, classical=True)
                assert enc.width() == F(1, 1 << (depth + 1))
                # the classical series adds G_0, the distance to the integers
                assert takagi_periodic(x) + fraction_G(0, x, classical=True) in enc


class TestClassicalIdentity:
    """``T_c(x) = 2*T(x/2)`` runs the classical variant through the plain kernel;
    the oracles add ``g_0`` term by term, so they gate the identity."""

    def test_enclosure_against_the_term_sum(self):
        rng = random.Random(32)
        # even and odd denominators, negative centres, depth 1
        cases = [(F(1, 3), 1), (F(-5, 6), 1), (F(7, 12), 1), (F(-13, 40), 2), (F(-1, 7), 64)]
        while len(cases) < 300:
            q = rng.choice((3, 5, 6, 7, 9, 12, 20, 24, 40, 96, 127, 341, 997 << 3))
            x = F(rng.randrange(-3 * q, 3 * q + 1), q)
            if not is_dyadic(x):
                cases.append((x, rng.choice((1, 2, rng.randrange(1, 200)))))
        for x, depth in cases:
            enc = takagi_enclosure(x, depth, classical=True)
            assert enc.lo == fraction_G(depth, x, classical=True), (x, depth)
            assert enc.width() == F(1, 1 << (depth + 1))

    def test_dyadic_values_against_brute_force(self):
        rng = random.Random(33)
        # even and odd integers, half-integers, then dyadics of levels 0-11
        xs = [F(k) for k in range(-4, 5)] + [F(k, 2) for k in range(-5, 6, 2)]
        xs += [F(rng.randrange(-(1 << 12), 1 << 12), 1 << rng.randrange(0, 12))
               for _ in range(200)]
        for x in xs:
            value = brute_T_dyadic(x) + brute_g(0, x)
            assert takagi_exact(x, classical=True) == value, x
            enc = takagi_enclosure(x, rng.randrange(1, 9), classical=True)
            assert enc.lo == enc.hi == value, x


class TestExactValues:
    def test_examples(self):
        assert takagi_exact(F(0)) == 0
        assert takagi_exact(F(1, 2)) == 0
        assert takagi_exact(F(1, 4)) == F(1, 4)

    def test_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(500):
            d = F(rng.randrange(-(1 << 14), 1 << 14), 1 << rng.randrange(0, 14))
            assert takagi_exact(d) == brute_T_dyadic(d)

    def test_periodic_at_dyadics(self):
        for d in [F(1, 4), F(3, 8), F(5, 16)]:
            assert takagi_exact(d + 1) == takagi_exact(d)

    def test_classical_variant(self):
        # the textbook variant adds the distance-to-integers tent
        assert takagi_exact(F(1, 4), classical=True) == F(1, 2)
        assert takagi_periodic(F(1, 3)) == F(1, 3)  # series value, k >= 1


class TestGridWalk:
    """The grid walk against one exact value per point."""

    @staticmethod
    def exact(k0, s, count, m, classical):
        return [takagi_exact(F(k0 + i * s, 1 << m), classical=classical) * (1 << m)
                for i in range(count)]

    def test_matches_takagi_exact_on_seeded_grids(self):
        rng = random.Random(30)
        cases = [(k0, s, 9, m, classical) for m in (0, 1, 2) for k0 in (-5, 0, 3)
                 for s in (1, 2, 3) for classical in (False, True)]
        while len(cases) < 400:
            m = rng.randrange(0, 24)
            k0 = rng.randrange(-3 << m, 3 << m)
            cases.append((k0, rng.randrange(1, 2 * m + 3), rng.randrange(1, 40), m,
                          rng.random() < 0.5))
        for k0, s, count, m, classical in cases:
            assert list(_grid_nums(k0, s, count, m + classical)) \
                == self.exact(k0, s, count, m, classical)

    @pytest.mark.parametrize("classical", [False, True])
    def test_deep_grid(self, classical):
        k0 = -(1 << 1999) // 3
        assert list(_grid_nums(k0, 5, 12, 2000 + classical)) \
            == self.exact(k0, 5, 12, 2000, classical)

    def test_values_are_integers_and_periodic(self):
        # N(k) = 2**m * T(k / 2**m) has period 2**m in k
        nums = list(_grid_nums(-16, 1, 48, 4))
        assert all(type(num) is int for num in nums)
        assert nums[:16] == nums[16:32] == nums[32:]


class TestEnclosures:
    def test_contains_series_value(self):
        for x in [F(1, 3), F(1, 5), F(1, 7), F(5, 11)]:
            exact = takagi_periodic(x)
            for depth in (1, 2, 5, 10, 30):
                enc = takagi_enclosure(x, depth)
                assert exact in enc
                assert enc.width() == F(1, 1 << (depth + 1))

    def test_nesting(self):
        x = F(3, 7)
        for depth in range(1, 30):
            outer = takagi_enclosure(x, depth)
            inner = takagi_enclosure(x, depth + 1)
            assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_dyadic_collapse(self):
        enc = takagi_enclosure(F(1, 4), 5)
        assert enc.lo == enc.hi == F(1, 4)

    def test_classical_enclosure(self):
        # classical value at 1/3 is 2/3: one extra geometric tent ladder
        enc = takagi_enclosure(F(1, 3), 30, classical=True)
        assert F(2, 3) in enc

    def test_validation(self):
        with pytest.raises(ValueError):
            takagi_enclosure(F(1, 3), 0)
        with pytest.raises(ValueError):
            Enclosure(F(1), F(0))

    def test_replace_checks_the_new_bounds(self):
        assert Enclosure(F(0), F(1))._replace(lo=F(1, 2)) == Enclosure(F(1, 2), F(1))
        with pytest.raises(ValueError, match="empty enclosure: 2 > 1"):
            Enclosure(F(0), F(1))._replace(lo=F(2))

    def test_no_tuple_repetition_or_order(self):
        e, f = Enclosure(F(0), F(1)), Enclosure(F(1), F(2))
        for op in (lambda: 2 * e, lambda: e * 2, lambda: e < f, lambda: e <= f,
                   lambda: e > f, lambda: e >= f):
            with pytest.raises(TypeError):
                op()


class TestSlopes:
    def test_examples_against_finite_differences(self):
        assert slope(1, F(1, 3)) == fd_slope(1, F(1, 3)) == -1
        assert slope(2, F(1, 3)) == fd_slope(2, F(1, 3)) == 1
        assert slope(1, F(1, 8)) == 1

    def test_bulk_oracle_agreement(self):
        rng = random.Random(10)
        for _ in range(400):
            x = random_nondyadic(rng)
            k = rng.randrange(1, 24)
            assert slope(k, x) == fd_slope(k, x)

    def test_corner_rejected(self):
        with pytest.raises(ValueError):
            slope(2, F(3, 8))  # 3/8 lies on the level-3 grid

    def test_periodic_reduction(self):
        assert slope(3, F(1, 3) + 2) == slope(3, F(1, 3))


class TestSlopeSeq:
    def test_examples(self):
        assert slope_seq(F(1, 3), 4).values == (-1, 0, -1, 0)
        assert slope_seq(F(1, 3), 1).values == (-1,)
        # digits of 1/7 repeat 001; the finite-difference oracle fixes
        # the slopes as +1, -1, +1
        assert tuple(fd_slope(k, F(1, 7)) for k in (1, 2, 3)) == (1, -1, 1)
        assert slope_seq(F(1, 7), 3).values == (1, 0, 1)

    def test_unit_steps_and_parity(self):
        rng = random.Random(11)
        for _ in range(50):
            x = random_nondyadic(rng)
            seq = slope_seq(x, 40)
            for i, v in enumerate(seq.values):
                assert (v - (i + 1)) % 2 == 0
                if i:
                    assert abs(v - seq.values[i - 1]) == 1
                assert v == slope_sum(x, i + 1)

    def test_steps_match_individual_slopes(self):
        x = F(5, 11)
        seq = slope_seq(x, 20)
        prev = 0
        for k in range(1, 21):
            assert seq.values[k - 1] - prev == slope(k, x)
            prev = seq.values[k - 1]

    def test_dyadic_rejected(self):
        with pytest.raises(ValueError):
            slope_seq(F(3, 8), 5)

    def test_slope_sum_matches_the_walk(self):
        # negative centres, even denominators, q up to 2**61 - 1, n up to 400
        rng = random.Random(29)
        dens = (3, 7, 997, 3 << 40, 997 << 7, (1 << 61) - 1)
        for _ in range(400):
            q = rng.choice(dens + (rng.randrange(3, 10**12),))
            x = F(rng.randrange(-3 * q, 3 * q), q)
            if is_dyadic(x):
                continue
            n = rng.randrange(0, 401)
            assert slope_sum(x, n) == (slope_seq(x, n).values[-1] if n else 0)

    def test_slope_sum_errors_match_the_walk(self):
        for x in (F(3, 8), F(-5), F(1, 2)):
            with pytest.raises(ValueError) as walk:
                slope_seq(x, 3)
            with pytest.raises(ValueError) as closed:
                slope_sum(x, 3)
            assert str(closed.value) == str(walk.value)
            assert slope_sum(x, 0) == 0
        with pytest.raises(ValueError, match="non-negative"):
            slope_sum(F(1, 3), -1)
        with pytest.raises(TypeError):
            slope_sum(0.5, 2)

    def test_matches_the_reference(self):
        # negative centres, centres above 1, even non-dyadic denominators,
        # q up to 10**12 and up to 2**61 - 1, N up to 400 and five at 5000
        rng = random.Random(43)
        dens = (3, 7, 12, 997, 3 << 40, 997 << 7, (1 << 61) - 1)
        cases = []
        while len(cases) < 2005:
            q = rng.choice(dens + (rng.randrange(3, 10**12), rng.randrange(3, 1 << 61)))
            x = F(rng.randrange(-3 * q, 3 * q), q)
            if not is_dyadic(x):
                cases.append((x, 5000 if len(cases) < 5 else rng.randrange(1, 401)))
        assert any(x < 0 for x, _ in cases) and any(x > 1 for x, _ in cases)
        assert any(x.denominator % 2 == 0 for x, _ in cases)
        for x, N in cases:
            seq = slope_seq(x, N)
            assert seq == reference_slope_seq(x, N)
            assert slope_sum(x, N) == seq.values[-1]
        for x, N in ((F(3, 8), 5), (F(-5), 2), (F(1, 3), 0)):
            with pytest.raises(ValueError) as ref:
                reference_slope_seq(x, N)
            with pytest.raises(ValueError) as new:
                slope_seq(x, N)
            assert str(new.value) == str(ref.value)


class TestLocalLinearity:
    def test_exact_equality_on_neighbour_interval(self):
        rng = random.Random(12)
        for _ in range(300):
            x = random_nondyadic(rng)
            n = rng.randrange(2, 14)
            k = rng.randrange(1, n)
            lo, hi = dyadic_neighbors(x, n)
            t = F(rng.randrange(0, 65), 64)
            x_prime = lo + t * (hi - lo)
            assert g(k, x_prime) - g(k, x) == slope(k, x) * (x_prime - x)
