import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from takagi_lab.analysis import blowup_check
from takagi_lab.exactnum import (
    Dyadic,
    as_dyadic,
    dyadic_level,
    dyadic_neighbors,
    format_rat,
    frac_part,
    is_dyadic,
    parse_rat,
)


class TestCanonicalize:
    def test_examples(self):
        assert Dyadic(4, 2) == Dyadic(1, 0)
        assert Dyadic(6, 3) == Dyadic(3, 2)
        assert Dyadic(0, 5) == Dyadic(0, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    @given(st.integers(-10**12, 10**12), st.integers(0, 80))
    def test_canonical_invariant(self, num, exp):
        d = Dyadic(num, exp)
        assert d.exp == 0 or d.num % 2 == 1
        assert d.as_fraction() == F(num, 1 << exp)


class TestDyadicArithmetic:
    @given(st.integers(-10**9, 10**9), st.integers(0, 40),
           st.integers(-10**9, 10**9), st.integers(0, 40))
    def test_ring_ops_match_fraction_oracle(self, n1, e1, n2, e2):
        a, b = Dyadic(n1, e1), Dyadic(n2, e2)
        fa, fb = F(n1, 1 << e1), F(n2, 1 << e2)
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (-a).as_fraction() == -fa
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a == b) == (fa == fb)

    def test_mixed_operands(self):
        d = Dyadic(3, 2)
        assert d + 1 == Dyadic(7, 2)
        assert 1 - d == Dyadic(1, 2)
        assert d * 4 == Dyadic(3, 0)
        assert d + F(1, 3) == F(13, 12)
        assert F(1, 3) + d == F(13, 12)
        assert d < F(7, 8) and d > F(1, 3)

    def test_hash_consistent_with_fraction(self):
        assert hash(Dyadic(3, 2)) == hash(F(3, 4))
        assert {Dyadic(1, 1), F(1, 2)} == {F(1, 2)}

    def test_scaling_and_pow2(self):
        assert Dyadic.pow2(-3) == F(1, 8)
        assert Dyadic.pow2(2) == 4

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            Dyadic(1, 0) + 0.5  # noqa: intentional type error
        with pytest.raises(TypeError):
            as_dyadic(0.5)


class TestDyadicIsAFraction:
    def test_pickle_and_copies_keep_value_and_type(self):
        for d in (Dyadic(3, 2), Dyadic(0), Dyadic(-7, 5)):
            for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
                assert type(clone) is Dyadic
                assert (clone.num, clone.exp) == (d.num, d.exp)
                assert clone == d
        report = blowup_check(Dyadic(1, 2), 3)
        assert pickle.loads(pickle.dumps(report)) == report
        assert isinstance(Dyadic(1, 1), F)
        assert Dyadic(3, 2) / 3 == F(1, 4)

    def test_float_comparisons_and_conversions_are_exact(self):
        # Fraction compares with a float through from_float
        assert Dyadic(1, 1) < 0.7 and Dyadic(1, 1) == 0.5 and not Dyadic(1, 1) == 0.3
        for made in (Dyadic.from_float(-0.375), Dyadic.from_decimal(Decimal("-0.375"))):
            assert type(made) is Dyadic and made == Dyadic(-3, 3)
        with pytest.raises(ValueError):
            Dyadic.from_decimal(Decimal("0.1"))


class TestParseFormat:
    def test_roundtrip(self):
        for text in ["5/7", "-3/4", "12", "0", "-7"]:
            assert format_rat(parse_rat(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_rat(" 3/4 ") == F(3, 4)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "1.0", "", "a/b", "1/0", "+/2"])
    def test_inexact_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_dyadic_formats_like_rational(self):
        assert format_rat(Dyadic(3, 2)) == "3/4"
        assert format_rat(Dyadic(5, 0)) == "5"


class TestNeighbors:
    def test_examples(self):
        assert dyadic_neighbors(F(1, 3), 2) == (Dyadic(1, 2), Dyadic(1, 1))
        assert dyadic_neighbors(F(1, 3), 1) == (Dyadic(0), Dyadic(1, 1))
        assert dyadic_neighbors(F(5, 7), 3) == (Dyadic(5, 3), Dyadic(3, 2))

    def test_on_grid_rejected(self):
        with pytest.raises(ValueError):
            dyadic_neighbors(F(1, 4), 2)
        with pytest.raises(ValueError):
            dyadic_neighbors(F(3), 0)

    def test_floor_identity_bulk(self):
        rng = random.Random(20260810)
        for _ in range(10_000):
            q = rng.randrange(3, 2000)
            p = rng.randrange(-3 * q, 3 * q)
            n = rng.randrange(0, 24)
            x = F(p, q)
            if (x * (1 << n)).denominator == 1:
                continue
            lo, hi = dyadic_neighbors(x, n)
            assert hi - lo == F(1, 1 << n)
            assert lo < x < hi
            scaled = x * (1 << n)
            assert lo == F(scaled.numerator // scaled.denominator, 1 << n)


class TestDyadicLevel:
    def test_examples(self):
        assert dyadic_level(Dyadic(1, 1)) == 0
        assert dyadic_level(Dyadic(3, 2)) == 1
        assert dyadic_level(Dyadic(0)) == -1
        assert dyadic_level(Dyadic(-7)) == -1

    @given(st.integers(-10**6, 10**6), st.integers(0, 40))
    def test_level_characterisation(self, num, exp):
        d = Dyadic(num, exp)
        m = dyadic_level(d) + 1
        assert (d.as_fraction() * (1 << m)).denominator == 1
        if m >= 1:
            assert (d.as_fraction() * (1 << (m - 1))).denominator != 1

    def test_misc_predicates(self):
        assert is_dyadic(F(3, 8)) and not is_dyadic(F(1, 3))
        assert frac_part(F(7, 3)) == F(1, 3)
        assert frac_part(F(-1, 3)) == F(2, 3)
