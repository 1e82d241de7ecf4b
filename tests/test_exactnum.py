import copy
import pickle
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from takagi_lab.analysis import (CASE_BOUNDED, INSUFFICIENT_HORIZON, BlowupReport,
                                 RefutationEvidence, blowup_check, classify, refute,
                                 verify_lemma)
from takagi_lab.cli import sample_rows
from takagi_lab.exactnum import (
    check_printable,
    dyadic_level,
    dyadic_neighbors,
    format_dyadic,
    format_rat,
    format_ratio,
    frac_part,
    is_dyadic,
    parse_rat,
)
from takagi_lab.measure import Dir, QuotientQuery, certify_lower
from takagi_lab.takagi import Enclosure, slope_seq, takagi_exact


class TestDyadicArithmetic:
    def test_floats_refused(self):
        for helper in (is_dyadic, frac_part, dyadic_level):
            with pytest.raises(TypeError):
                helper(0.5)  # noqa: intentional type error


_DC = "DensityCertificate(x=Fraction(1, 3), r=Fraction({r}), alpha=Fraction({alpha}), " \
      "direction=<Dir.{dir}: '{dir_value}'>, density_lo=Fraction({lo}))"
_GE_DC = _DC.format(r="1, 8", alpha="-2, 5", dir="GE", dir_value="ge", lo="3569, 7168")

# One record of each report type, built anew per call, with its repr text
# as it was when the records were dataclasses.
RECORDS = [
    (lambda: Enclosure(F(1, 4), F(1, 2)), "Enclosure(lo=Fraction(1, 4), hi=Fraction(1, 2))"),
    (lambda: slope_seq(F(1, 3), 4),
     "SlopeSeq(point=Fraction(1, 3), values=(-1, 0, -1, 0), horizon=4)"),
    (lambda: QuotientQuery(F(1, 3), F(1, 8), F(-1, 2), Dir.LE, 4),
     "QuotientQuery(x=Fraction(1, 3), r=Fraction(1, 8), alpha=Fraction(-1, 2), "
     "direction=<Dir.LE: 'le'>, depth=4)"),
    (lambda: verify_lemma(F(1, 3), 2),
     "LemmaReport(x=Fraction(1, 3), n=2, sign=1, direction=<Dir.LE: 'le'>, "
     "alpha=Fraction(-3, 5), bound_required=Fraction(1, 128), "
     "bound_certified=Fraction(18065, 78848), depth_used=10, status='certified')"),
    (lambda: classify(F(1, 3), 4),
     "ClassificationReport(x=Fraction(1, 3), horizon=4, seq=SlopeSeq(point=Fraction(1, 3), "
     "values=(-1, 0, -1, 0), horizon=4), running_min=-1, running_max=0, min_hits=(1, 3), "
     "case_hint='bounded-oscillation')"),
    (lambda: refute(F(1, 3), 3).singles[0], _GE_DC),
    (lambda: refute(F(1, 3), 4).pairs[0],
     "CertificatePair(index=2, le="
     + _DC.format(r="1, 4", alpha="-3, 5", dir="LE", dir_value="le", lo="18065, 39424")
     + ", ge="
     + _DC.format(r="1, 2", alpha="-2, 5", dir="GE", dir_value="ge", lo="72853, 96768")
     + ")"),
    (lambda: blowup_check(F(1, 4), 3),
     "BlowupReport(x=Fraction(1, 4), n=3, base_level=1, threshold=1, "
     "radius=Fraction(1, 16), bound_required=Fraction(1, 32), lo_one_sided=Fraction(1, 16), "
     "lo_mirror=Fraction(1, 16), lo_full=Fraction(1, 8), depth_used=7, status='certified')"),
    (lambda: refute(F(1, 3), 3),
     "RefutationEvidence(x=Fraction(1, 3), horizon=3, case_hint='divergent', pairs=(), "
     f"singles=({_GE_DC},), status='certified', "
     "detail='1 one-sided certificates at growing thresholds')"),
]


class TestDyadicIsAFraction:
    def test_pickle_and_copies_keep_value_and_type(self):
        # dyadic values are plain Fractions, so a report holding them
        # pickles and copies as it is
        for build, _ in RECORDS:
            report = build()
            for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                          copy.deepcopy(report)):
                assert clone == report and type(clone) is type(report)
                # tuple equality passes for any numerically equal field,
                # so the field types are compared too
                assert [type(v) for v in clone] == [type(v) for v in report]
                if type(clone) is BlowupReport:
                    assert type(clone.x) is type(clone.radius) is F

    def test_records_are_immutable_hashable_and_keep_their_repr(self):
        assert len({type(build()) for build, _ in RECORDS}) == 9
        for build, text in RECORDS:
            report, again = build(), build()
            assert report == again and hash(report) == hash(again)
            assert repr(report) == text
            assert tuple(type(report).__annotations__) == type(report)._fields
            for name in type(report)._fields:
                with pytest.raises(AttributeError):
                    setattr(report, name, None)
        assert RefutationEvidence(F(1, 3), 1, CASE_BOUNDED, (), (),
                                  INSUFFICIENT_HORIZON).detail == ""


# Every entry point that takes a dyadic value refuses a float (even a
# dyadic-valued one) with TypeError and an exact value outside its domain
# with ValueError: a non-dyadic rational, or, for dyadic_neighbors, whose
# normal input is non-dyadic, a point on the grid.
DYADIC_ENTRY_POINTS = [
    ("QuotientQuery", lambda r: QuotientQuery(F(1, 3), r, F(0), Dir.GE, 4), F(1, 3)),
    ("certify_lower",
     lambda r: certify_lower(F(1, 3), r, F(0), Dir.GE, F(0), depth=4), F(1, 3)),
    ("blowup_check", lambda x: blowup_check(x, 9), F(1, 3)),
    ("takagi_exact", takagi_exact, F(1, 3)),
    ("dyadic_level", dyadic_level, F(1, 3)),
    ("dyadic_neighbors", lambda x: dyadic_neighbors(x, 2), F(1, 4)),
    ("sample_rows_a", lambda a: sample_rows(a, F(1), 3, 4), F(1, 3)),
    ("sample_rows_b", lambda b: sample_rows(F(0), b, 3, 4), F(1, 3)),
]


@pytest.mark.parametrize("call, rejected", [(call, rejected) for _, call, rejected
                                             in DYADIC_ENTRY_POINTS],
                         ids=[name for name, _, _ in DYADIC_ENTRY_POINTS])
def test_dyadic_entry_point_refuses_float_and_non_dyadic(call, rejected):
    with pytest.raises(TypeError):
        call(0.5)
    with pytest.raises(ValueError):
        call(rejected)


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
        assert format_rat(F(3, 4)) == "3/4"
        assert format_rat(F(5)) == "5"

    def test_format_refuses_float_and_str(self):
        for bad in (0.5, "3/4"):
            with pytest.raises(TypeError, match="exact rational expected"):
                format_rat(bad)

        class Sub(F):
            pass

        assert format_rat(True) == "1"
        assert format_rat(-12) == "-12"
        assert format_rat(Sub(6, -8)) == "-3/4"

    def test_ratio_formats_in_lowest_terms_like_format_rat(self):
        rng = random.Random(22)
        cases = [(0, 5), (6, 3), (-6, 4), (12, 1), ((1 << 80) * 3, 1 << 81)]
        cases += [(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in range(500)]
        for num, den in cases:
            assert format_ratio(num, den) == format_rat(F(num, den))

    def test_dyadic_formats_in_lowest_terms_like_format_rat(self):
        rng = random.Random(23)
        cases = [(0, 0), (0, 7), (5, 0), (-6, 2), (-8, 2), (12, 1), (3 << 80, 81), (1 << 90, 90)]
        cases += [(rng.randrange(-10**6, 10**6), rng.randrange(0, 40)) for _ in range(500)]
        for num, m in cases:
            assert format_dyadic(num, m) == format_rat(F(num, 1 << m))


class TestCheckPrintable:
    @pytest.mark.parametrize("limit", [640, 4300, 12345, 100_000])
    def test_exact_at_the_limit(self, limit):
        first = (10 ** limit).bit_length()  # smallest e with 2**e above 10**limit
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert len(format_rat(1 << (first - 1))) == limit
            check_printable(first - 1)
            with pytest.raises(ValueError, match="too many to print"):
                format_rat(1 << first)
            # the integer formatter reduces first, then fails the same way
            assert format_ratio(3 << first, 3 << (first + 1)) == "1/2"
            with pytest.raises(ValueError, match="too many to print"):
                format_ratio(1, 1 << first)
            # so does the dyadic one, on a fraction and on an integer
            assert format_dyadic(3 << first, first + 1) == "3/2"
            for num, m in ((1, first), (1 << first, 0), (-5 << (first + 3), 3)):
                with pytest.raises(ValueError, match="too many to print"):
                    format_dyadic(num, m)
            with pytest.raises(ValueError, match=f"more than {limit} decimal digits"):
                check_printable(first)
        finally:
            sys.set_int_max_str_digits(old)

    def test_zero_limit_means_none(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            check_printable(1 << 70)
        finally:
            sys.set_int_max_str_digits(old)


class TestNeighbors:
    def test_examples(self):
        assert dyadic_neighbors(F(1, 3), 2) == (F(1, 4), F(1, 2))
        assert dyadic_neighbors(F(1, 3), 1) == (F(0), F(1, 2))
        assert dyadic_neighbors(F(5, 7), 3) == (F(5, 8), F(3, 4))

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
        assert dyadic_level(F(1, 2)) == 0
        assert dyadic_level(F(3, 4)) == 1
        assert dyadic_level(F(0)) == -1
        assert dyadic_level(-7) == -1

    @given(st.integers(-10**6, 10**6), st.integers(0, 40))
    def test_level_characterisation(self, num, exp):
        d = F(num, 1 << exp)
        m = dyadic_level(d) + 1
        assert (d * (1 << m)).denominator == 1
        if m >= 1:
            assert (d * (1 << (m - 1))).denominator != 1

    def test_misc_predicates(self):
        assert is_dyadic(F(3, 8)) and not is_dyadic(F(1, 3))
        assert frac_part(F(7, 3)) == F(1, 3)
        assert frac_part(F(-1, 3)) == F(2, 3)
