import random
from fractions import Fraction as F

import pytest

from oracles import (
    BreakpointLimitError,
    IntervalSet,
    build_Gn,
    solve_affine_ge,
    solve_affine_le,
)
from takagi_lab.takagi import G


def tent():
    return build_Gn(F(0), F(1, 2), 1)


class TestBuild:
    def test_single_tent(self):
        f = tent()
        assert list(f.breakpoints) == [0, F(1, 4), F(1, 2)]
        assert list(f.values) == [0, F(1, 4), 0]
        assert list(f.slopes) == [1, -1]
        f.validate()

    def test_empty_sum_is_constant_zero(self):
        f = build_Gn(F(0), F(1), 0)
        assert all(v == 0 for v in f.values)
        assert all(s == 0 for s in f.slopes)

    def test_depth_two_piece(self):
        f = build_Gn(F(1, 4), F(1, 2), 2)
        assert list(f.breakpoints) == [F(1, 4), F(3, 8), F(1, 2)]
        assert list(f.values) == [F(1, 4), F(1, 4), 0]
        assert list(f.slopes) == [0, -2]

    def test_off_grid_endpoints(self):
        a, b = F(1, 32), F(27, 32)  # 1/32 and 27/32, deeper than D_3
        f = build_Gn(a, b, 2)
        f.validate()
        assert f.breakpoints[0] == a and f.breakpoints[-1] == b
        assert f.eval(a) == G(2, a)
        assert f.eval(b) == G(2, b)

    def test_both_endpoints_in_one_cell(self):
        f = build_Gn(F(1, 64), F(3, 64), 1)  # [1/64, 3/64] inside [0, 1/4]
        f.validate()
        assert len(f.breakpoints) == 2
        assert f.slopes == (1,)

    def test_breakpoint_count_bound(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randrange(0, 8)
            a = F(rng.randrange(-16, 16), 1 << rng.randrange(0, 6))
            b = a + F(rng.randrange(1, 32), 1 << rng.randrange(0, 6))
            f = build_Gn(a, b, n)
            width = b - a
            assert len(f.breakpoints) <= (1 << (n + 1)) * width + 2

    def test_budget_enforced(self):
        with pytest.raises(BreakpointLimitError):
            build_Gn(F(0), F(1), 10, max_breakpoints=100)

    def test_slope_range_and_parity(self):
        for n in (1, 2, 3, 5):
            f = build_Gn(F(0), F(1), n)
            for s in f.slopes:
                assert -n <= s <= n and (s - n) % 2 == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_Gn(F(1, 2), F(1, 2), 2)
        with pytest.raises(ValueError):
            build_Gn(F(1, 3), F(1), 2)
        with pytest.raises(TypeError):
            build_Gn(0.5, F(1), 2)


class TestEval:
    def test_examples(self):
        assert tent().eval(F(1, 8)) == F(1, 8)
        assert build_Gn(F(0), F(1), 2).eval(F(1, 3)) == G(2, F(1, 3)) == F(1, 4)
        f = build_Gn(F(1, 4), F(1, 2), 2)
        for bp, value in zip(f.breakpoints, f.values):
            assert f.eval(bp) == value

    def test_matches_partial_sums_everywhere(self):
        rng = random.Random(14)
        for n in (0, 1, 3, 6):
            f = build_Gn(F(-3, 4), F(9, 4), n)
            for _ in range(1000):
                y = F(rng.randrange(-3 * 1024, 9 * 1024 + 1), 4096)
                assert f.eval(y) == G(n, y)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tent().eval(F(3, 4))


class TestSolve:
    def test_examples(self):
        f = tent()
        assert list(solve_affine_ge(f, F(0), F(0))) == [(F(0), F(1, 2))]
        assert list(solve_affine_ge(f, F(1, 8), F(0))) == [(F(1, 8), F(3, 8))]
        # ties on the rising edge are kept: g_1(y) >= y exactly on [0, 1/4]
        assert list(solve_affine_ge(f, F(0), F(1))) == [(F(0), F(1, 4))]

    def test_le_twin_is_mirror(self):
        f = tent()
        assert list(solve_affine_le(f, F(1, 8), F(0))) == [
            (F(0), F(1, 8)),
            (F(3, 8), F(1, 2)),
        ]

    def test_partition_lengths(self):
        rng = random.Random(15)
        for _ in range(40)            :
            n = rng.randrange(0, 7)
            f = build_Gn(F(0), F(1), n)
            # non-integer slope c1 rules out whole tied segments
            c1 = F(rng.randrange(-8, 8), 3)
            c0 = F(rng.randrange(-16, 16), 16)
            ge = solve_affine_ge(f, c0, c1)
            le = solve_affine_le(f, c0, c1)
            assert ge.measure() + le.measure() == 1

    def test_monotone_in_offset(self):
        f = build_Gn(F(0), F(1), 4)
        previous = None
        for i in range(-4, 12):
            m = solve_affine_ge(f, F(i, 16), F(1, 3)).measure()
            if previous is not None:
                assert m <= previous
            previous = m


class TestIntervalSet:
    def test_merge_and_measure(self):
        s = IntervalSet.from_pieces([
            (F(1, 2), F(3, 4)),
            (F(0), F(1, 2)),
            (F(7, 8), F(7, 8)),
            (F(2), F(1)),  # empty, dropped
        ])
        assert list(s) == [(F(0), F(3, 4)), (F(7, 8), F(7, 8))]
        assert s.measure() == F(3, 4)

    def test_clip(self):
        s = IntervalSet.from_pieces([(F(0), F(1, 2)), (F(3, 4), F(1))])
        clipped = s.clip(F(1, 4), F(7, 8))
        assert list(clipped) == [(F(1, 4), F(1, 2)), (F(3, 4), F(7, 8))]
        assert clipped.measure() == F(3, 8)
        assert len(s.clip(F(5, 8), F(11, 16))) == 0
