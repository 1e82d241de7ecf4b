import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import grid_measure_bracket
from takagi_lab import measure
from takagi_lab.measure import (
    CERTIFIED,
    UNDECIDED,
    BreakpointLimitError,
    Dir,
    QuotientQuery,
    certify_lower,
    quotient_set_bounds,
    quotient_set_sides,
)


def q(x, r, alpha, direction, depth):
    return QuotientQuery(x, r, alpha, direction, depth)


class TestQueryValidation:
    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            q(F(1, 2), F(0), F(1), Dir.GE, 4)
        with pytest.raises(ValueError):
            q(F(1, 2), F(1, 16), F(1), Dir.GE, 0)
        with pytest.raises(ValueError, match="dyadic"):
            q(F(1, 2), F(1, 3), F(1), Dir.GE, 4)
        with pytest.raises(TypeError):
            q(F(1, 2), 0.0625, F(1), Dir.GE, 4)
        with pytest.raises(ValueError):
            Dir("above")

    def test_replace_checks_and_coerces(self):
        query = q(F(1, 2), F(1, 16), F(1), Dir.GE, 4)
        assert type(query._replace(x=1).x) is F
        with pytest.raises(ValueError, match="radius must be dyadic"):
            query._replace(r=F(1, 3))
        with pytest.raises(TypeError, match="direction must be a Dir"):
            query._replace(direction="ge")


class TestBlowupInstance:
    # around x = 1/2 the quotient is >= 3 on the whole right half of the
    # 1/16-ball and <= -3 on the whole left half, so the GE set at +3 is
    # exactly the right half and the two one-sided sets tile the ball
    def test_right_half_exactly(self):
        bound = quotient_set_bounds(q(F(1, 2), F(1, 16), F(3), Dir.GE, 8))
        assert bound.lo == bound.hi == F(1, 16)

    def test_mirror_and_full_ball(self):
        ge = quotient_set_bounds(q(F(1, 2), F(1, 16), F(3), Dir.GE, 8))
        le = quotient_set_bounds(q(F(1, 2), F(1, 16), F(-3), Dir.LE, 8))
        assert le.lo == le.hi == F(1, 16)
        assert ge.lo + le.lo == F(1, 8)  # the full punctured ball

    def test_sides_breakdown(self):
        left, right = quotient_set_sides(q(F(1, 2), F(1, 16), F(3), Dir.GE, 8))
        assert (left.lo, left.hi) == (0, 0)
        assert (right.lo, right.hi) == (F(1, 16), F(1, 16))

    def test_grid_oracle_agrees(self):
        query = q(F(1, 2), F(1, 16), F(3), Dir.GE, 8)
        bound = quotient_set_bounds(query)
        emp_lo, emp_hi, _ = grid_measure_bracket(query, samples=20_000)
        assert emp_lo <= bound.hi and bound.lo <= emp_hi


class TestHugeThreshold:
    def test_upper_bound_collapses(self):
        # at a fixed scale the quotient near 1/4 is bounded, so a huge
        # threshold leaves only the tail-band sliver around the centre
        bound = quotient_set_bounds(q(F(1, 4), F(1, 8), F(10**6), Dir.GE, 20))
        assert bound.lo == 0
        assert bound.hi <= F(1, 1 << 20)


class TestOneScaleInstance:
    def test_certified_lower_bound(self):
        bound = quotient_set_bounds(q(F(1, 3), F(1, 4), F(-3, 5), Dir.LE, 16))
        assert bound.lo >= F(1, 128)


class TestSandwichAndMonotonicity:
    def test_depth_improves_bounds(self):
        base = None
        for depth in (6, 7, 8, 12):
            bound = quotient_set_bounds(q(F(1, 3), F(1, 8), F(1, 2), Dir.GE, depth))
            assert bound.lo <= bound.hi
            if base is not None:
                assert bound.lo >= base.lo and bound.hi <= base.hi
            base = bound

    def test_monotone_in_threshold(self):
        previous = None
        for i in range(-6, 7):
            bound = quotient_set_bounds(
                q(F(1, 3), F(1, 8), F(i, 2), Dir.GE, 10)
            )
            if previous is not None:
                assert bound.lo <= previous.lo and bound.hi <= previous.hi
            previous = bound

    def test_complementarity(self):
        for alpha in (F(-1), F(0), F(2, 5), F(3)):
            ge = quotient_set_bounds(q(F(2, 7), F(1, 16), alpha, Dir.GE, 10))
            le = quotient_set_bounds(q(F(2, 7), F(1, 16), alpha, Dir.LE, 10))
            assert ge.hi + le.hi >= F(1, 8)


centres = st.one_of(
    # dyadic, from coarse grids to level 6, negative ones included
    st.builds(lambda num, exp: F(num, 1 << exp), st.integers(-64, 64), st.integers(0, 6)),
    # non-dyadic (an odd denominator above 1 survives reduction), negative ones included
    st.builds(lambda k, s, den: k + F(1 + s % (den - 1), den), st.integers(-6, 5),
              st.integers(0, 95), st.sampled_from((3, 5, 7, 9, 11, 13, 21, 97))),
)
queries = st.builds(
    q,
    centres,
    st.builds(lambda k: F(1, 1 << k), st.integers(1, 6)),
    st.builds(F, st.integers(-40, 40), st.integers(1, 7)),
    st.sampled_from(Dir),
    st.integers(1, 13),
)


class TestBracketProperties:
    # the host may change speed mid-run, so no per-example deadline
    @settings(deadline=None, max_examples=300)
    @given(queries)
    def test_sides_sum_stay_in_window_and_nest(self, query):
        two_r = 2 * query.r
        previous = None
        for depth in (query.depth, query.depth + 1, query.depth + 4):
            deeper = q(query.x, query.r, query.alpha, query.direction, depth)
            left, right = quotient_set_sides(deeper)
            bound = quotient_set_bounds(deeper)
            assert left + right == bound
            assert 0 <= bound.lo <= bound.hi <= two_r
            if previous is not None:
                assert previous.lo <= bound.lo and bound.hi <= previous.hi
            previous = bound


class TestDensity:
    # the measure bracket over the window length 2r
    def test_full_window(self):
        query = q(F(1, 3), F(1, 8), F(-(1 << 40)), Dir.GE, 8)
        bound = quotient_set_bounds(query)
        assert bound.hi == 2 * query.r
        assert bound.lo > F(999, 1000) * 2 * query.r

    def test_blowup_density(self):
        bound = quotient_set_bounds(q(F(1, 2), F(1, 16), F(3), Dir.GE, 8))
        assert bound.lo == F(1, 16)  # half of the window 2r = 1/8


class TestCertifyLower:
    def test_certifies_at_the_given_depth(self):
        lo, depth, status = certify_lower(
            F(1, 3), F(1, 4), F(-3, 5), Dir.LE, F(1, 128), depth=10
        )
        assert status == CERTIFIED and lo >= F(1, 128) and depth >= 10

    def test_unreachable_target_is_undecided(self):
        # an unreachable target: more than the whole window
        lo, _, status = certify_lower(
            F(1, 3), F(1, 4), F(-3, 5), Dir.LE, F(2), depth=6
        )
        assert status == UNDECIDED and lo < 2

    def test_one_query_at_the_given_depth(self, monkeypatch):
        # an unreachable target runs one kernel call, at the given depth
        calls = []
        kernel = measure._measures

        def counting(query):
            calls.append(query.depth)
            return kernel(query)

        monkeypatch.setattr(measure, "_measures", counting)
        lo, depth, status = certify_lower(
            F(1, 3), F(1, 4), F(-3, 5), Dir.LE, F(2), depth=6
        )
        assert calls == [6]
        assert (depth, status) == (6, UNDECIDED)
        assert lo == quotient_set_bounds(q(F(1, 3), F(1, 4), F(-3, 5), Dir.LE, 6)).lo

    def test_unreachable_target_within_a_budget_is_undecided(self, monkeypatch):
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 2000)
        lo, _, status = certify_lower(
            F(1, 3), F(1, 4), F(-3, 5), Dir.LE, F(2), depth=6
        )
        assert status == UNDECIDED


def cells_needed(query, monkeypatch, module=measure, run=quotient_set_bounds):
    """Smallest cell budget of ``module`` under which ``run(query)`` completes."""
    lo, hi = 1, 1 << 16
    with monkeypatch.context() as patch:
        while lo < hi:
            mid = (lo + hi) // 2
            patch.setattr(module, "BREAKPOINT_CAP", mid)
            try:
                run(query)
            except BreakpointLimitError:
                lo = mid + 1
            else:
                hi = mid
    return lo


class TestCellBudget:
    # the TestCertifyLower query: 1/3, r = 1/2, LE at -3/5
    def query(self, depth):
        return q(F(1, 3), F(1, 2), F(-3, 5), Dir.LE, depth)

    def test_tiny_budget_raises(self, monkeypatch):
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        with pytest.raises(BreakpointLimitError):
            quotient_set_bounds(self.query(10))
        with pytest.raises(BreakpointLimitError):
            quotient_set_sides(self.query(10))

    def test_depth_64_fits_a_small_budget(self, monkeypatch):
        # the uniform engine would need 2**65 breakpoints here
        with monkeypatch.context() as patch:
            patch.setattr(measure, "BREAKPOINT_CAP", 2000)
            bound = quotient_set_bounds(self.query(64))
        assert bound.lo >= F(1, 128)
        assert bound == quotient_set_bounds(self.query(64))

    def test_query_at_its_exact_budget_completes(self, monkeypatch):
        budget = cells_needed(self.query(10), monkeypatch)
        assert cells_needed(self.query(14), monkeypatch) > budget
        with monkeypatch.context() as patch:
            patch.setattr(measure, "BREAKPOINT_CAP", budget)
            lo, depth_used, status = certify_lower(
                F(1, 3), F(1, 2), F(-3, 5), Dir.LE, F(2), depth=10
            )
        assert status == UNDECIDED
        assert depth_used == 10
        assert lo == quotient_set_bounds(self.query(10)).lo

    def test_bracket_needs_no_more_cells_than_the_pieces(self, monkeypatch):
        # one walk over the window visits a subset of the cells that the
        # four per-piece walks of the reference kernel visited together
        def pieces(query):
            return oracles.piece_measures(query.depth, query.alpha,
                                          oracles.query_pieces(query))

        for query in (self.query(10), self.query(16),
                      q(F(1, 3), F(1, 4), F(-1), Dir.LE, 16),
                      q(F(-5, 7), F(3, 8), F(1, 2), Dir.GE, 12)):
            walk = cells_needed(query, monkeypatch)
            assert walk <= cells_needed(query, monkeypatch, oracles, pieces)
            with monkeypatch.context() as patch:
                patch.setattr(measure, "BREAKPOINT_CAP", walk)
                lo, depth_used, _ = certify_lower(query.x, query.r, query.alpha,
                                                  query.direction, F(2), depth=query.depth)
            assert depth_used == query.depth
            assert lo == quotient_set_bounds(query).lo

    def test_over_budget_certificate_names_the_query(self, monkeypatch):
        # over the budget, certify_lower raises the error that names the
        # query, as quotient_set_sides does
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        message = r"^depth-10 query at x=1/3 needs more than 3 cells$"
        with pytest.raises(BreakpointLimitError, match=message):
            certify_lower(F(1, 3), F(1, 2), F(-3, 5), Dir.LE, F(1, 128), depth=10)
        with pytest.raises(BreakpointLimitError, match=message):
            quotient_set_sides(self.query(10))


class TestGridOracleSweep:
    def test_random_queries_overlap(self):
        rng = random.Random(16)
        for _ in range(8):
            den = rng.randrange(2, 40)
            x = F(rng.randrange(1, den), den)
            r = F(1, 1 << rng.randrange(2, 7))
            alpha = F(rng.randrange(-12, 13), rng.choice([1, 2, 3, 5]))
            direction = rng.choice([Dir.GE, Dir.LE])
            query = q(x, r, alpha, direction, 12)
            bound = quotient_set_bounds(query)
            emp_lo, emp_hi, _ = grid_measure_bracket(query, samples=20_000)
            assert emp_lo <= bound.hi and bound.lo <= emp_hi
