"""The adaptive measure kernel against its references.

Up to depth 14 the reference is the uniform polyline engine; from depth
15 to 200, where that engine cannot run, it is the kernel with one
``Fraction`` per crossing.  At every depth the kernel that walked each
piece (one band line on one half of the window) on its own is a third
reference.  Every engine computes exact Lebesgue measures of the same
closed sets, so results must agree as rationals, not just overlap.
"""

import math
import random
from fractions import Fraction as F
from itertools import islice

from hypothesis import example, given, settings, strategies as st
from oracles import (_cell_slope, fraction_band_measures, piece_measures, query_pieces,
                     uniform_quotient_set_sides)
from takagi_lab.measure import (
    Dir,
    QuotientQuery,
    _measures,
    _sides,
    certify_lower,
    quotient_set_bounds,
    quotient_set_sides,
)
from takagi_lab.takagi import slope_sum, takagi_enclosure

QUERIES = 336
# radii numerators: powers of two and dyadics that are not (3/8, 5/16, ...)
RADIUS_NUMERATORS = (1, 3, 5, 7)


def _centre(rng, kind):
    if kind == 0:  # dyadic, possibly on a coarse grid
        return F(rng.randrange(1, 64), 1 << rng.randrange(0, 7))
    if kind == 1:  # non-dyadic in (0, 1)
        den = rng.choice((3, 5, 7, 9, 11, 13, 15, 21, 31, 97))
        return F(rng.randrange(1, den), den)
    # negative, dyadic or not
    return -F(rng.randrange(1, 96), rng.choice((1, 2, 3, 4, 5, 7, 8, 12, 64)))


def _threshold(rng, kind, x, depth):
    if kind == 0:  # near the local slope of G_depth at x
        j = (x.numerator << (depth + 1)) // x.denominator
        offset = rng.choice((F(0), F(1, 3), F(-1, 3), F(2, 5), F(-2, 5), F(1, 2), F(-1)))
        return _cell_slope(j, depth) + offset
    if kind == 1:
        return F(0)
    if kind == 2:
        return F(rng.randrange(-40, 41), rng.choice((1, 2, 3, 5, 7)))
    if kind == 3:
        return F(10**6)
    return F(-(1 << 40))


def seeded_queries(seed=2024, count=QUERIES):
    rng = random.Random(seed)
    for i in range(count):
        depth = 1 + i % 14
        x = _centre(rng, i % 3)
        # keep the reference's breakpoint count 2**(depth+2)*r at most 7*2**12
        exp = rng.randrange(max(1, depth - 8), max(1, depth - 8) + 5)
        r = F(rng.choice(RADIUS_NUMERATORS), 1 << exp)
        alpha = _threshold(rng, (i // 3) % 5, x, depth)
        direction = Dir.GE if (i // 14) % 2 else Dir.LE
        yield QuotientQuery(x, r, alpha, direction, depth)


def test_seeded_queries_cover_the_required_mix():
    queries = list(seeded_queries())
    assert len(queries) >= 300
    assert {q.depth for q in queries} == set(range(1, 15))
    assert {q.direction for q in queries} == {Dir.GE, Dir.LE}
    assert any(q.x < 0 for q in queries)
    assert any(q.x.denominator & (q.x.denominator - 1) for q in queries)  # non-dyadic
    assert any(q.x.denominator & (q.x.denominator - 1) == 0 for q in queries)
    assert any(q.r == F(3, 8) for q in queries)  # 3/8
    alphas = {q.alpha for q in queries}
    assert {F(0), F(10**6), F(-(1 << 40))} <= alphas
    assert any(a < 0 for a in alphas if a != F(-(1 << 40)))


def test_bit_identical_to_uniform_reference():
    mismatches = []
    for query in seeded_queries():
        got = quotient_set_sides(query)
        want = uniform_quotient_set_sides(query)
        if got != want:
            mismatches.append((query, got, want))
    assert mismatches == []


def test_wide_and_exact_queries():
    # windows wider than one unit interval, exact blow-up halves and
    # centres on the window's own grid
    for query in (
        QuotientQuery(F(1, 2), F(3), F(1, 3), Dir.GE, 6),
        QuotientQuery(F(-5, 3), F(5, 2), F(-2), Dir.LE, 5),
        QuotientQuery(F(1, 2), F(1, 16), F(3), Dir.GE, 8),
        QuotientQuery(F(1, 2), F(1, 16), F(-3), Dir.LE, 8),
        QuotientQuery(F(0), F(1, 4), F(2), Dir.GE, 9),
    ):
        assert quotient_set_sides(query) == uniform_quotient_set_sides(query)


def _query_bands(x, depth, alpha):
    """The two bands ``quotient_set_sides`` measures for a query at x."""
    enc = takagi_enclosure(x, depth)
    tau = F(1, 1 << (depth + 1))
    return (enc.hi - alpha * x, True), (enc.lo - alpha * x - tau, False)


def deep_band_cases(seed=2025, count=300):
    """Reference arguments at depths 15-200, with the two bands of a query."""
    rng = random.Random(seed)
    for i in range(count):
        depth = rng.randrange(15, 201)
        x = _centre(rng, i % 3)
        if (i // 3) % 2:  # below 2**-(depth+1): the window sits in one level-n cell
            exp = depth + 1 + rng.randrange(0, 4)
        else:
            exp = rng.randrange(depth - 12, depth + 1)
        r = F(rng.choice(RADIUS_NUMERATORS), 1 << exp)
        alpha = _threshold(rng, (i // 6) % 5, x, depth)
        yield x, r, depth, alpha, _query_bands(x, depth, alpha)
    # r = 1/2 at depth 200: about 140 000 cells, crossings over 21 denominators
    yield F(1, 3), F(1, 2), 200, F(1, 2), _query_bands(F(1, 3), 200, F(1, 2))


def test_deep_cases_cover_the_required_mix():
    cases = list(deep_band_cases())
    depths = {n for _, _, n, _, _ in cases}
    assert min(depths) < 20 and max(depths) == 200
    assert any(r < F(1, 1 << (n + 1)) for _, r, n, _, _ in cases)
    assert any(x < 0 for x, *_ in cases)
    assert any(x.denominator & (x.denominator - 1) for x, *_ in cases)  # non-dyadic
    assert any(x.denominator & (x.denominator - 1) == 0 for x, *_ in cases)
    alphas = {alpha for _, _, _, alpha, _ in cases}
    assert F(10**6) in alphas
    near = sum(alpha - _cell_slope((x.numerator << (n + 1)) // x.denominator, n)
               in {F(1, 3), F(-1, 3), F(2, 5), F(-2, 5)} for x, _, n, alpha, _ in cases)
    assert near >= 10


def test_equal_to_the_per_crossing_fraction_kernel():
    # each band measured on [x - r, x] and on [x, x + r]
    mismatches = []
    for case in deep_band_cases():
        x, r, depth, alpha, bands = case
        got = _measures(QuotientQuery(x, r, alpha, Dir.GE, depth))
        want = [half for sides in fraction_band_measures(*case) for half in sides]
        if got != want:
            mismatches.append((case, got, want))
    assert mismatches == []


def edge_queries(seed=2026, count=400):
    """Queries at depths 1-40: negative centres, dyadic centres on the level-n
    grid, r = 3/8 and windows narrower than one level-n cell."""
    rng = random.Random(seed)
    for i in range(count):
        depth = rng.randrange(1, 41)
        kind = i % 4
        if kind == 0:  # negative, dyadic or not
            x = -F(rng.randrange(1, 200), rng.choice((1, 3, 5, 7, 12, 1 << (depth + 1))))
        else:  # dyadic on the level-n grid
            x = F(rng.randrange(-(1 << (depth + 2)), 1 << (depth + 2)), 1 << (depth + 1))
        if kind == 2:
            r = F(3, 8)
        elif kind == 3:  # narrower than one level-n cell
            r = F(rng.choice(RADIUS_NUMERATORS), 1 << (depth + 4))
        else:
            r = F(rng.choice(RADIUS_NUMERATORS), 1 << rng.randrange(1, min(depth, 12) + 3))
        alpha = _threshold(rng, (i // 4) % 5, x, depth)
        yield QuotientQuery(x, r, alpha, Dir.GE if (i // 20) % 2 else Dir.LE, depth)


def test_edge_queries_cover_the_required_mix():
    queries = list(edge_queries())
    assert any(q.x < 0 and q.x.denominator & (q.x.denominator - 1) for q in queries)
    on_grid = [q for q in queries if not q.x.denominator & (q.x.denominator - 1)
               and q.x.denominator <= 1 << (q.depth + 1)]
    assert len(on_grid) >= 200 and any(q.x < 0 for q in on_grid)
    assert sum(q.r == F(3, 8) for q in queries) >= 50
    assert sum(q.r < F(1, 1 << (q.depth + 1)) for q in queries) >= 50
    assert {q.direction for q in queries} == {Dir.GE, Dir.LE}


def test_equal_to_the_per_piece_kernel():
    # all four measures, and the certified lower bound as the sum of the
    # two certified-in pieces, against the kernel that walked each piece
    deep = [QuotientQuery(x, r, alpha, Dir.GE if i % 2 else Dir.LE, depth)
            for i, (x, r, depth, alpha, _) in enumerate(deep_band_cases())]
    mismatches = []
    for query in [*seeded_queries(), *deep, *edge_queries()]:
        # in_l, out_l, in_r, out_r; each piece is walked on its own
        want = piece_measures(query.depth, query.alpha, query_pieces(query))
        lo, _, _ = certify_lower(query.x, query.r, query.alpha, query.direction, 0,
                                 depth=query.depth)
        if list(_sides(query)) != want or lo != want[0] + want[2]:
            mismatches.append(query)
    assert mismatches == []


def test_certified_lower_bound_is_the_bracket_lo():
    # certify_lower keeps the two certified-in measures of the query's walk
    deep = [QuotientQuery(x, r, alpha, direction, depth)
            for x, r, depth, alpha, _ in islice(deep_band_cases(), 50)
            for direction in Dir]
    mismatches = []
    for query in [*seeded_queries(), *deep]:
        lo, _, _ = certify_lower(query.x, query.r, query.alpha, query.direction, 0,
                                 depth=query.depth)
        if lo != quotient_set_bounds(query).lo:
            mismatches.append(query)
    assert mismatches == []


# -- self-affinity: T(y) = G_k(y) + 2**-k * T(2**k * y) ----------------------
#
# Each identity below maps one query onto another exactly, so the kernel's
# brackets must agree as rationals, with no reference engine in between.

def _bounds(sides, k=0):
    """The ``(lo, hi)`` of each half bracket, times ``2**-k``."""
    return [(side.lo / (1 << k), side.hi / (1 << k)) for side in sides]


_OFFSETS = st.builds(F, st.integers(-8, 24), st.sampled_from((1, 2, 3, 5)))


@st.composite
def _dyadic_centre_cases(draw):
    """``(x, n, r, alpha, direction, d)``: x on the level-n grid 2**-n Z (integers
    included, centres below 0 and above 1 among them), ``r <= 2**-(n+1)``."""
    n = draw(st.integers(1, 6))
    level = draw(st.integers(0, n))
    x = F(draw(st.integers(-3 << level, 3 << level)), 1 << level)
    extra = draw(st.integers(0, 4))
    r = F(draw(st.integers(1, 1 << extra)), 1 << (n + 1 + extra))
    base = draw(st.sampled_from((None, -1, 1)))
    alpha = draw(_OFFSETS)
    if base is not None:  # near the slope of G_n on one side of x
        alpha += slope_sum(x + base * F(1, 3 << (n + 1)), n)
    return x, n, r, alpha, draw(st.sampled_from(Dir)), draw(st.integers(1, 8))


@settings(deadline=None, max_examples=150)
@given(_dyadic_centre_cases())
@example((F(-2), 1, F(1, 4), F(1), Dir.GE, 1))
@example((F(13, 8), 3, F(1, 16), F(3, 2), Dir.LE, 1))
def test_dyadic_centre_self_affinity(case):
    # on each side of x in 2**-n Z, G_n is affine with slope s on a cell of
    # width 2**-(n+1) and 2**n x is an integer, so
    # Q_x(h) = s + Q_0(2**n h) for |h| <= 2**-(n+1): each half of the query at
    # depth d + n is 2**-n times that half at centre 0 and depth d
    x, n, r, alpha, direction, d = case
    at_x = quotient_set_sides(QuotientQuery(x, r, alpha, direction, d + n))
    s_left, s_right = (slope_sum(x + sign * F(1, 3 << (n + 1)), n) for sign in (-1, 1))
    left = quotient_set_sides(QuotientQuery(F(0), r * (1 << n), alpha - s_left, direction, d))[0]
    right = quotient_set_sides(QuotientQuery(F(0), r * (1 << n), alpha - s_right, direction, d))[1]
    assert _bounds(at_x) == _bounds([left, right], n)


def _period(q):
    """The order of 2 modulo an odd ``q > 1``."""
    period, power = 1, 2 % q
    while power != 1:
        period, power = period + 1, power * 2 % q
    return period


@st.composite
def _periodic_cases(draw):
    """``(x, P, r, alpha, direction, d)``: x = p/q, q odd, P the order of 2 mod q,
    and a dyadic r with ``r * 2**-P`` at most x's distance to 2**-(P+1) Z."""
    q = draw(st.sampled_from((3, 5, 7, 9, 15, 17, 21, 31)))
    x = F(draw(st.integers(-2 * q, 3 * q).filter(lambda p: p % q)), q)
    period = _period(x.denominator)
    t = x * (1 << (period + 1))
    gap = min(t - math.floor(t), math.ceil(t) - t)
    # r <= 2**P * dist(x, 2**-(P+1) Z) = gap / 2; gap >= 1/q
    exp = draw(st.integers((2 * q).bit_length(), (2 * q).bit_length() + 4))
    r = F(draw(st.integers(1, int(gap * (1 << exp)) >> 1)), 1 << exp)
    alpha = draw(_OFFSETS) - draw(st.sampled_from((0, 8)))
    if draw(st.booleans()):  # near the slope of G_P at x
        alpha += slope_sum(x, period)
    return x, period, r, alpha, draw(st.sampled_from(Dir)), draw(st.integers(1, 8))


@settings(deadline=None, max_examples=150)
@given(_periodic_cases())
@example((F(-5, 7), 3, F(1, 32), F(-1), Dir.GE, 1))
@example((F(13, 3), 2, F(1, 8), F(1, 2), Dir.LE, 1))
def test_period_self_affinity(case):
    # 2**P x = x mod 1 and G_P is affine with slope D = G_P'(x) within
    # dist(x, 2**-(P+1) Z) of x, so Q_x(h) = D + Q_x(2**P h) there: the query
    # at radius r 2**-P and depth d + P is 2**-P times the query at radius r,
    # threshold alpha - D and depth d
    x, period, r, alpha, direction, d = case
    scaled = quotient_set_sides(QuotientQuery(x, r / (1 << period), alpha, direction,
                                              d + period))
    shifted = quotient_set_sides(QuotientQuery(x, r, alpha - slope_sum(x, period), direction, d))
    assert _bounds(scaled) == _bounds(shifted, period)


@st.composite
def _pre_period_cases(draw):
    """``(x, L, r, alpha, direction, d)``: a non-dyadic x = p/q with q even, L >= 1
    the 2-adic valuation of q, and a dyadic r at most x's distance to 2**-(L+1) Z."""
    odd = draw(st.sampled_from((3, 5, 7, 9, 15, 21)))
    pre = draw(st.integers(1, 4))
    q = odd << pre
    # p odd keeps the pre-period, and p % odd != 0 keeps x off the dyadics
    x = F(draw(st.integers(-2 * q, 3 * q).filter(lambda p: p % 2 and p % odd)), q)
    t = x * (1 << (pre + 1))
    gap = min(t - math.floor(t), math.ceil(t) - t)  # gap >= 1/odd
    # r <= dist(x, 2**-(L+1) Z) = gap * 2**-(L+1)
    exp = draw(st.integers(pre + 1 + odd.bit_length(), pre + 5 + odd.bit_length()))
    r = F(draw(st.integers(1, int(gap * (1 << exp)) >> (pre + 1))), 1 << exp)
    alpha = draw(_OFFSETS) - draw(st.sampled_from((0, 8)))
    if draw(st.booleans()):  # near the slope of G_L at x
        alpha += slope_sum(x, pre)
    return x, pre, r, alpha, draw(st.sampled_from(Dir)), draw(st.integers(1, 8))


@settings(deadline=None, max_examples=150)
@given(_pre_period_cases())
@example((F(-5, 12), 2, F(1, 64), F(-1), Dir.GE, 1))
@example((F(7, 6), 1, F(1, 16), F(1, 2), Dir.LE, 1))
def test_pre_period_self_affinity(case):
    # T(y) = G_L(y) + 2**-L T(2**L y), and G_L is affine with slope s = G_L'(x)
    # within dist(x, 2**-(L+1) Z) of x, so Q_x(h) = s + Q_{2**L x}(2**L h) there:
    # the query at depth d + L is 2**-L times the query at centre 2**L x,
    # radius 2**L r, threshold alpha - s and depth d
    x, pre, r, alpha, direction, d = case
    at_x = quotient_set_sides(QuotientQuery(x, r, alpha, direction, d + pre))
    mapped = quotient_set_sides(QuotientQuery(x * (1 << pre), r * (1 << pre),
                                              alpha - slope_sum(x, pre), direction, d))
    assert _bounds(at_x) == _bounds(mapped, pre)
