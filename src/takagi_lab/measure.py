"""Certified bounds on the measure of difference-quotient level sets.

For a centre x, radius r, threshold alpha and direction GE, the target
set is ``{y : 0 < |y - x| < r, (T(y) - T(x))/(y - x) >= alpha}`` (LE
mirrors it).  The bracketing works with the partial sum G_n at the
query's depth n:

* ``G_n(y) <= T(y) <= G_n(y) + tau`` with ``tau = 2**-(n+1)`` (tail band);
* ``T(x)`` is enclosed in ``[Tx_lo, Tx_hi]`` (a point when x is dyadic);
* on the right half (y > x) the quotient condition is
  ``T(y) >= T(x) + alpha*(y - x)``; on the left half the inequality
  flips because dividing by ``y - x < 0`` reverses it.

A point is *certified in* when the pessimistic side of the band already
satisfies the condition, *certified out* when the optimistic side
already fails it; both tests are affine comparisons against G_n.  ``lo``
is the total certified-in length, ``hi`` is ``2r`` minus the
certified-out length, and the true measure always lies in ``[lo, hi]``.
Increasing the depth never worsens either bound.  So a query needs two
sets, each on both halves ``[x - r, x]`` and ``[x, x + r]`` of the
window: GE of the upper band line ``G_n >= Tx_hi + alpha*(y - x)`` and
LE of the lower one ``G_n + tau <= Tx_lo + alpha*(y - x)``.  By direction
and half, each of the four measures is ``in`` or ``out``;
:func:`certify_lower` sums the two ``in`` measures.

All four come from one adaptive bisection over the dyadic cells
``[j/2**(m+1), (j+1)/2**(m+1)]`` that meet the window, on each of which
G_m is affine.  Inside the walk everything is an integer: cell index,
and ``w = D*(G_m - alpha*y)`` at the cell ends for one common
denominator D; the two lines enter only as thresholds ``ga`` (upper)
and ``lb < ga`` (lower).  Since ``0 <= G_n - G_m <= tail = 2**-(m+1) -
2**-(n+1)`` (times D), a cell is wholly in the GE set when ``w >= ga``
at both ends, wholly in the LE set when ``w <= lb - tail`` at both ends,
and out of both when ``w < ga - tail`` and ``w > lb`` at both ends.  A
cell that none of these settles is split; at level n the exact affine
crossing of each line is solved.  The result is the exact Lebesgue
measure of each set, the same rationals a full polyline of G_n would
give, while the cells visited follow the two level lines, about
``2**-n`` apart, instead of filling the interval.  Every piece, a
settled cell or a level-n crossing, reaches the halves through one
function: it adds its length to the half it lies in, and clips the few
that straddle x or a window end (at most three per level) to both
halves in integers.  A level-n crossing lies at
``j + |w0 - c|/d`` with ``d = |w0 - w1| = (D >> (n+1))*|alpha - slope|``
for the slope of G_n on the cell, so crossings have at most n + 1
denominators: a measure is summed as integer numerators per denominator
and built as one ``Fraction`` over their lcm at the end.  The depth-first
stack holds at most one pending cell per level, so memory does not grow
with the window.

``BREAKPOINT_CAP`` caps the cells one query's walk may visit; a query
over the cap raises :class:`BreakpointLimitError` naming the query, from
:func:`certify_lower` too.  That runs one walk at the depth its caller
chooses; :mod:`takagi_lab.analysis` sets the depth of each certificate.
Brackets are :class:`~takagi_lab.takagi.Enclosure` values, the same type
that encloses T(x).

The punctured centre point and interval endpoints are measure zero and
are handled with closed intervals throughout.  Radii are restricted to
dyadic rationals, keeping every cell on a dyadic grid.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exactnum import _to_fraction, is_dyadic
from .takagi import Enclosure, _enclosure_nums

__all__ = [
    "BREAKPOINT_CAP",
    "BreakpointLimitError",
    "CERTIFIED",
    "UNDECIDED",
    "Dir",
    "QuotientQuery",
    "quotient_set_bounds",
    "quotient_set_sides",
    "certify_lower",
]

CERTIFIED = "certified"
UNDECIDED = "undecided"

# Cell budget of one query's walk.  At integer thresholds the cells grow about
# as 2**(depth/2) (ROADMAP item 6), and a deep query there stops at the budget.
# It bounds cells, not time: a cell costs a few operations on integers of about
# n + 1 bits at depth n, and no cell builds a Fraction.
BREAKPOINT_CAP = 1 << 24


class BreakpointLimitError(RuntimeError):
    """Raised when a query would visit more cells than its budget."""


class Dir(str, Enum):
    """Direction of the quotient comparison."""

    GE = "ge"
    LE = "le"


class _QuotientQuery(NamedTuple):
    x: Fraction
    r: Fraction
    alpha: Fraction
    direction: Dir
    depth: int


class QuotientQuery(_QuotientQuery):
    """One level-set measurement request."""

    __slots__ = ()
    __annotations__ = _QuotientQuery.__annotations__

    def __new__(cls, x, r, alpha, direction, depth):
        x, r, alpha = _to_fraction(x), _to_fraction(r), _to_fraction(alpha)
        if not is_dyadic(r):
            raise ValueError("radius must be dyadic")
        if not r > 0:
            raise ValueError("radius must be positive")
        if not isinstance(direction, Dir):
            raise TypeError("direction must be a Dir")
        if depth < 1:
            raise ValueError("depth must be positive")
        return tuple.__new__(cls, (x, r, alpha, direction, depth))

    @classmethod
    def _make(cls, iterable):  # _replace builds through it, so it checks too
        return cls(*iterable)


def _over_budget(q: QuotientQuery, cap: int) -> BreakpointLimitError:
    return BreakpointLimitError(f"depth-{q.depth} query at x={q.x} needs more than {cap} cells")


def _measures(q: QuotientQuery) -> list[Fraction]:
    """``[ge_l, ge_r, le_l, le_r]``: the query's two band sets on each half.

    ``ge`` is ``{y : G_n(y) >= Tx_hi + alpha*(y - x)}`` (the upper line),
    ``le`` is ``{y : G_n(y) + tau <= Tx_lo + alpha*(y - x)}`` (the lower
    one); ``_l`` is the part in ``[x - r, x]``, ``_r`` the part in
    ``[x, x + r]``.  Positions are counted in units of ``2**-(n+1)``;
    ``w0, w1`` are ``D*(G_m - alpha*y)`` at the two ends of a level-m cell,
    and the lines enter as the thresholds ``ga = D*(Tx_hi - alpha*x)`` and
    ``lb = D*(Tx_lo - alpha*x - tau) < ga``.
    """
    n, x, r, alpha = q.depth, q.x, q.r, q.alpha
    # before the enclosure: a depth too large to represent fails here at
    # once, where the enclosure would loop over every level first
    unit = 1 << (n + 1)
    t_lo, t_hi, t_den = _enclosure_nums(x.numerator, x.denominator, n)
    a, b = alpha.numerator, alpha.denominator
    big = lcm(b * unit, t_den, b * x.denominator)
    step0 = a * (big // b) >> 1  # D*alpha/2
    tail_n = big >> (n + 1)
    ax = a * x.numerator * (big // (b * x.denominator))  # D*alpha*x
    ga = t_hi * (big // t_den) - ax
    lb = t_lo * (big // t_den) - ax - tail_n
    # the window's ends and centre as lo/p, mid/p, hi/p in units
    p = lcm(x.denominator, r.denominator)
    mid = x.numerator * (p // x.denominator) << (n + 1)
    rad = r.numerator * (p // r.denominator) << (n + 1)
    lo, hi = mid - rad, mid + rad
    cell_a, cell_b = lo // p, -(-hi // p)
    # cells within these lie in one half of the window
    first_l, last_l, first_r, last_r = -(-lo // p), mid // p, -(-mid // p), hi // p
    roots = range(lo // (p << n), -(-hi // (p << n)))  # the level-0 cells meeting it
    max_cells = BREAKPOINT_CAP  # read per call, so a patched cap applies
    if len(roots) > max_cells:  # the walk visits each root
        raise _over_budget(q, max_cells)

    # per measure, in units: numerators per denominator
    sums: list[dict[int, int]] = [{}, {}, {}, {}]

    def add(i, p0, p1, s0, s1, d):
        """Measure ``i`` (its left half) gains ``[s0/d, s1/d]`` of the cell ``[p0, p1]``."""
        if first_l <= p0 and p1 <= last_l:
            part = sums[i]
        elif first_r <= p0 and p1 <= last_r:
            part = sums[i + 1]
        else:  # the cell straddles x or a window end: clip it in units of 1/(p*d)
            for part, start, end in ((sums[i], lo, mid), (sums[i + 1], mid, hi)):
                cut = min(s1 * p, end * d) - max(s0 * p, start * d)
                if cut > 0:
                    part[p * d] = part.get(p * d, 0) + cut
            return
        part[d] = part.get(d, 0) + s1 - s0

    # per level m: D*2**-(m+2), the midpoint term, and the two lines
    # shifted by the tail D*(2**-(m+1) - 2**-(n+1))
    mids = [big >> (m + 2) for m in range(n)]
    ge_out = [ga - (big >> (m + 1)) + tail_n for m in range(n + 1)]
    le_in = [lb - (big >> (m + 1)) + tail_n for m in range(n + 1)]
    cells = 0
    for root in roots:
        stack = [(0, root, -step0 * root, -step0 * (root + 1))]
        while stack:
            m, j, w0, w1 = stack.pop()
            cells += 1
            if cells > max_cells:
                raise _over_budget(q, max_cells)
            w_lo, w_hi = (w0, w1) if w0 <= w1 else (w1, w0)
            if w_lo >= ga:
                i = 0  # in the GE set, so out of the LE set
            elif w_hi <= le_in[m]:
                i = 2  # in the LE set, so out of the GE set
            elif w_hi < ge_out[m] and w_lo > lb:
                continue  # out of both
            elif m < n:
                # exact: D*G_m and D*alpha*y are integers on the level-(m+1)
                # grid; g_{m+1} adds 2**-(m+2) at the midpoint
                wm = ((w0 + w1) >> 1) + mids[m]
                pm = (2 * j + 1) << (n - m - 1)
                if pm < cell_b:
                    stack.append((m + 1, 2 * j + 1, wm, w1))
                if pm > cell_a:
                    stack.append((m + 1, 2 * j, w0, wm))
                continue
            else:
                # level n: G_n is affine here and crosses a line c at j + |w0 - c|/d;
                # the GE set lies where w is larger, the LE set where it is smaller
                d = abs(w0 - w1)
                s0, s1 = j * d, (j + 1) * d
                if w_hi >= ga:
                    cross = s0 + abs(w0 - ga)
                    add(0, j, j + 1, *((s0, cross) if w0 > w1 else (cross, s1)), d)
                if w_lo <= lb:
                    cross = s0 + abs(w0 - lb)
                    add(2, j, j + 1, *((cross, s1) if w0 > w1 else (s0, cross)), d)
                continue
            p0 = j << (n - m)
            p1 = p0 + (1 << (n - m))
            add(i, p0, p1, p0, p1, 1)
    dens = [lcm(*part) for part in sums]
    return [Fraction(sum(num * (den // d) for d, num in part.items()), den * unit)
            for part, den in zip(sums, dens)]


def _sides(q: QuotientQuery) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The query's measures ``in_l, out_l, in_r, out_r`` by direction."""
    ge_l, ge_r, le_l, le_r = _measures(q)
    # right of x the set lies above the line for GE; left of x it flips
    if q.direction is Dir.GE:
        return le_l, ge_l, ge_r, le_r
    return ge_l, le_l, le_r, ge_r


def quotient_set_sides(q: QuotientQuery) -> tuple[Enclosure, Enclosure]:
    """Certified (left, right) half-window brackets for the query's set."""
    in_l, out_l, in_r, out_r = _sides(q)
    return Enclosure(in_l, q.r - out_l), Enclosure(in_r, q.r - out_r)


def quotient_set_bounds(q: QuotientQuery) -> Enclosure:
    """Certified bracket for the measure of the query's level set."""
    left, right = quotient_set_sides(q)
    return left + right


def certify_lower(x, r, alpha, direction: Dir, target, *,
                  depth: int) -> tuple[Fraction, int, str]:
    """Check whether the certified lower bound at ``depth`` reaches ``target``.

    Returns ``(lo, depth, status)`` from one walk of the query: ``depth``
    as given, and ``lo`` its two certified-in measures, the
    :func:`quotient_set_bounds` lower bound.
    """
    in_l, _, in_r, _ = _sides(QuotientQuery(x, r, alpha, direction, depth))
    lo = in_l + in_r
    return lo, depth, CERTIFIED if lo >= _to_fraction(target) else UNDECIDED
