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
Increasing the depth never worsens either bound.  So a query is four
*pieces*, one band line on one half of the window each: ``in_l`` and
``out_l`` on ``[x - r, x]``, ``in_r`` and ``out_r`` on ``[x, x + r]``;
:func:`certify_lower` needs only ``lo`` and measures the two ``in``
pieces.  A piece ``(c, ge, s, e)`` is the measure of
``{y in [s, e] : G_n(y) >= c + alpha*y}`` (``<=`` when ge is false).

A piece is measured by an adaptive bisection over the dyadic cells
``[j/2**(m+1), (j+1)/2**(m+1)]`` that meet ``[s, e]``, on each of which
G_m is affine.  Since ``0 <= G_n - G_m <= 2**-(m+1) - 2**-(n+1)``, a
cell is wholly in the GE set when ``G_m >= line`` at both of its ends
and wholly out when ``G_m + 2**-(m+1) - 2**-(n+1) < line`` at both ends
(the LE set mirrors this with ``<=`` and ``>``).  Only cells that
neither test settles are split; at level n the exact affine crossing is
solved.  The result is the exact Lebesgue measure of each set, the same
rationals a full polyline of G_n would give, while the cells visited
follow the level line instead of filling the interval.  Inside the
walk everything is an integer: cell index, and ``w = D*(G_m - line)``
at the cell ends for one common denominator D.  A level-n crossing lies
at ``j + w0/d`` with ``d = w0 - w1 = (D >> (n+1))*(alpha - slope)``,
where slope is that of G_n on the cell, so a piece has at most n + 1
denominators: its crossings are summed as integer numerators per
denominator.  The few cells that straddle ``s`` or ``e`` (at most two
per level) are clipped in integers and summed the same way, so the walk
builds no ``Fraction``; one per denominator is built at the end.  The
depth-first stack holds at most one pending cell per level, so memory
does not grow with the window.

``BREAKPOINT_CAP`` caps the cells one kernel call may visit, all its
pieces together; a call over the cap raises :class:`BreakpointLimitError`
naming the query, from :func:`certify_lower` too.  That runs one call at
the depth its caller chooses; :mod:`takagi_lab.analysis` sets the depth
of each certificate.  Brackets are :class:`~takagi_lab.takagi.Enclosure`
values, the same type that encloses T(x).

The punctured centre point and interval endpoints are measure zero and
are handled with closed intervals throughout.  Radii are restricted to
dyadic rationals, keeping every cell on a dyadic grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .exactnum import _to_fraction, is_dyadic
from .takagi import Enclosure, takagi_enclosure

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

# Cell budget per kernel call: far above what any query near the level
# line needs.  It bounds the cells a pathological query visits, not its
# time: a cell costs a few operations on integers of about n + 1 bits at
# depth n, and no cell builds a Fraction.
BREAKPOINT_CAP = 1 << 24


class BreakpointLimitError(RuntimeError):
    """Raised when a query would visit more cells than its budget."""


class Dir(str, Enum):
    """Direction of the quotient comparison."""

    GE = "ge"
    LE = "le"


@dataclass(frozen=True)
class QuotientQuery:
    """One level-set measurement request."""

    x: Fraction
    r: Fraction
    alpha: Fraction
    direction: Dir
    depth: int

    def __post_init__(self):
        for name in ("x", "r", "alpha"):
            object.__setattr__(self, name, _to_fraction(getattr(self, name)))
        if not is_dyadic(self.r):
            raise ValueError("radius must be dyadic")
        if not self.r > 0:
            raise ValueError("radius must be positive")
        if not isinstance(self.direction, Dir):
            raise TypeError("direction must be a Dir")
        if self.depth < 1:
            raise ValueError("depth must be positive")


def _measures(n: int, alpha: Fraction, pieces) -> list[Fraction]:
    """Measure of ``{y in [s, e] : G_n(y) >= c + alpha*y}`` per piece.

    ``pieces`` holds ``(c, ge, s, e)``; ``ge=False`` asks for ``<=``.  All
    pieces share one cell budget.  Positions are counted in units of
    ``2**-(n+1)``; ``w0, w1`` are ``D*(G_m - line)`` at the two ends of a
    level-m cell.
    """
    unit = 1 << (n + 1)
    big = lcm(alpha.denominator * unit, *(c.denominator for c, *_ in pieces))
    step0 = alpha.numerator * (big // alpha.denominator) >> 1  # D*alpha/2
    tail_n = big >> (n + 1)
    # each piece as [lo/q, hi/q] in units, for one common denominator q
    q = lcm(*(end.denominator for *_, s, e in pieces for end in (s, e)))
    spans = [[end.numerator * (q // end.denominator) << (n + 1) for end in (s, e)]
             for *_, s, e in pieces]
    # the level-0 cells meeting each piece
    roots = [range(lo // (q << n), -(-hi // (q << n))) for lo, hi in spans]
    max_cells = BREAKPOINT_CAP  # read per call, so a patched cap applies
    over_budget = BreakpointLimitError(f"needs more than {max_cells} cells")
    if sum(map(len, roots)) > max_cells:  # every piece visits each of its roots
        raise over_budget

    cells = 0
    out = []
    for (c, ge, _, _), (lo, hi), piece_roots in zip(pieces, spans, roots):
        dc = c.numerator * (big // c.denominator)
        a, b = lo // q, -(-hi // q)
        first, last = -(-lo // q), hi // q  # cells within these lie in the piece
        whole = 0  # whole cells, in units
        # crossings and clipped cells, in units: numerators per denominator
        parts: dict[int, int] = {}
        for root in piece_roots:
            stack = [(0, root, -dc - step0 * root, -dc - step0 * (root + 1))]
            while stack:
                m, j, w0, w1 = stack.pop()
                cells += 1
                if cells > max_cells:
                    raise over_budget
                w_lo, w_hi = (w0, w1) if w0 <= w1 else (w1, w0)
                # D*(2**-(m+1) - 2**-(n+1)) bounds D*(G_n - G_m) on the cell
                tail = (big >> (m + 1)) - tail_n
                if ge:
                    inside, outside = w_lo >= 0, w_hi < -tail
                else:
                    inside, outside = w_hi <= -tail, w_lo > 0
                if outside:
                    continue
                k = n - m
                p0 = j << k
                p1 = p0 + (1 << k)
                if not inside and m < n:
                    # exact: D*G_m and D*line are integers on the level-(m+1)
                    # grid; g_{m+1} adds 2**-(m+2) at the midpoint
                    wm = ((w0 + w1) >> 1) + (big >> (m + 2))
                    pm = p0 + (1 << (k - 1))
                    if pm < b:
                        stack.append((m + 1, 2 * j + 1, wm, w1))
                    if pm > a:
                        stack.append((m + 1, 2 * j, w0, wm))
                    continue
                within = first <= p0 and p1 <= last
                if inside:
                    if within:
                        whole += p1 - p0
                        continue
                    d = 1
                else:
                    # level n: G_n is affine here and crosses the line at
                    # j + w0/d; the set meets the cell in [j, j + w0/d], or in
                    # [j + w0/d, j + 1] of length 1 - w0/d = -w1/d
                    d = w0 - w1
                    from_j = w0 >= 0 if ge else w0 <= 0
                    if within:
                        parts[d] = parts.get(d, 0) + (w0 if from_j else -w1)
                        continue
                    # in units of 1/|d| the crossing is at j*|d| + |w0|
                    d = abs(d)
                    cross = j * d + abs(w0)
                    p0, p1 = (p0 * d, cross) if from_j else (cross, p1 * d)
                # the cell straddles lo or hi: clip it in units of 1/(q*d)
                cut = min(p1 * q, hi * d) - max(p0 * q, lo * d)
                parts[q * d] = parts.get(q * d, 0) + max(cut, 0)
        rest = sum(Fraction(num, d) for d, num in parts.items())
        out.append(Fraction(whole + rest, unit))
    return out


def _pieces(q: QuotientQuery) -> list[tuple[Fraction, bool, Fraction, Fraction]]:
    """The query's pieces ``in_l, out_l, in_r, out_r``."""
    x, rf, n = q.x, q.r, q.depth
    # before the enclosure: a depth too large to represent fails here at
    # once, where the enclosure would loop over every level first
    tau = Fraction(1, 1 << (n + 1))
    enc = takagi_enclosure(x, n)  # a point at dyadic x, at any depth
    # {y : G_n(y) >= Tx_hi + alpha*(y - x)}  — pessimistic lower line
    above = (enc.hi - q.alpha * x, True)
    # {y : G_n(y) + tau <= Tx_lo + alpha*(y - x)}  — optimistic upper line
    below = (enc.lo - q.alpha * x - tau, False)
    # right of x the set lies above the line for GE; left of x it flips
    up, down = (above, below) if q.direction is Dir.GE else (below, above)
    left, right = (x - rf, x), (x, x + rf)
    return [(*down, *left), (*up, *left), (*up, *right), (*down, *right)]


def _measure_query(q: QuotientQuery, pieces) -> list[Fraction]:
    """:func:`_measures` on the query's ``pieces``; an over-budget error names the query."""
    try:
        return _measures(q.depth, q.alpha, pieces)
    except BreakpointLimitError as err:
        raise BreakpointLimitError(f"depth-{q.depth} query at x={q.x} {err}") from None


def quotient_set_sides(q: QuotientQuery) -> tuple[Enclosure, Enclosure]:
    """Certified (left, right) half-window brackets for the query's set."""
    in_l, out_l, in_r, out_r = _measure_query(q, _pieces(q))
    return Enclosure(in_l, q.r - out_l), Enclosure(in_r, q.r - out_r)


def quotient_set_bounds(q: QuotientQuery) -> Enclosure:
    """Certified bracket for the measure of the query's level set."""
    left, right = quotient_set_sides(q)
    return left + right


def certify_lower(x, r, alpha, direction: Dir, target, *,
                  depth: int) -> tuple[Fraction, int, str]:
    """Check whether the certified lower bound at ``depth`` reaches ``target``.

    Returns ``(lo, depth, status)`` from one kernel call on the query's
    two certified-in pieces: ``depth`` as given, and ``lo`` equal to the
    :func:`quotient_set_bounds` lower bound.
    """
    q = QuotientQuery(x, r, alpha, direction, depth)
    in_l, _, in_r, _ = _pieces(q)
    lo = sum(_measure_query(q, (in_l, in_r)))
    return lo, depth, CERTIFIED if lo >= _to_fraction(target) else UNDECIDED
