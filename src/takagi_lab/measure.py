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
Increasing the depth never worsens either bound.

The two sets ``{G_n >= line}`` and ``{G_n <= line}`` are measured by an
adaptive bisection over the dyadic cells ``[j/2**(m+1), (j+1)/2**(m+1)]``,
on each of which G_m is affine.  Since
``0 <= G_n - G_m <= 2**-(m+1) - 2**-(n+1)``, a cell is wholly in the GE
set when ``G_m >= line`` at both of its ends and wholly out when
``G_m + 2**-(m+1) - 2**-(n+1) < line`` at both ends (the LE set mirrors
this with ``<=`` and ``>``).  Only cells that neither test settles are
split; at level n the exact affine crossing is solved.  The result is
the exact Lebesgue measure of each set, the same rationals a full
polyline of G_n would give, while the cells visited follow the level
line instead of filling the window.  Inside the walk everything is an
integer: cell index, and ``w = D*(G_m - line)`` at the cell ends for
one common denominator D.  A level-n crossing lies at ``j + w0/d`` with
``d = w0 - w1 = (D >> (n+1))*(alpha - s)``, where s is the slope of G_n
on the cell, so a band has at most n + 1 denominators: the crossing
pieces inside one half of the window are summed as integer numerators
per denominator, and one ``Fraction`` per denominator is built at the
end.  Only cells that straddle ``x - r``, ``x`` or ``x + r`` (at most
three per level) are clipped in ``Fraction``.  The depth-first stack
holds at most one pending cell per level, so memory does not grow with
the window.

``BREAKPOINT_CAP`` caps the number of cells one query may visit (both
sets together); a query over the cap raises
:class:`BreakpointLimitError`, which :func:`certify_lower` turns into an
undecided outcome.  :func:`certify_lower` runs one query at the depth
its caller chooses; :mod:`takagi_lab.analysis` sets the depth of each
certificate.  Brackets are :class:`~takagi_lab.takagi.Enclosure` values,
the same type that encloses T(x).

The punctured centre point and interval endpoints are measure zero and
are handled with closed intervals throughout.  Radii are restricted to
dyadic rationals, keeping every cell on a dyadic grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil, floor, lcm

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

# Cell budget per query: far above what any query near the level line
# needs.  It bounds the cells a pathological query visits, not its time:
# a cell costs a few operations on integers of about n + 1 bits at depth
# n, and only the few cells that straddle the window's ends or centre
# build a Fraction.
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


def _band_measures(x: Fraction, rf: Fraction, n: int, alpha: Fraction,
                   bands) -> list[tuple[Fraction, Fraction]]:
    """(left, right) measures of ``{y : G_n(y) >= c + alpha*y}`` per band.

    ``bands`` holds ``(c, ge)`` pairs; ``ge=False`` asks for ``<=``.
    Left is the part in ``[x - r, x]``, right the part in ``[x, x + r]``.
    Positions are counted in units of ``2**-(n+1)``; ``w0, w1`` are
    ``D*(G_m - line)`` at the two ends of a level-m cell.
    """
    unit = 1 << (n + 1)
    big = lcm(alpha.denominator * unit, *(c.denominator for c, _ in bands))
    step0 = alpha.numerator * (big // alpha.denominator) >> 1  # D*alpha/2
    tail_n = big >> (n + 1)
    lo, mid, hi = (x - rf) * unit, x * unit, (x + rf) * unit
    a, b = floor(lo), ceil(hi)
    # cells within these bounds lie in one half of the window
    left_in, right_in = (ceil(lo), floor(mid)), (ceil(mid), floor(hi))
    roots = range(a >> n, -(-b >> n))  # the level-0 cells meeting the window
    max_cells = BREAKPOINT_CAP  # read per query, so a patched cap applies
    over_budget = BreakpointLimitError(
        f"depth-{n} query at x={x} needs more than {max_cells} cells"
    )
    if len(bands) * len(roots) > max_cells:  # every band visits every root
        raise over_budget

    cells = 0
    out = []
    for c, ge in bands:
        dc = c.numerator * (big // c.denominator)
        left = right = 0  # whole cells in one half, in units
        # crossings in one half: numerators summed per denominator w0 - w1
        parts_l: dict[int, int] = {}
        parts_r: dict[int, int] = {}
        cut_l = cut_r = 0  # cells that straddle lo, mid or hi, clipped
        for root in roots:
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
                if inside:
                    if left_in[0] <= p0 and p1 <= left_in[1]:
                        left += p1 - p0
                        continue
                    if right_in[0] <= p0 and p1 <= right_in[1]:
                        right += p1 - p0
                        continue
                else:
                    # level n: G_n is affine here and crosses the line at
                    # j + w0/d; the piece is [j, j + w0/d], or [j + w0/d, j + 1]
                    # of length 1 - w0/d = -w1/d
                    d = w0 - w1
                    from_j = w0 >= 0 if ge else w0 <= 0
                    num = w0 if from_j else -w1
                    if left_in[0] <= p0 and p1 <= left_in[1]:
                        parts_l[d] = parts_l.get(d, 0) + num
                        continue
                    if right_in[0] <= p0 and p1 <= right_in[1]:
                        parts_r[d] = parts_r.get(d, 0) + num
                        continue
                    cross = j + Fraction(w0, d)
                    if from_j:
                        p1 = cross
                    else:
                        p0 = cross
                cut_l += max(0, min(p1, mid) - max(p0, lo))
                cut_r += max(0, min(p1, hi) - max(p0, mid))
        out.append(tuple(
            Fraction(whole + cut + sum(Fraction(num, d) for d, num in parts.items()), unit)
            for whole, cut, parts in ((left, cut_l, parts_l), (right, cut_r, parts_r))
        ))
    return out


def quotient_set_sides(q: QuotientQuery) -> tuple[Enclosure, Enclosure]:
    """Certified (left, right) half-window brackets for the query's set."""
    x, rf, n = q.x, q.r, q.depth
    tau = Fraction(1, 1 << (n + 1))

    enc = takagi_enclosure(x, n)  # a point at dyadic x, at any depth
    tx_lo, tx_hi = enc.lo, enc.hi

    (above_l, above_r), (below_l, below_r) = _band_measures(
        x, rf, n, q.alpha,
        (
            # {y : G_n(y) >= Tx_hi + alpha*(y - x)}  — pessimistic lower line
            (tx_hi - q.alpha * x, True),
            # {y : G_n(y) + tau <= Tx_lo + alpha*(y - x)}  — optimistic upper line
            (tx_lo - q.alpha * x - tau, False),
        ),
    )
    if q.direction is Dir.GE:
        in_r, out_r, in_l, out_l = above_r, below_r, below_l, above_l
    else:
        in_r, out_r, in_l, out_l = below_r, above_r, above_l, below_l
    return Enclosure(in_l, rf - out_l), Enclosure(in_r, rf - out_r)


def quotient_set_bounds(q: QuotientQuery) -> Enclosure:
    """Certified bracket for the measure of the query's level set."""
    left, right = quotient_set_sides(q)
    return left + right


def certify_lower(x, r, alpha, direction: Dir, target, *,
                  depth: int) -> tuple[Fraction, int, str]:
    """Check whether the certified lower bound at ``depth`` reaches ``target``.

    Returns ``(lo, depth, status)`` from one :func:`quotient_set_bounds`
    query, or ``(0, 0, UNDECIDED)`` when that query is over the cell
    budget; the ``UNDECIDED`` status is an outcome, not an error.
    """
    try:
        lo = quotient_set_bounds(QuotientQuery(x, r, alpha, direction, depth)).lo
    except BreakpointLimitError:
        return Fraction(0), 0, UNDECIDED
    return lo, depth, CERTIFIED if lo >= _to_fraction(target) else UNDECIDED
