"""Independent oracles the tests check the library against.

Everything here is deliberately written from scratch against the
defining formulas, using different code paths than the library:
distances via explicit floor/ceil grid neighbours, series values via
geometric summation of the eventually periodic digit orbit, slopes via
exact finite differences, and measures via a vectorised float sampler
with rigorous error margins.

The uniform polyline engine (``PLF``, ``build_Gn``, ``solve_affine_ge``,
``solve_affine_le``, ``IntervalSet``) and :func:`uniform_quotient_set_sides`
are the measure engine the library used before its adaptive kernel: they
materialise every breakpoint of G_n in the window and solve segment by
segment.  They stay here as the reference the adaptive kernel must match
exactly.  :func:`fraction_band_measures` is the adaptive kernel as it
was before it summed its crossings per denominator: one ``Fraction``
per level-n crossing, clipped against the window.  It is the reference
at depths the uniform engine cannot reach.  :func:`piece_measures` and
:func:`query_pieces` are the adaptive kernel as it was before it walked
a query's window once for both band lines: four *pieces*, one band line
on one half of the window each, each walked on its own, kept verbatim.  Likewise :func:`fraction_G`
is the partial sum the library computed before its integer orbit
kernel, one ``Fraction`` per term, and :func:`reference_sample_rows` is
``sample`` as it was before it put its grid on one denominator: one
:func:`takagi_enclosure` and one ``Fraction`` per value per row.

:func:`reference_classify` and :func:`reference_scales` are the
classification and the scale selectors of ``refute`` as they were
before ``refute`` became one pipeline: the extremum loop, the minimum
revisit selector and the record-and-reversal selector, kept verbatim.
:func:`reference_slope_seq` is ``slope_seq`` as it was before it read
all its digits as one integer: one :func:`slope` per index, then scans
for unit steps and for parity, kept verbatim.

:func:`full_query_verify_lemma` and :func:`full_query_blowup_check` are
``verify_lemma`` and ``blowup_check`` as they were before they reduced
each certificate to a canonical twin: one measure query at the full
depth ``n + 8`` (lemma) or ``n + 4`` (each blow-up half), kept verbatim.

:func:`reference_to_jsonable` is ``analysis.to_jsonable`` as it was
before it checked exact types first: one ``isinstance`` chain per node
and ``dataclasses.fields`` per report, kept verbatim but for one branch
that writes a report record (a named tuple) as a dict of its fields.
:func:`reference_text_lines` is ``cli._text_lines`` as it was before it
walked the records itself: it rendered the tree of ``to_jsonable``, kept
verbatim but for :func:`reference_to_jsonable` in its place.
:func:`reference_run` is ``cli.run`` as it was before a named
subcommand parsed its own arguments: the top-level parser reads every
argv and hands the tokens after the subcommand name on, kept verbatim
but for finding the handler and the usage to show in ``cli._COMMANDS``
and the built subparsers, since the namespace no longer carries them.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from bisect import bisect_right
from math import ceil, floor, lcm
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from takagi_lab import cli
from takagi_lab.analysis import (
    CASE_BOUNDED,
    CASE_DIVERGENT,
    CASE_DYADIC,
    SLOPE_MARGIN,
    BlowupReport,
    ClassificationReport,
    LemmaReport,
)
from takagi_lab.exactnum import (_to_fraction, check_printable, dyadic_level, dyadic_neighbors,
                                 format_rat, frac_part, is_dyadic)
from takagi_lab.measure import (
    BREAKPOINT_CAP,
    CERTIFIED,
    UNDECIDED,
    BreakpointLimitError,
    Dir,
    QuotientQuery,
    certify_lower,
)
from takagi_lab.takagi import (Enclosure, G, SlopeSeq, slope, slope_seq, slope_sum,
                               takagi_enclosure)


def brute_g(k: int, x: Fraction) -> Fraction:
    """Distance from x to {j / 2**k} via the two enclosing grid points."""
    step = Fraction(1, 1 << k)
    j = math.floor(x / step)
    return min(x - j * step, (j + 1) * step - x)


def brute_G(n: int, x: Fraction) -> Fraction:
    return sum((brute_g(k, x) for k in range(1, n + 1)), Fraction(0))


def _dist_to_grid(x: Fraction, k: int) -> Fraction:
    """Distance from x to D_k = {j / 2**k}, for k >= 0."""
    scaled = x * (1 << k)
    f = scaled - (scaled.numerator // scaled.denominator)
    return min(f, 1 - f) / (1 << k)


def fraction_G(n: int, x, *, classical: bool = False) -> Fraction:
    """Partial sum ``g_1(x) + ... + g_n(x)``; empty sum for n = 0.

    With ``classical=True`` the distance-to-integers term is added in
    front, giving the partial sums of the textbook variant.
    """
    if n < 0:
        raise ValueError("partial-sum order must be non-negative")
    xf = _to_fraction(x)
    total = _dist_to_grid(xf, 0) if classical else Fraction(0)
    for k in range(1, n + 1):
        total += _dist_to_grid(xf, k)
    return total


def reference_sample_rows(a, b, count: int, depth: int,
                          *, approx: bool = False, classical: bool = False) -> list[list[str]]:
    """Enclosure rows "y,lo,hi" at equally spaced points of the dyadic range [a, b]."""
    a, b = _to_fraction(a), _to_fraction(b)
    if not (is_dyadic(a) and is_dyadic(b)):
        raise ValueError(f"sample range [{a}, {b}] must have dyadic ends")
    if not a < b:
        raise ValueError("need a < b")
    if count < 2:
        raise ValueError("need at least two sample points")
    step = (b - a) / (count - 1)
    if not is_dyadic(step):
        # a + step is then not dyadic: one end of its enclosure has a
        # denominator that is a multiple of 2**(depth + 1)
        check_printable(depth + 1)
    rows = []
    for i in range(count):
        y = a + i * step
        enc = takagi_enclosure(y, depth, classical=classical)
        row = [format_rat(y), format_rat(enc.lo), format_rat(enc.hi)]
        if approx:
            row.append(repr(float((enc.lo + enc.hi) / 2)))
        rows.append(row)
    return rows


def brute_T_dyadic(x: Fraction) -> Fraction:
    """Finite summation of the series at a dyadic point (it terminates)."""
    return brute_G(x.denominator.bit_length(), x)


def _phi(u: Fraction) -> Fraction:
    return min(u, 1 - u)


def takagi_periodic(x) -> Fraction:
    """Exact series value at any rational, by geometric summation.

    The orbit u_k = 2**k x mod 1 is eventually periodic; summing
    phi(u_k)/2**k over the pre-period and closing the periodic part
    with 1/(1 - 2**-period) gives the exact limit.
    """
    x0 = frac_part(Fraction(x))
    orbit: list[Fraction] = []
    index: dict[Fraction, int] = {}
    u = (2 * x0) % 1
    while u not in index:
        index[u] = len(orbit)
        orbit.append(u)
        u = (2 * u) % 1
    start = index[u]
    total = Fraction(0)
    for i in range(start):
        total += _phi(orbit[i]) / (1 << (i + 1))
    periodic = Fraction(0)
    for i in range(start, len(orbit)):
        periodic += _phi(orbit[i]) / (1 << (i + 1))
    period = len(orbit) - start
    return total + periodic / (1 - Fraction(1, 1 << period))


def fd_slope(k: int, x: Fraction) -> Fraction:
    """Exact finite difference of g_k inside the level-(k+1) cell of x."""
    lo, hi = dyadic_neighbors(x, k + 1)
    x_prime = (x + hi) / 2
    return (brute_g(k, x_prime) - brute_g(k, x)) / (x_prime - x)


def _runs(mask: np.ndarray) -> int:
    if mask.size == 0:
        return 0
    return int(mask[0]) + int(np.count_nonzero(mask[1:] & ~mask[:-1]))


def grid_measure_bracket(
    q: QuotientQuery, samples: int = 100_000, depth: int = 32
) -> tuple[Fraction, Fraction, int]:
    """Empirical bracket [emp_lo, emp_hi] for the query's set measure.

    Samples the window at cell centres, evaluates the series by exact
    integer digit orbits accumulated in floats (error well under the
    folded margins), and classifies each sample as definitely in,
    definitely out, or uncertain.  Every definite sample is rigorous,
    so the true measure lies between (yes_count - yes_runs) cells and
    2r minus (no_count - no_runs) cells.
    """
    x = q.x
    rf = q.r
    cell = 2 * rf / samples
    y0 = x - rf + cell / 2

    common = np.lcm(y0.denominator, cell.denominator)
    assert common < 1 << 40, "grid denominator too large for the int64 sampler"
    n0 = y0.numerator * (common // y0.denominator)
    c = cell.numerator * (common // cell.denominator)
    idx = np.arange(samples, dtype=np.int64)
    v = (n0 % common + (c % common) * idx) % common

    g_sum = np.zeros(samples, dtype=np.float64)
    for k in range(1, depth + 1):
        v = (v << 1) % common
        g_sum += np.minimum(v, common - v) * (1.0 / (common * (1 << k)))
    tail = 2.0 ** -(depth + 1)
    eps = 1e-11  # covers float accumulation and conversions below

    tx = takagi_enclosure(x, depth)
    tx_lo = float(tx.lo) - 1e-15
    tx_hi = float(tx.hi) + 1e-15

    dy = (idx + 0.5) * float(cell) - float(rf)
    num_lo = (g_sum - eps) - tx_hi
    num_hi = (g_sum + tail + eps) - tx_lo
    with np.errstate(divide="ignore"):
        q_a = num_lo / dy
        q_b = num_hi / dy
    q_lo = np.minimum(q_a, q_b)
    q_hi = np.maximum(q_a, q_b)
    margin = 1e-9 * (1.0 + np.abs(q_lo) + np.abs(q_hi))
    q_lo -= margin
    q_hi += margin

    alpha = float(q.alpha)
    if q.direction is Dir.GE:
        yes = q_lo >= alpha
        no = q_hi < alpha
    else:
        yes = q_hi <= alpha
        no = q_lo > alpha
    uncertain = ~(yes | no)

    emp_lo = max(Fraction(0), (int(yes.sum()) - _runs(yes)) * cell)
    emp_hi = min(2 * rf, 2 * rf - (int(no.sum()) - _runs(no)) * cell)
    return emp_lo, emp_hi, int(uncertain.sum())


# -- uniform polyline engine (reference for the adaptive kernel) ------

@dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted, closed rational intervals with exact total length."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pieces(cls, pieces) -> "IntervalSet":
        """Normalize arbitrary (lo, hi) pieces: sort, drop empties, merge."""
        cleaned = sorted((lo, hi) for lo, hi in pieces if lo <= hi)
        merged: list[list[Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    def measure(self) -> Fraction:
        total = Fraction(0)
        for lo, hi in self.intervals:
            total += hi - lo
        return total

    def clip(self, lo, hi) -> "IntervalSet":
        """Intersection with the closed interval [lo, hi]."""
        lo = _to_fraction(lo)
        hi = _to_fraction(hi)
        out = []
        for a, b in self.intervals:
            c, d = max(a, lo), min(b, hi)
            if c <= d:
                out.append((c, d))
        return IntervalSet(tuple(out))

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


class PLF:
    """Piecewise-linear function on a closed dyadic interval."""

    __slots__ = ("breakpoints", "values", "slopes")

    def __init__(self, breakpoints, values, slopes):
        bps = tuple(breakpoints)
        vals = tuple(values)
        slps = tuple(slopes)
        if len(bps) < 2:
            raise ValueError("a PLF needs at least two breakpoints")
        if len(vals) != len(bps) or len(slps) != len(bps) - 1:
            raise ValueError("inconsistent breakpoint/value/slope counts")
        self.breakpoints = bps
        self.values = vals
        self.slopes = slps

    @property
    def a(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def b(self) -> Fraction:
        return self.breakpoints[-1]

    def __neg__(self) -> "PLF":
        return PLF(self.breakpoints, tuple(-v for v in self.values),
                   tuple(-s for s in self.slopes))

    def eval(self, y) -> Fraction:
        """Exact value at y by interpolation on the containing segment."""
        yf = _to_fraction(y)
        if yf < self.a or yf > self.b:
            raise ValueError(f"{yf} outside the domain [{self.a}, {self.b}]")
        i = bisect_right(self.breakpoints, yf) - 1
        if i == len(self.slopes):  # y == right endpoint
            return self.values[-1]
        return self.values[i] + self.slopes[i] * (yf - self.breakpoints[i])

    __call__ = eval

    def validate(self) -> None:
        """Full invariant check (used by tests; construction trusts callers)."""
        for i in range(len(self.breakpoints) - 1):
            if not self.breakpoints[i] < self.breakpoints[i + 1]:
                raise AssertionError("breakpoints not strictly increasing")
            gap = self.breakpoints[i + 1] - self.breakpoints[i]
            if self.values[i] + self.slopes[i] * gap != self.values[i + 1]:
                raise AssertionError(f"value/slope mismatch on segment {i}")


def _cell_slope(j: int, n: int) -> int:
    """Slope of G_n on the grid cell [j/2**(n+1), (j+1)/2**(n+1)].

    Each g_k (k <= n) is linear on the cell; its sign is read off bit
    k+1 of the cell midpoint (2j+1)/2**(n+2), which is bit n+1-k of the
    odd integer 2j+1.  Summing gives n minus twice the popcount of bits
    1..n of 2j+1.
    """
    m = (2 * j + 1) & ((1 << (n + 1)) - 1)
    return n - 2 * ((m >> 1).bit_count())


def build_Gn(a: Fraction, b: Fraction, n: int, *, max_breakpoints: int = BREAKPOINT_CAP) -> PLF:
    """Exact polyline equal to G_n on [a, b].

    Breakpoints are the points of D_{n+1} inside [a, b] together with
    the endpoints, so the count is at most ``2**(n+1) * (b - a) + 2``.
    Raises :class:`BreakpointLimitError` beyond ``max_breakpoints``.
    """
    if not (is_dyadic(a) and is_dyadic(b)):
        raise ValueError("domain endpoints must be dyadic")
    if not a < b:
        raise ValueError("empty domain: need a < b")
    if n < 0:
        raise ValueError("partial-sum order must be non-negative")

    level = n + 1
    scale = 1 << level
    # grid indices of D_{n+1} points inside [a, b]
    j0 = -((-a.numerator * scale) // a.denominator)  # ceil(a * scale)
    j1 = (b.numerator * scale) // b.denominator      # floor(b * scale)

    inner = j1 - j0 + 1 if j1 >= j0 else 0
    head = 1 if (inner == 0 or a * scale != j0) else 0
    tail = 1 if (inner == 0 or b * scale != j1) else 0
    if inner + head + tail > max_breakpoints:
        raise BreakpointLimitError(
            f"G_{n} on [{a}, {b}] needs {inner + head + tail} breakpoints "
            f"(budget {max_breakpoints})"
        )

    if inner == 0:
        # both endpoints inside one grid cell
        s = _cell_slope(a.numerator * scale // a.denominator, n)
        va = G(n, a)
        return PLF([a, b], [va, va + s * (b - a)], [s])

    h = Fraction(1, scale)
    base = G(n, Fraction(j0, scale))
    v = int(base * scale)  # grid values of G_n are multiples of 1/2**(n+1)
    grid_vals = [v]
    grid_slopes = []
    for j in range(j0, j1):
        s = _cell_slope(j, n)
        grid_slopes.append(s)
        v += s
        grid_vals.append(v)

    bps: list[Fraction] = []
    vals: list[Fraction] = []
    slopes: list[int] = []
    if head:
        s = _cell_slope(j0 - 1, n)
        bps.append(a)
        vals.append(Fraction(grid_vals[0], scale) - s * (Fraction(j0, scale) - a))
        slopes.append(s)
    bps.extend(Fraction(j, 1 << level) for j in range(j0, j1 + 1))
    vals.extend(Fraction(gv, scale) for gv in grid_vals)
    slopes.extend(grid_slopes)
    if tail:
        s = _cell_slope(j1, n)
        bps.append(b)
        vals.append(Fraction(grid_vals[-1], scale) + s * (b - Fraction(j1, scale)))
        slopes.append(s)
    return PLF(bps, vals, slopes)


def solve_affine_ge(f: PLF, c0, c1) -> IntervalSet:
    """Exact solution set ``{y in dom f : f(y) >= c0 + c1*y}``.

    On a segment the difference f - line is affine, so the endpoint
    signs decide everything; a sign change yields a single rational
    crossing point.  Boundary points with equality are included.
    """
    c0 = _to_fraction(c0)
    c1 = _to_fraction(c1)
    bps = f.breakpoints
    vals = f.values
    slopes = f.slopes

    t = bps[0]
    d = vals[0] - (c0 + c1 * t)
    inc_cache: dict[tuple[int, int, int], Fraction] = {}

    pieces: list[tuple[Fraction, Fraction]] = []
    run_start: Fraction | None = t if d.numerator >= 0 else None

    for i, s in enumerate(slopes):
        gap = bps[i + 1] - bps[i]
        ikey = (s, gap.numerator, gap.denominator)
        inc = inc_cache.get(ikey)
        if inc is None:
            inc = inc_cache[ikey] = (s - c1) * gap
        d_next = d + inc
        t_next = t + gap

        d_ok = d.numerator >= 0
        dn_ok = d_next.numerator >= 0
        if d_ok != dn_ok:
            cross = t + d * gap / (d - d_next)
            if d_ok:
                pieces.append((run_start, cross))
                run_start = None
            else:
                run_start = cross
        t, d = t_next, d_next

    if run_start is not None:
        pieces.append((run_start, t))
    return IntervalSet.from_pieces(pieces)


def solve_affine_le(f: PLF, c0, c1) -> IntervalSet:
    """``{y : f(y) <= c0 + c1*y}``, via the GE solver on the negated data."""
    return solve_affine_ge(-f, -_to_fraction(c0), -_to_fraction(c1))


def _window_plf(x: Fraction, rf: Fraction, depth: int, max_breakpoints: int):
    """G_depth on the smallest D_{depth+1}-aligned interval covering the window."""
    scale = 1 << (depth + 1)
    lo = x - rf
    hi = x + rf
    a = Fraction((lo.numerator * scale) // lo.denominator, 1 << (depth + 1))
    b = Fraction(-((-hi.numerator * scale) // hi.denominator), 1 << (depth + 1))
    return build_Gn(a, b, depth, max_breakpoints=max_breakpoints)


def uniform_quotient_set_sides(
    q: QuotientQuery, *, max_breakpoints: int = BREAKPOINT_CAP
) -> tuple[Enclosure, Enclosure]:
    """Certified (left, right) half-window brackets, by the uniform engine."""
    x = q.x
    rf = q.r
    n = q.depth
    tau = Fraction(1, 1 << (n + 1))

    if is_dyadic(x):
        enc = takagi_enclosure(x, 1)  # dyadic points collapse exactly
        tx_lo = tx_hi = enc.lo
    else:
        enc = takagi_enclosure(x, n)
        tx_lo, tx_hi = enc.lo, enc.hi

    f = _window_plf(x, rf, n, max_breakpoints)
    # {y : G_n(y) >= Tx_hi + alpha*(y - x)}  — pessimistic lower line
    above = solve_affine_ge(f, tx_hi - q.alpha * x, q.alpha)
    # {y : G_n(y) + tau <= Tx_lo + alpha*(y - x)}  — optimistic upper line
    below = solve_affine_le(f, tx_lo - q.alpha * x - tau, q.alpha)

    left = (x - rf, x)
    right = (x, x + rf)
    if q.direction is Dir.GE:
        in_r, out_r = above.clip(*right), below.clip(*right)
        in_l, out_l = below.clip(*left), above.clip(*left)
    else:
        in_r, out_r = below.clip(*right), above.clip(*right)
        in_l, out_l = above.clip(*left), below.clip(*left)

    left_bound = Enclosure(in_l.measure(), rf - out_l.measure())
    right_bound = Enclosure(in_r.measure(), rf - out_r.measure())
    return left_bound, right_bound


def fraction_band_measures(x: Fraction, rf: Fraction, n: int, alpha: Fraction,
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
    max_cells = BREAKPOINT_CAP
    over_budget = BreakpointLimitError(
        f"depth-{n} query at x={x} needs more than {max_cells} cells"
    )
    if len(bands) * len(roots) > max_cells:  # every band visits every root
        raise over_budget

    cells = 0
    out = []
    for c, ge in bands:
        dc = c.numerator * (big // c.denominator)
        left = right = 0
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
                else:  # level n: G_n is affine here, cut at the crossing
                    cross = j + Fraction(w0, w0 - w1)
                    if (w0 >= 0 if ge else w0 <= 0):
                        p1 = cross
                    else:
                        p0 = cross
                left += max(0, min(p1, mid) - max(p0, lo))
                right += max(0, min(p1, hi) - max(p0, mid))
        out.append((Fraction(left) / unit, Fraction(right) / unit))
    return out


def piece_measures(n: int, alpha: Fraction, pieces) -> list[Fraction]:
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


def query_pieces(q: QuotientQuery) -> list[tuple[Fraction, bool, Fraction, Fraction]]:
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


def reference_slope_seq(x, N: int) -> SlopeSeq:
    """Slope sums ``G_n'(x)`` for n = 1..N at a non-dyadic point."""
    if N < 1:
        raise ValueError("horizon must be positive")
    xf = _to_fraction(x)
    if is_dyadic(xf):
        raise ValueError(f"slopes are eventually undefined at dyadic {xf}")
    values = []
    total = 0
    for k in range(1, N + 1):
        step = slope(k, xf)
        total += step
        values.append(total)
    # unit steps and parity come with the construction; keep them checked
    # (explicitly, so that ``python -O`` does not strip the checks)
    if any(abs(values[i + 1] - values[i]) != 1 for i in range(len(values) - 1)):
        raise RuntimeError(f"slope sums at {xf} do not move in unit steps")
    if any((values[i] - (i + 1)) % 2 != 0 for i in range(len(values))):
        raise RuntimeError(f"slope sums at {xf} break the parity of their index")
    return SlopeSeq(point=xf, values=tuple(values), horizon=N)


def reference_classify(x, N: int) -> ClassificationReport:
    xf = _to_fraction(x)
    if N < 1:
        raise ValueError("horizon must be positive")
    if is_dyadic(xf):
        return ClassificationReport(
            x=xf,
            horizon=0,
            seq=SlopeSeq(point=xf, values=(), horizon=0),
            running_min=0,
            running_max=0,
            min_hits=(),
            case_hint=CASE_DYADIC,
        )
    seq = slope_seq(xf, N)
    vals = seq.values
    running_min = min(vals)
    running_max = max(vals)
    min_hits = tuple(i + 1 for i, v in enumerate(vals) if v == running_min)
    last_new_extreme = 1
    lo = hi = vals[0]
    for i, v in enumerate(vals[1:], start=2):
        if v < lo:
            lo = v
            last_new_extreme = i
        elif v > hi:
            hi = v
            last_new_extreme = i
    hint = CASE_BOUNDED if 2 * last_new_extreme <= N else CASE_DIVERGENT
    return ClassificationReport(
        x=xf,
        horizon=N,
        seq=seq,
        running_min=running_min,
        running_max=running_max,
        min_hits=min_hits,
        case_hint=hint,
    )


def _pair_scales(report: ClassificationReport) -> list[int]:
    """Scales ``j + 1`` at the indices j where the slope sums revisit their minimum.

    A revisit of the running minimum I at index j >= 2 forces
    ``G_{j-1}' = I + 1`` and ``G_{j+1}' = I + 1`` (unit steps that may
    not go below the minimum), i.e. a -1 step in and a +1 step out.
    These step directions are asserted rather than assumed; an interior
    violation would mean the index conventions have drifted and is
    surfaced as an error.  The hit at j = 1 qualifies only when
    ``G_0' = 0`` equals I + 1.
    """
    vals = report.seq.values
    N = report.horizon
    lowest = report.running_min
    scales: list[int] = []
    for j in report.min_hits:
        if j + 1 > N:
            continue  # the step out of the hit is beyond the horizon
        before = vals[j - 2] if j >= 2 else 0
        after = vals[j]
        if j == 1 and before != lowest + 1:
            continue  # the empty-sum boundary is not a qualifying revisit
        if before != lowest + 1 or after != lowest + 1:
            raise RuntimeError(
                f"slope steps around minimum revisit at n={j} are "
                f"{before}->{lowest}->{after}; expected {lowest + 1} on both sides"
            )
        scales.append(j + 1)
    return scales


def _record_scales(report: ClassificationReport) -> list[int]:
    """Scales ``j + 1`` at record values followed by a reversal.

    For upward drift: indices j where ``G_j'`` is a strict running
    maximum and the next step is -1 give GE certificates at thresholds
    ``G_j' - 2/5`` that grow without bound.  Downward drift mirrors.
    """
    vals = report.seq.values
    upward = vals[-1] - vals[0] >= 0
    scales: list[int] = []
    best = None
    for j in range(1, report.horizon):
        v = vals[j - 1]
        is_record = (best is None) or (v > best if upward else v < best)
        if is_record:
            best = v
            step_out = vals[j] - v
            if (upward and step_out == -1) or (not upward and step_out == 1):
                scales.append(j + 1)
    return scales


def reference_scales(report: ClassificationReport) -> list[int]:
    """The scales ``refute`` certifies at: the one blow-up scale ``2*n0 + 1``
    at a dyadic point, else the selector of the case."""
    if report.case_hint == CASE_DYADIC:
        return [2 * max(dyadic_level(report.x), 0) + 1]
    return _pair_scales(report) if report.case_hint == CASE_BOUNDED else _record_scales(report)


def full_query_verify_lemma(x, n: int) -> LemmaReport:
    xf = _to_fraction(x)
    if is_dyadic(xf):
        raise ValueError("the one-scale estimate needs a non-dyadic centre")
    if n < 1:
        raise ValueError("scale index must be positive")
    sign = slope(n, xf)
    base = slope_sum(xf, n - 1)
    if sign == 1:
        direction = Dir.LE
        alpha = base + SLOPE_MARGIN
    else:
        direction = Dir.GE
        alpha = base - SLOPE_MARGIN
    required = Fraction(1, 1 << (n + 5))
    lo, depth_used, status = certify_lower(xf, Fraction(1, 1 << n), alpha, direction,
                                           required, depth=n + 8)
    return LemmaReport(
        x=xf,
        n=n,
        sign=sign,
        direction=direction,
        alpha=alpha,
        bound_required=required,
        bound_certified=lo,
        depth_used=depth_used,
        status=status,
    )


def full_query_blowup_check(x, n: int) -> BlowupReport:
    xf = _to_fraction(x)
    n0 = max(dyadic_level(xf), 0)
    if n <= 2 * n0:
        raise ValueError(f"need n > {2 * n0} at {xf} (level floor {n0})")
    threshold = n - 2 * n0
    r = Fraction(1, 1 << (n + 1))
    required = Fraction(1, 1 << (n + 2))
    depth = n + 4
    lo_ge, depth_ge, status_ge = certify_lower(
        xf, r, Fraction(threshold), Dir.GE, required, depth=depth
    )
    lo_le, depth_le, status_le = certify_lower(
        xf, r, Fraction(-threshold), Dir.LE, required, depth=depth
    )
    return BlowupReport(
        x=xf,
        n=n,
        base_level=n0,
        threshold=threshold,
        radius=r,
        bound_required=required,
        lo_one_sided=lo_ge,
        lo_mirror=lo_le,
        lo_full=lo_ge + lo_le,
        depth_used=max(depth_ge, depth_le),
        status=CERTIFIED if status_ge == status_le == CERTIFIED else UNDECIDED,
    )


def reference_to_jsonable(obj):
    """Recursively convert reports to JSON-ready data.

    Rationals (``Fraction``, so every dyadic value too) become exact
    ``"p/q"`` strings; no floats ever appear.
    """
    if isinstance(obj, Fraction):
        return format_rat(obj)
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: reference_to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, tuple) and hasattr(type(obj), "_fields"):  # a report record
        return {name: reference_to_jsonable(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {key: reference_to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} exactly")


def reference_text_lines(result) -> list[str]:
    data = reference_to_jsonable(result)
    out: list[str] = []

    def walk(prefix: str, node) -> None:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            label = f"{prefix}{key}"
            if isinstance(value, (dict, list)):
                walk(f"{label}.", value)
            else:
                out.append(f"{label}: {value}")

    if isinstance(data, (dict, list)):
        walk("", data)
    else:
        out.append(str(data))
    return out


def reference_run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    parser, commands = cli._build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # a flag the subcommand does not take: show that subcommand's usage
            usage = commands.get(args.command, parser)
            usage.error(f"unrecognized arguments: {' '.join(extras)}")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return cli._COMMANDS[args.command][0](args)
    except (cli._UsageError, ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is often empty
        print("error: out of memory", file=sys.stderr)
        return 1
