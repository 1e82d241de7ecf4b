"""Pointwise certificates against approximate derivability.

A function f has approximate derivative c at x only if for every
``alpha > c`` the density of ``{y : (f(y)-f(x))/(y-x) >= alpha}`` in
``(x-r, x+r)`` tends to 0 as ``r -> 0+``, and symmetrically for every
``beta < c`` with the LE sets.  The reports produced here are exact,
machine-checkable obstructions to that vanishing for the Takagi
function T:

* :func:`verify_lemma` certifies the one-scale estimate: at a
  non-dyadic x with g_n'(x) = +1, the set of y with
  ``0 < |y-x| < 2**-n`` and quotient ``<= G_{n-1}'(x) + 2/5`` has
  measure at least ``2**-(n+5)`` (mirrored with GE and -2/5 when
  g_n'(x) = -1).  Its bracket is that of one measure query at depth
  ``n + 8``: the 2/5 margin is exactly tight against worst-case tails
  (6/15), so the engine needs the real tail's slack.
* Every lemma reduces, by self-affinity
  ``T(y) = G_k(y) + 2**-k * T(2**k * y)``, to the query of a canonical
  twin at a smaller or equal scale, rescaled exactly.  A lemma bracket
  at (x, n), times ``2**(n-1)``, depends only on where x sits in its
  level-(n-1) cell, on the sign of ``g_n'(x)`` and on the slope jump of
  G_{n-1} at the nearer cell end, so it equals that of a twin whose
  scale is fixed by those, not by n (:func:`verify_lemma`).  :func:`refute`
  makes one table of lemma twins per call and passes it down, keyed by
  integers, a twin x' at scale n' by ``(x'.numerator, x'.denominator, n')``,
  so it costs its distinct twin queries plus constant work per scale;
  nothing outlives the call.
* A blow-up at a dyadic point runs no query: both of its halves are the
  whole half-ball at every scale, in closed form (:func:`blowup_check`).
* :func:`refute` packages such certificates into horizon-N evidence,
  in one pipeline: :func:`classify` names the case, one scale list
  follows from the slope sums, and each scale gets its certificates.
  For slope sums oscillating on a bounded range it emits LE/GE pairs
  at the revisits of their minimum, whose thresholds differ by exactly
  1/5 with densities >= 2**-6 on both sides -- jointly incompatible
  with any single finite derivative value; for drifting slope sums it emits
  one-sided certificates at record-and-reversal indices, with
  unboundedly growing thresholds; at a dyadic point it states the
  blow-up of the one-sided quotients, which holds at every scale.

Finite horizons are treated honestly: liminf/limsup of the slope sums
are not decidable from finitely many digits, so classification output
is labelled as horizon evidence and refutations never claim the
infinite statement -- they exhibit the certificates whose existence the
infinite statement would forbid.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .exactnum import check_printable, dyadic_level, format_rat, is_dyadic, _to_fraction
from .measure import CERTIFIED, Dir, UNDECIDED, certify_lower
from .takagi import SlopeSeq, _digits, slope_seq

__all__ = [
    "CASE_BOUNDED",
    "CASE_DIVERGENT",
    "CASE_DYADIC",
    "INSUFFICIENT_HORIZON",
    "NONDYADIC_CORPUS",
    "DYADIC_CORPUS",
    "LemmaReport",
    "ClassificationReport",
    "DensityCertificate",
    "CertificatePair",
    "BlowupReport",
    "RefutationEvidence",
    "verify_lemma",
    "classify",
    "blowup_check",
    "certificate",
    "refute",
]

CASE_BOUNDED = "bounded-oscillation"
CASE_DIVERGENT = "divergent"
CASE_DYADIC = "dyadic"
INSUFFICIENT_HORIZON = "insufficient-horizon"

# One-scale margin around the local slope; see the module docstring.
SLOPE_MARGIN = Fraction(2, 5)

# Default evaluation corpus: alternating, period-3, period-4 and longer
# period digit patterns, plus dyadic points of varied levels.
NONDYADIC_CORPUS = (
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 5),
    Fraction(1, 7),
    Fraction(3, 7),
    Fraction(1, 11),
)
DYADIC_CORPUS = tuple(Fraction(j, 1 << m) for j, m in ((0, 0), (1, 1), (1, 2), (3, 2), (5, 3)))

_LEMMA_DEPTH_HEADROOM = 8

class LemmaReport(NamedTuple):
    """Outcome of one one-scale measure certification."""

    x: Fraction
    n: int
    sign: int
    direction: Dir
    alpha: Fraction
    bound_required: Fraction
    bound_certified: Fraction
    depth_used: int
    status: str


class ClassificationReport(NamedTuple):
    """Horizon-N evidence about the behaviour of the slope sums.

    ``case_hint`` is evidence at the stated horizon only, never a claim
    about the infinite sequence.
    """

    x: Fraction
    horizon: int
    seq: SlopeSeq
    running_min: int
    running_max: int
    min_hits: tuple[int, ...]
    case_hint: str


class DensityCertificate(NamedTuple):
    """A certified density lower bound at one scale and threshold."""

    x: Fraction
    r: Fraction
    alpha: Fraction
    direction: Dir
    density_lo: Fraction


class CertificatePair(NamedTuple):
    """LE/GE certificates whose thresholds bracket a forbidden gap."""

    index: int
    le: DensityCertificate
    ge: DensityCertificate

    def gap(self) -> Fraction:
        return self.ge.alpha - self.le.alpha


class BlowupReport(NamedTuple):
    """Blow-up of one-sided quotients around a dyadic point.

    ``lo_one_sided`` bounds the GE set at threshold ``n - 2*n0`` (all
    of it sits on the right of x), ``lo_mirror`` the LE set at the
    negated threshold on the left, and ``lo_full`` their sum -- the
    certified measure of ``{y : |quotient| >= threshold}``, which is the
    full punctured ball ``2**-n``.
    """

    x: Fraction
    n: int
    base_level: int
    threshold: int
    radius: Fraction
    bound_required: Fraction
    lo_one_sided: Fraction
    lo_mirror: Fraction
    lo_full: Fraction
    depth_used: int
    status: str


class RefutationEvidence(NamedTuple):
    """Everything :func:`refute` found at one point up to a horizon."""

    x: Fraction
    horizon: int
    case_hint: str
    pairs: tuple[CertificatePair, ...]
    singles: tuple[DensityCertificate, ...]
    status: str
    detail: str = ""


def _lemma_twin(x: Fraction, n: int) -> tuple[int, int, int]:
    """The twin ``(x', n')`` whose lemma bracket is x's, rescaled (see :func:`verify_lemma`),
    as ``(x'.numerator, x'.denominator, n')``."""
    p, q = x.numerator, x.denominator
    j, rest = divmod(p << (n - 1), q)  # 2**(n-1)*x = j + u with u = rest/q
    left = 2 * rest < q
    end = j if left else j + 1
    e = (end & -end).bit_length() - 1 if end else n  # the end 0 is an integer
    if n <= e + 2:
        return p, q, n
    num, den = (1 << e if left else (1 << e) - 1) * q + rest, q << (e + 2)
    common = gcd(num, den)
    return num // common, den // common, e + 3


def _sign_and_threshold(p: int, q: int, n: int) -> tuple[int, Fraction]:
    """``(g_n'(x), G_{n-1}'(x) + g_n'(x) * SLOPE_MARGIN)`` at the non-dyadic ``x = p/q``:
    the lemma's sign and threshold, from one integer of binary digits, ``b_{n+1}`` the
    lowest (:func:`~takagi_lab.takagi._slope_digits`), and the threshold one Fraction."""
    digits = _digits(p % q, q, n)
    sign = 1 - 2 * (digits & 1)
    total = n - 1 - 2 * (digits >> 1).bit_count()  # G_{n-1}'(x), from b_2 .. b_n
    den = SLOPE_MARGIN.denominator
    return sign, Fraction(total * den + sign * SLOPE_MARGIN.numerator, den)


def _lemma(x, n: int, table: dict) -> tuple[Fraction, int, Dir, Fraction, int, tuple]:
    """``(x, sign, direction, alpha, n', entry)`` of the lemma at (x, n), where ``entry`` is
    ``(lo, status, lo * 2**(n'-1))`` of the query of its twin x' at scale n', the last item
    lo's density, read from ``table`` at ``(x'.numerator, x'.denominator, n')`` or run and
    stored there.  :func:`refute` passes one table for all its scales."""
    xf = _to_fraction(x)
    p, q = xf.numerator, xf.denominator
    if not q & (q - 1):
        raise ValueError("the one-scale estimate needs a non-dyadic centre")
    if n < 1:
        raise ValueError("scale index must be positive")
    sign, alpha = _sign_and_threshold(p, q, n)
    direction = Dir.LE if sign == 1 else Dir.GE
    key = _lemma_twin(xf, n)  # n' too: x is its own twin at each n <= e + 2
    if key not in table:
        tp, tq, tn = key
        lo, _, status = certify_lower(Fraction(tp, tq), Fraction(1, 1 << tn),
                                      _sign_and_threshold(tp, tq, tn)[1], direction,
                                      Fraction(1, 1 << (tn + 5)),
                                      depth=tn + _LEMMA_DEPTH_HEADROOM)
        table[key] = lo, status, lo * (1 << (tn - 1))
    return xf, sign, direction, alpha, key[2], table[key]


def verify_lemma(x, n: int) -> LemmaReport:
    """Certify the one-scale measure estimate at (x, n).

    The bracket is that of the LE query at ``G_{n-1}'(x) + 2/5`` when
    ``g_n'(x) = +1``, or of the GE query at ``G_{n-1}'(x) - 2/5`` when
    ``g_n'(x) = -1``, both at radius ``2**-n`` and depth ``n + 8``; the
    report is certified when its lower bound reaches ``2**-(n+5)``.

    The query that runs is a twin's.  Write ``x = (j + u)/2**(n-1)``
    with j an integer and ``0 < u < 1``.  The window ``|y - x| < 2**-n``
    holds the cell midpoint ``(j + 1/2)/2**(n-1)`` and one cell end:
    ``j/2**(n-1)`` when ``u < 1/2``, else ``(j + 1)/2**(n-1)``.  Let e be
    the number of trailing zeros of that end's numerator, j or j + 1.
    Since ``g_k(y) = 2**-(n-1)*g_{k-n+1}(2**(n-1)*y)`` for ``k >= n``,

        G_{n+8}(y) = G_{n-1}(y) + 2**-(n-1)*G_9(2**(n-1)*y),

    and G_9 has period 1.  On the window G_{n-1} is affine with slope
    ``G_{n-1}'(x)`` but for two kinks.  At the midpoint only g_{n-1}
    bends, by -2.  At the end, g_k has a valley for
    ``n - 1 - e <= k <= n - 1`` and g_{n-2-e} a peak, a jump of 2e when
    ``e <= n - 3``; when the end is an integer or a half-integer there is
    no peak term and the jump is ``2(n-1)``.  The threshold's slope
    cancels the affine part up to the margin, and the enclosure width
    ``2**-(n+9)`` of T(x) and the tail band ``2**-(n+9)`` are
    ``2**-(n-1)`` times their depth-9 values.  So in the coordinate
    ``2**(n-1)*y - j`` the certified-in set depends only on u, the sign
    and the end's jump, and its measure, times ``2**(n-1)``, is the same
    for every (x, n) that share them.  The twin has ``n' = min(n, e + 3)``,
    ``x' = (j' + u)/2**(n'-1)`` with ``j' = 2**e`` (``u < 1/2``) or
    ``2**e - 1``, and threshold ``G_{n'-1}'(x') ± 2/5``: same u, same sign
    (``g_n'(x) = 1 - 2*b`` for the second binary digit b of u) and the
    same jump 2e.  When ``n <= e + 2`` (an integer end has ``e >= n - 1``)
    the jump depends on n, and the twin is x itself.

    ``depth_used`` is ``n + 8``, the depth of the full query the bracket
    equals.
    """
    xf, sign, direction, alpha, tn, (lo, status, _) = _lemma(x, n, {})
    return LemmaReport(x=xf, n=n, sign=sign, direction=direction, alpha=alpha,
                       bound_required=Fraction(1, 1 << (n + 5)),
                       bound_certified=lo / (1 << (n - tn)),
                       depth_used=n + _LEMMA_DEPTH_HEADROOM, status=status)


def certificate(x, n: int) -> DensityCertificate:
    """The lemma at (x, n) as a density bound at radius 2**-n: its bracket over the
    window, the twin's density ``lo * 2**(n'-1)`` (see :func:`verify_lemma`)."""
    return _certificate(x, n, {})


def _certificate(x, n: int, table: dict) -> DensityCertificate:
    """:func:`certificate`, with the twin's entry read from ``table`` (see :func:`_lemma`)."""
    xf, _, direction, alpha, _, (_, _, density) = _lemma(x, n, table)
    return DensityCertificate(x=xf, r=Fraction(1, 1 << n), alpha=alpha, direction=direction,
                              density_lo=density)


def classify(x, N: int) -> ClassificationReport:
    """Slope-sum evidence at horizon N, with a case hint.

    The horizon must be positive, at dyadic points too, which then
    short-circuit.  Otherwise the hint is ``bounded-oscillation`` when
    both running extrema stopped moving in the first half of the
    horizon, else ``divergent``: the last new extreme is the later of
    the first indices where the minimum and the maximum are reached.
    """
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
    last_new_extreme = max(vals.index(running_min), vals.index(running_max)) + 1
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


def blowup_check(x, n: int) -> BlowupReport:
    """Certify the quotient blow-up around a dyadic point.

    With ``n0 = max(dyadic_level(x), 0)`` and ``n > 2*n0``, every y with
    ``0 < |y - x| <= 2**-(n+1)`` satisfies
    ``T(y) - T(x) >= (n - 2*n0)*|y - x|``: the k-th distance term moves
    by at most |h| for k <= n0 and equals |h| exactly for n0 < k <= n.
    Dividing by y - x, the right half of the ball has quotient
    ``>= n - 2*n0`` and the left half quotient ``<= -(n - 2*n0)``, so
    the GE query certifies the right half and the mirrored LE query the
    left half; their sum is the full ball ``2**-n``.

    Each half equals the bracket of one query at depth ``n + 4``, in
    closed form, so no query runs.  Since ``n >= 2*n0 + 1``, ``2**n*x`` is
    an integer, so G_n is affine on each half-ball, ``T(x) = G_n(x)``
    exactly, and ``G_{n+4}(x+h) = G_n(x+h) + 2**-n*G_4(2**n*h)``.  On the
    right half the GE query certifies y in when
    ``G_{n+4}(y) >= T(x) + (n - 2*n0)*(y - x)``: G_{n+4} itself bounds T
    from below, and T(x) needs no enclosure.  There G_n has slope
    ``n - n0 + S``, where S sums the right slopes of ``g_1 .. g_n0`` at x,
    so in ``t = 2**n*h`` the test reads ``(n0 + S)*t + G_4(t) >= 0``.  Each
    slope is +1 or -1, so ``S >= -n0``, and ``G_4 >= 0``: the test holds on
    the whole closed right half, of length ``2**-(n+1)``.  On the left half
    the true quotient is negative, below the threshold, so the certified-in
    set there is empty.  The LE query mirrors both halves.  So
    ``lo_one_sided = lo_mirror = 2**-(n+1)``, twice the required
    ``2**-(n+2)``, ``lo_full = 2**-n`` and the report is certified;
    ``depth_used`` is ``n + 4``, the depth of the query the bracket equals.

    The clamp to ``n0 >= 0`` matters at integers: x is on the level-0
    grid, but the series has no k = 0 term to contribute |h|, so only
    n of the first distance terms move and the supported threshold is
    n, not n + 2.
    """
    xf = _to_fraction(x)
    n0 = max(dyadic_level(xf), 0)
    if n <= 2 * n0:
        raise ValueError(f"need n > {2 * n0} at {xf} (level floor {n0})")
    half = Fraction(1, 1 << (n + 1))
    return BlowupReport(x=xf, n=n, base_level=n0, threshold=n - 2 * n0, radius=half,
                        bound_required=Fraction(1, 1 << (n + 2)), lo_one_sided=half,
                        lo_mirror=half, lo_full=2 * half, depth_used=n + 4, status=CERTIFIED)


def _first_blowup_scale(x: Fraction) -> int:
    """Smallest n that :func:`blowup_check` accepts at x: ``2*n0 + 1``."""
    return 2 * max(dyadic_level(x), 0) + 1


def _scales(report: ClassificationReport) -> list[int]:
    """The scales :func:`refute` certifies at, in increasing order.

    * Bounded: ``j + 1`` at each index j where the slope sums revisit
      their minimum I.  A revisit at j >= 2 forces ``G_{j-1}' = I + 1``
      and ``G_{j+1}' = I + 1`` (unit steps may not go below the
      minimum), i.e. a -1 step in and a +1 step out.  These step
      directions are asserted rather than assumed; an interior violation
      would mean the index conventions have drifted and is surfaced as
      an error.  The hit at j = 1 qualifies only when ``G_0' = 0``
      equals I + 1, and the hit at j = N has its step out beyond the
      horizon.
    * Divergent: ``j + 1`` at each index j < N where ``G_j'`` is a strict
      running record in the direction of drift and the next step
      reverses it.  For upward drift the GE certificates there have
      thresholds ``G_j' - 2/5`` that grow without bound; downward drift
      mirrors.
    * Dyadic: the first blow-up scale alone; the blow-up holds at every
      larger scale too (:func:`blowup_check`).
    """
    if report.case_hint == CASE_DYADIC:
        return [_first_blowup_scale(report.x)]
    sums = (0,) + report.seq.values  # sums[j] = G_j'
    N = report.horizon
    scales: list[int] = []
    if report.case_hint == CASE_BOUNDED:
        lowest = report.running_min
        for j in report.min_hits:
            if j == N or (j == 1 and sums[0] != lowest + 1):
                continue
            if sums[j - 1] != lowest + 1 or sums[j + 1] != lowest + 1:
                raise RuntimeError(
                    f"slope steps around minimum revisit at n={j} are "
                    f"{sums[j - 1]}->{lowest}->{sums[j + 1]}; expected {lowest + 1} on both sides"
                )
            scales.append(j + 1)
        return scales
    drift = 1 if sums[N] >= sums[1] else -1
    best = sums[1] - drift  # so that j = 1 is a record
    for j in range(1, N):
        if drift * (sums[j] - best) > 0:
            best = sums[j]
            if sums[j + 1] - best == -drift:
                scales.append(j + 1)
    return scales


def _certificates(x: Fraction, case: str, n: int, table: dict) -> list[DensityCertificate]:
    """What :func:`refute` emits at scale n: ``[le, ge]``, ``[single]`` or ``[blow-up]``.

    The LE certificate at n and the GE certificate at ``n - 1`` of a
    minimum revisit have thresholds ``I + 2/5`` and ``I + 3/5``; their
    directions and 1/5 gap are checked.  The one blow-up, at the first
    scale, is the GE half of :func:`blowup_check` as a density.
    """
    if case == CASE_DYADIC:
        rep = blowup_check(x, n)
        return [DensityCertificate(x=x, r=rep.radius, alpha=Fraction(rep.threshold),
                                   direction=Dir.GE,
                                   density_lo=rep.lo_one_sided / (2 * rep.radius))]
    if case == CASE_DIVERGENT:
        return [_certificate(x, n, table)]
    le, ge = _certificate(x, n, table), _certificate(x, n - 1, table)
    if le.direction is not Dir.LE or ge.direction is not Dir.GE:
        raise RuntimeError(f"unexpected certificate directions at n={n}")
    (a, b), (c, d) = ge.alpha.as_integer_ratio(), le.alpha.as_integer_ratio()
    if 5 * (a * d - c * b) != b * d:  # a/b - c/d == 1/5, in integers
        raise RuntimeError(f"threshold gap at n={n} is not 1/5")
    return [le, ge]


def refute(x, horizon: int) -> RefutationEvidence:
    """Horizon-N evidence that no finite approximate derivative exists at x.

    One pipeline for every case: :func:`classify` gives the case,
    :func:`_scales` the scales, and :func:`_certificates` the
    certificates at each scale.  A scale counts as certified when every
    certificate at it has density at least 2**-6.  Bounded-oscillation
    evidence yields the LE/GE pairs of its certified scales, with a
    forbidden threshold gap of exactly 1/5; divergent evidence yields
    the one-sided certificates of its certified scales, at growing
    thresholds; a dyadic point yields the one blow-up at its first scale,
    density 1/2 with no measure query, whose detail states the threshold
    ``n - 2*n0`` at every scale ``n >= 2*n0 + 1``.  A point is certified
    when any scale certifies, undecided when scales exist but none
    certifies, and ``insufficient-horizon`` when no index qualifies below
    the horizon.

    The largest radius exponent the report prints is known from the slope
    sums alone: the largest scale n (its radius is ``2**-n``), or the
    blow-up's ``n + 1``.  When that power is too long to print, the
    ``ValueError`` of :func:`~takagi_lab.exactnum.check_printable` is
    raised before any measure query.  At a non-dyadic point the report
    prints that radius only if its certificate certifies, as every lemma
    measured so far has; a dyadic point's always does.
    """
    xf = _to_fraction(x)
    report = classify(xf, horizon)
    case = report.case_hint
    scales = _scales(report)
    if scales:  # scale n prints radius 2**-n, a blow-up at n prints 2**-(n+1)
        check_printable(scales[-1] + (case == CASE_DYADIC))
    table: dict = {}  # the lemma twins' entries, shared by all scales of this call
    found = {n: _certificates(xf, case, n, table) for n in scales}
    bad = [n for n in scales  # a density below 2**-6, in integers
           if any(c.density_lo.numerator << 6 < c.density_lo.denominator for c in found[n])]
    good = [n for n in scales if n not in bad]
    if case == CASE_BOUNDED:
        pairs, singles = tuple(CertificatePair(n, *found[n]) for n in good), ()
    else:
        pairs, singles = (), tuple(found[n][0] for n in good)
    if good:
        status = CERTIFIED
        if case == CASE_BOUNDED:
            detail = (f"{len(pairs)} certificate pairs at thresholds "
                      f"{format_rat(report.running_min + SLOPE_MARGIN)} (LE) / "
                      f"{format_rat(report.running_min + 1 - SLOPE_MARGIN)} (GE)")
        elif case == CASE_DIVERGENT:
            detail = f"{len(singles)} one-sided certificates at growing thresholds"
        else:  # the one scale is the first, 2*n0 + 1
            detail = f"thresholds n - {good[0] - 1} for every n >= {good[0]}"
    elif bad:  # never dyadic: a blow-up's density is 1/2
        status = UNDECIDED
        detail = f"qualifying indices {bad} did not certify"
    else:
        status = INSUFFICIENT_HORIZON
        detail = ("no qualifying minimum revisit below the horizon" if case == CASE_BOUNDED
                  else "no record-and-reversal index below the horizon")
    return RefutationEvidence(x=xf, horizon=horizon, case_hint=case, pairs=pairs,
                              singles=singles, status=status, detail=detail)
