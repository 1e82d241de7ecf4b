"""Exact and certified evaluation of the Takagi function.

The function is ``T(x) = sum_{k>=1} g_k(x)`` where ``g_k(x)`` is the
distance from ``x`` to the level-k grid D_k.  The partial sum
``G_n = g_1 + ... + g_n`` is piecewise linear with integer slopes
between consecutive points of D_{n+1}; at every non-dyadic ``x`` each
``g_k`` is differentiable with ``g_k'(x) = +-1``, so the slope sums
``G_n'(x)`` form an integer walk with unit steps.

All of it runs on the binary orbit of ``x = p/q``: with
``r_k = 2**k * p mod q`` one has ``g_k(x) = min(r_k, q - r_k) / (q * 2**k)``
and ``g_k'(x) = 1 - 2*b_{k+1}(x)``: ``G_n`` is Horner's rule over
integers followed by a single ``Fraction``, and the slope sums read
``b_2 .. b_{n+1}`` as one integer.  The orbit is eventually periodic:
from the pre-period ``L`` (the 2-adic valuation of ``q``) on, ``r_k``
returns to ``r_L`` after ``P`` steps, ``P`` the order of 2 modulo the
odd part of ``q``.  So Horner's rule stops once ``r`` returns: ``m``
whole periods more are one repunit ``(2**(m*P) - 1) / (2**P - 1)``
times the period's sum, and the last ``t < P`` terms that rule from
``r_L``, at most ``L + 2*P`` steps in all instead of ``n``.  An orbit that
does not return within ``n`` steps costs one comparison per step more
than the plain loop.

On a grid of equally spaced dyadic points, ``T`` is an integer walk.  On
the level-m grid ``D_m`` every ``g_i`` with ``i >= m`` vanishes, so
``T = G_{m-1}`` there, and ``N(j) = 2**m * T(j/2**m)`` is an integer:
each ``g_i(j/2**m)`` with ``i < m`` is a distance between points of
``D_m``.  Each such ``g_i`` has its corners on ``D_{i+1}``, inside
``D_m``, so ``G_{m-1}`` is affine from ``j/2**m`` to ``(j+1)/2**m``, with
slope ``sum_{i=1}^{m-1} (1 - 2*b_{i+1})``, where ``b_1 .. b_m`` are the
binary digits of ``j mod 2**m``, most significant first.  The digits
``b_2 .. b_m`` are the low ``M = m - 1`` bits of ``j``, so the slope is
``M - 2*popcount(j mod 2**M)``, and across the cell, of width ``2**-m``,
``N(j+1) = N(j) + M - 2*popcount(j mod 2**M)``.  On the integers
(``m = 0``) ``T`` vanishes, and ``M = 0``.
:func:`_grid_nums` starts ``N`` from one Horner sum and takes ``s`` steps
per point of a grid with step ``s/2**m``.

A value of ``T`` that needs a limit is an :class:`Enclosure` using the
tail estimate ``0 <= T(x) - G_n(x) <= sum_{k>n} 2**-(k+1) = 2**-(n+1)``,
which follows from ``sup g_k = 2**-(k+1)``.

The series here starts at k = 1.  The textbook variant behind the
``classical`` flag adds ``g_0(x) = dist(x, Z)`` and is this series at
``x/2``: halving ``x`` halves its distance to each grid, so
``g_k(x/2) = g_{k-1}(x)/2``, ``g_0 + ... + g_n = 2*G_{n+1}(x/2)`` and
``T_c(x) = 2*T(x/2)``, both sides of period 1 in ``x``.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .exactnum import dyadic_level, is_dyadic, _to_fraction

__all__ = [
    "DEFAULT_DEPTH",
    "Enclosure",
    "SlopeSeq",
    "g",
    "G",
    "takagi_exact",
    "takagi_enclosure",
    "slope",
    "slope_seq",
    "slope_sum",
]

# Default depth of ``takagi_enclosure`` and of ``enclose``: width 2**-65.
DEFAULT_DEPTH = 64


class _Enclosure(NamedTuple):
    lo: Fraction
    hi: Fraction


class Enclosure(_Enclosure):
    """Certified interval [lo, hi] containing a real value (T(x), or a measure)."""

    __slots__ = ()
    __annotations__ = _Enclosure.__annotations__
    # tuple repetition and lexicographic order mean nothing for an interval:
    # ``2 * e`` and ``e < f`` raise TypeError
    __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None

    def __new__(cls, lo, hi):
        if lo > hi:
            raise ValueError(f"empty enclosure: {lo} > {hi}")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable):  # _replace builds through it, so it checks too
        return cls(*iterable)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi

    def __add__(self, other: "Enclosure") -> "Enclosure":
        """Bracket for the measure of a disjoint union."""
        return Enclosure(self.lo + other.lo, self.hi + other.hi)


class SlopeSeq(NamedTuple):
    """Slope sums ``G_1'(x), ..., G_N'(x)`` at a non-dyadic point.

    Consecutive entries differ by exactly one and ``values[n-1]`` has
    the parity of ``n``.
    """

    point: Fraction
    values: tuple[int, ...]
    horizon: int


def _orbit(x) -> tuple[int, int]:
    """``(p mod q, q)`` for ``x = p/q`` in lowest terms."""
    xf = _to_fraction(x)
    return xf.numerator % xf.denominator, xf.denominator


def g(k: int, x) -> Fraction:
    """Distance from ``x`` to the level-k grid; ``0 <= g <= 2**-(k+1)``."""
    if k < 1:
        raise ValueError("grid index starts at 1")
    r, q = _orbit(x)
    r = (r << k) % q
    return Fraction(min(r, q - r), q << k)


def _partial_num(n: int, r: int, q: int) -> int:
    """``q * 2**n * G_n(x)`` for ``x = r/q mod 1``, ``0 <= r < q``, by Horner's rule
    on the orbit, closed by the period once ``r`` returns to ``r_L``."""
    # acc = q * 2**k * G_k(x) after step k; a step adds min(r, q - r), which is
    # r exactly when r <= q // 2 (a comparison, cheaper than a call to min)
    half = q >> 1
    acc = 0
    lead = min(n, (q & -q).bit_length() - 1)  # the pre-period L, or n
    for _ in range(lead):
        r <<= 1
        if r >= q:
            r -= q
        acc = (acc << 1) + (r if r <= half else q - r)
    n -= lead
    start, base = r, acc
    for period in range(1, n + 1):
        r <<= 1
        if r >= q:
            r -= q
        acc = (acc << 1) + (r if r <= half else q - r)
        if r == start:
            break
    else:
        return acc  # no return within n steps (or none left to walk)
    rest = n - period
    whole, t = divmod(rest, period)
    head = t and _partial_num(t, start, q)  # the first t < P terms from r_L: t steps, no return
    block = acc - (base << period)  # one period's terms, by Horner's rule
    repunit = ((1 << (whole * period)) - 1) // ((1 << period) - 1)
    return (acc << rest) + ((block * repunit) << t) + head


def G(n: int, x, *, classical: bool = False) -> Fraction:
    """Partial sum ``g_1(x) + ... + g_n(x)``; empty sum for n = 0.

    With ``classical=True`` the distance-to-integers term ``g_0`` is added in
    front (the textbook variant), as ``2*G_{n+1}(x/2)``: see the module docstring.
    """
    if n < 0:
        raise ValueError("partial-sum order must be non-negative")
    r, q = _orbit(x)  # classical: twice G_{n+1} at (x mod 1)/2 = r/(2q)
    return Fraction(_partial_num(n + classical, r, q << classical), q << (n + classical))


def takagi_exact(x, *, classical: bool = False) -> Fraction:
    """T(x) at a dyadic point: ``G_m(x)`` for ``x`` in D_m, where the series stops.

    A non-dyadic ``x`` raises ``ValueError``.
    """
    return G(dyadic_level(x) + 1, x, classical=classical)


def _grid_nums(k0: int, s: int, count: int, m: int) -> Iterator[int]:
    """``N(k) = 2**m * T(k / 2**m)`` at ``k = k0 + i*s`` for ``i < count``, ``s > 0``:
    one Horner sum at ``k0``, then ``s`` steps of the grid walk per point."""
    q = 1 << m
    num = _partial_num(m, k0 % q, q) >> m  # q * 2**m * T(k0/q), over 2**m
    bits = max(m - 1, 0)  # the module docstring's M
    mask = (1 << bits) - 1
    # one flat loop over the grid indices, yielding at every s-th: faster than
    # an inner loop per point
    due = k0
    for k in range(k0, k0 + count * s):
        if k == due:
            yield num
            due += s
        num += bits - 2 * (k & mask).bit_count()


def _enclosure_nums(p: int, q: int, depth: int) -> tuple[int, int, int]:
    """:func:`takagi_enclosure` at ``p/q`` in lowest terms or ``(p, 2q)`` from them (unreduced
    if ``p`` is even, same value), as integers ``(lo, hi, den)``; ``lo == hi`` if dyadic."""
    r = p % q
    if not q & (q - 1):
        m = q.bit_length() - 1
        lo = _partial_num(m, r, q)
        return lo, lo, q << m
    lo = _partial_num(depth, r, q) << 1
    return lo, lo + q, q << (depth + 1)


def takagi_enclosure(x, depth: int = DEFAULT_DEPTH, *, classical: bool = False) -> Enclosure:
    """Certified interval around T(x).

    A dyadic ``x`` with denominator ``2**m`` collapses to the exact value
    ``G_m(x)``, since every later ``g_k(x)`` vanishes; elsewhere the result is
    ``[G_depth(x), G_depth(x) + 2**-(depth+1)]`` by the tail bound.  With
    ``classical=True`` it is twice the enclosure of ``x/2`` at ``depth + 1``.
    """
    if depth < 1:
        raise ValueError("enclosure depth must be positive")
    xf = _to_fraction(x)
    lo, hi, den = _enclosure_nums(xf.numerator, xf.denominator << classical, depth + classical)
    den >>= classical  # twice x/2's enclosure
    lo_value = Fraction(lo, den)
    return Enclosure(lo_value, lo_value if hi == lo else Fraction(hi, den))


def slope(k: int, x) -> int:
    """The slope ``g_k'(x)`` of the linear piece of g_k containing x.

    Equals ``1 - 2*b_{k+1}(x)`` where b_j is the j-th binary digit of
    x mod 1: g_k rises on the left half of each D_k cell and falls on
    the right half.  Undefined exactly on D_{k+1} (the corners).  The
    digit is read off ``r_k`` by modular power, in ``O(log k)`` at any k.
    """
    if k < 1:
        raise ValueError("grid index starts at 1")
    r, q = _orbit(x)
    digit, rest = divmod((r * pow(2, k, q) % q) << 1, q)
    if rest == 0:
        raise ValueError(f"g_{k} has a corner at {x}")
    return 1 - 2 * digit


def _slope_digits(x, n: int) -> int:
    """The digits ``b_2 .. b_{n+1}`` of a non-dyadic x mod 1, read as one n-bit integer."""
    xf = _to_fraction(x)
    if is_dyadic(xf):
        raise ValueError(f"slopes are eventually undefined at dyadic {xf}")
    return _digits(*_orbit(xf), n)


def _digits(r: int, q: int, n: int) -> int:
    """:func:`_slope_digits` of ``x = r/q mod 1``, ``0 <= r < q``, from the integers."""
    return (r << (n + 1)) // q & ((1 << n) - 1)


def slope_seq(x, N: int) -> SlopeSeq:
    """Slope sums ``G_n'(x)`` for n = 1..N at a non-dyadic point.

    The running sum of ``1 - 2*b`` over the digits b of :func:`_slope_digits`.
    """
    if N < 1:
        raise ValueError("horizon must be positive")
    digits = format(_slope_digits(x, N), f"0{N}b")
    values = tuple(accumulate(map({"0": 1, "1": -1}.__getitem__, digits)))
    return SlopeSeq(point=_to_fraction(x), values=values, horizon=N)


def slope_sum(x, n: int) -> int:
    """``G_n'(x)`` as a single integer; n = 0 gives the empty sum 0.

    It is n minus twice the number of ones among the digits of
    :func:`_slope_digits`; a dyadic x raises the ``ValueError`` of :func:`slope_seq`.
    """
    if n < 0:
        raise ValueError("slope-sum order must be non-negative")
    if n == 0:
        return 0
    return n - 2 * _slope_digits(x, n).bit_count()
