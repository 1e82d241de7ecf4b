"""Exact arithmetic on binary grids.

Everything rests on one rational type, :class:`fractions.Fraction`:
arbitrary-precision rationals in lowest terms.  Being dyadic (a
denominator that is a power of two) is a property of a ``Fraction``,
checked by :func:`is_dyadic` where a caller needs it.  The level-n grid
``D_n = {k / 2**n : k in Z}`` and the union ``D`` of all levels are the
natural habitat of grid neighbours, radii and blow-up centres; a point
of ``D_n`` is ``Fraction(k, 1 << n)``.  Floats are refused with
``TypeError`` wherever a rational is expected.

Rational text I/O is exact: ``"p/q"`` or ``"p"`` only.  Decimal and
scientific notation are rejected rather than silently rounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

__all__ = [
    "parse_rat",
    "format_rat",
    "format_ratio",
    "format_dyadic",
    "check_printable",
    "is_dyadic",
    "frac_part",
    "dyadic_neighbors",
    "dyadic_level",
]

_RAT_PATTERN = re.compile(r"\A[+-]?[0-9]+(?:\s*/\s*[0-9]+)?\Z")


def parse_rat(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact rational.

    Anything else (decimals, exponents, empty strings) raises
    ``ValueError`` so that no precision is lost at the boundary.
    """
    s = text.strip()
    if not _RAT_PATTERN.match(s):
        raise ValueError(f"not an exact rational (want 'p' or 'p/q'): {text!r}")
    if "/" in s:
        p_text, q_text = s.split("/")
        q = int(q_text)
        if q == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(p_text), q)
    return Fraction(int(s))


def format_rat(value) -> str:
    """Render a rational (or int) as ``"p/q"``, or ``"p"`` if integral.

    A numerator or denominator longer than the interpreter's limit on
    integer-to-text conversion (4300 digits by default, which also guards
    the parsing of input) raises ``ValueError`` with a message that says so.
    Anything but an int or a ``Fraction`` (a float, a str) raises ``TypeError``.
    """
    f = _to_fraction(value)
    return _join(f.numerator, f.denominator)


def format_ratio(num: int, den: int) -> str:
    """:func:`format_rat` of ``num / den`` (``den > 0``), reduced by one ``gcd``."""
    common = gcd(num, den)
    return _join(num // common, den // common)


def format_dyadic(num: int, m: int) -> str:
    """:func:`format_rat` of ``num / 2**m`` (``m >= 0``), reduced by the trailing zeros of ``num``."""
    zeros = (num & -num).bit_length() - 1  # -1 for num = 0, which prints as an integer
    try:
        if 0 <= zeros < m:
            return f"{num >> zeros}/{1 << (m - zeros)}"
        return str(num >> m)
    except ValueError:
        raise _too_many_digits() from None


def _join(num: int, den: int) -> str:
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise _too_many_digits() from None


def _too_many_digits() -> ValueError:
    return ValueError(f"exact value has more than {sys.get_int_max_str_digits()} "
                      "decimal digits, too many to print")


def check_printable(exp: int) -> None:
    """Raise :func:`format_rat`'s ``too many to print`` error before any work
    when no multiple of ``2**exp`` can print (a limit of 0 means none).

    ``exp >= limit * 3.321928095 > limit * log2(10)`` gives ``2**exp > 10**limit``.
    """
    limit = sys.get_int_max_str_digits()
    if limit and exp * 10**9 >= limit * 3_321_928_095:
        raise _too_many_digits()


def _to_fraction(x) -> Fraction:
    """Coerce an int or Fraction to a plain Fraction; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return x if type(x) is Fraction else Fraction(x.numerator, x.denominator)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def is_dyadic(x) -> bool:
    """True iff ``x`` is a dyadic rational (denominator a power of two)."""
    den = _to_fraction(x).denominator
    return not den & (den - 1)


def frac_part(x) -> Fraction:
    """``x`` reduced modulo 1 into ``[0, 1)``."""
    f = _to_fraction(x)
    return f - (f.numerator // f.denominator)


def dyadic_neighbors(x, n: int) -> tuple[Fraction, Fraction]:
    """The level-n grid neighbours ``(x_n, y_n)`` around ``x``.

    ``x_n = floor(2**n x) / 2**n`` and ``y_n = x_n + 2**-n``, so that
    ``x_n < x < y_n`` and the open interval contains no point of D_n.
    Raises ``ValueError`` when ``x`` lies on D_n (no punctured interval
    exists there).
    """
    if n < 0:
        raise ValueError("grid level must be non-negative")
    f = _to_fraction(x)
    scaled = f * (1 << n)
    if scaled.denominator == 1:
        raise ValueError(f"{f} lies on the level-{n} grid")
    j = scaled.numerator // scaled.denominator
    return Fraction(j, 1 << n), Fraction(j + 1, 1 << n)


def dyadic_level(x) -> int:
    """Smallest m with ``x`` in D_m, minus one.  Integers give -1.

    Raises ``ValueError`` when ``x`` is not dyadic.
    """
    f = _to_fraction(x)
    if not is_dyadic(f):
        raise ValueError(f"{f} is not a dyadic rational")
    return f.denominator.bit_length() - 2
