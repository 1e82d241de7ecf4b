"""Exact arithmetic on binary grids.

Everything downstream rests on one rational type,
:class:`fractions.Fraction`: arbitrary-precision rationals in lowest
terms.  ``Dyadic`` is the ``Fraction`` subclass of values
``num / 2**exp``, with ``num`` odd unless ``exp`` is zero, built from
``(num, exp)``; the level-n grid ``D_n = {k / 2**n : k in Z}`` and the
union ``D`` of all levels are the natural habitat of grid neighbours,
radii and blow-up centres.  A ``Dyadic`` is a ``Fraction`` everywhere a
``Fraction`` is accepted; ring arithmetic keeps dyadic results
``Dyadic``, and division gives a plain ``Fraction``.  Kernels convert to
plain ``Fraction`` (or to integers) at their entry.

Rational text I/O is exact: ``"p/q"`` or ``"p"`` only.  Decimal and
scientific notation are rejected rather than silently rounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

__all__ = [
    "Dyadic",
    "parse_rat",
    "format_rat",
    "is_dyadic",
    "as_dyadic",
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
    """Render a rational (or Dyadic, or int) as ``"p/q"``, or ``"p"`` if integral.

    A numerator or denominator longer than the interpreter's limit on
    integer-to-text conversion (4300 digits by default, which also guards
    the parsing of input) raises ``ValueError`` with a message that says so.
    """
    try:
        return str(Fraction(value))
    except ValueError:
        raise ValueError(f"exact value has more than {sys.get_int_max_str_digits()} "
                         "decimal digits, too many to print") from None


def _to_fraction(x) -> Fraction:
    """Coerce Dyadic/Fraction/int to a plain Fraction; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return x if type(x) is Fraction else Fraction(x.numerator, x.denominator)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _closed(op):
    """``Fraction`` operator ``op`` for exact operands, dyadic results as ``Dyadic``.

    Any other operand (a float, say) gets ``NotImplemented``, so Python
    raises ``TypeError`` instead of rounding.
    """
    def wrapped(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        result = op(self, other)
        return Dyadic.from_fraction(result) if is_dyadic(result) else result

    return wrapped


class Dyadic(Fraction):
    """Dyadic rational ``num / 2**exp``, a ``Fraction`` with a power-of-two denominator.

    ``Dyadic(num, exp)`` takes integers with ``exp >= 0``; the value is
    kept in lowest terms, so ``num`` is odd unless ``exp == 0``.
    Ordering, hashing, ``bool``, ``float`` and ``str`` are those of
    ``Fraction``, and so is division, which returns a ``Fraction``.  Sums,
    differences and products with ``int``, ``Fraction`` or ``Dyadic``
    operands are ``Dyadic`` whenever the result is dyadic; float operands
    raise ``TypeError``.
    """

    __slots__ = ()

    def __new__(cls, num: int, exp: int = 0):
        if not isinstance(num, int) or not isinstance(exp, int):
            raise TypeError("Dyadic components must be integers")
        if exp < 0:
            raise ValueError("Dyadic exponent must be non-negative")
        return Fraction.__new__(cls, num, 1 << exp)

    # Fraction builds pickles, copies and from_float/from_decimal values as
    # cls(numerator, denominator), which would read the denominator as an
    # exponent here (and float comparisons go through from_float).
    def __reduce__(self):
        return type(self), (self.numerator, self.exp)

    def __copy__(self, memo=None):
        return self  # immutable, so the value is its own copy

    __deepcopy__ = __copy__

    num = Fraction.numerator  # odd unless exp == 0

    @property
    def exp(self) -> int:
        return self.denominator.bit_length() - 1

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """The value ``2**k`` for any integer ``k``."""
        return cls(1 << k) if k >= 0 else cls(1, -k)

    @classmethod
    def from_float(cls, f: float) -> "Dyadic":
        return cls.from_fraction(Fraction.from_float(f))

    @classmethod
    def from_decimal(cls, dec) -> "Dyadic":
        return cls.from_fraction(Fraction.from_decimal(dec))

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        if not is_dyadic(f):
            raise ValueError(f"{f} is not a dyadic rational")
        return cls(f.numerator, f.denominator.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        """The same value as a plain ``Fraction``."""
        return Fraction(self.numerator, self.denominator)

    __add__, __radd__ = _closed(Fraction.__add__), _closed(Fraction.__radd__)
    __sub__, __rsub__ = _closed(Fraction.__sub__), _closed(Fraction.__rsub__)
    __mul__, __rmul__ = _closed(Fraction.__mul__), _closed(Fraction.__rmul__)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.numerator, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.numerator), self.exp)

    def __repr__(self) -> str:
        return f"Dyadic({self.numerator}, {self.exp})"


def is_dyadic(x) -> bool:
    """True iff ``x`` is a dyadic rational (denominator a power of two)."""
    den = _to_fraction(x).denominator
    return not den & (den - 1)


def as_dyadic(x) -> Dyadic:
    """Convert a dyadic-valued Fraction/int to Dyadic; raise otherwise."""
    if isinstance(x, Dyadic):
        return x
    return Dyadic.from_fraction(_to_fraction(x))


def frac_part(x) -> Fraction:
    """``x`` reduced modulo 1 into ``[0, 1)``."""
    f = _to_fraction(x)
    return f - (f.numerator // f.denominator)


def dyadic_neighbors(x, n: int) -> tuple[Dyadic, Dyadic]:
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
    return Dyadic(j, n), Dyadic(j + 1, n)


def dyadic_level(x) -> int:
    """Smallest m with ``x`` in D_m, minus one.  Integers give -1."""
    return as_dyadic(x).exp - 1
