"""Exact arithmetic on binary grids.

Everything downstream rests on two value types.  ``Rat`` is an alias for
:class:`fractions.Fraction`: arbitrary-precision rationals in lowest
terms.  ``Dyadic`` is the canonical form ``num / 2**exp`` with ``num``
odd unless ``exp`` is zero; the level-n grid ``D_n = {k / 2**n : k in Z}``
and the union ``D`` of all levels are the natural habitat of grid
neighbours, radii and the cells of the measure kernel.  Dyadic values embed
losslessly into ``Rat`` and mix freely with ``Fraction`` arithmetic.

Rational text I/O is exact: ``"p/q"`` or ``"p"`` only.  Decimal and
scientific notation are rejected rather than silently rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "Rat",
    "Dyadic",
    "parse_rat",
    "format_rat",
    "is_dyadic",
    "as_dyadic",
    "frac_part",
    "bit_at",
    "dyadic_neighbors",
    "dyadic_level",
]

Rat = Fraction

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
    """Render a rational (or Dyadic, or int) as ``"p/q"``, or ``"p"`` if integral."""
    f = value.as_fraction() if isinstance(value, Dyadic) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _to_fraction(x) -> Fraction:
    """Coerce Dyadic/Fraction/int to Fraction; floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Dyadic):
        return x.as_fraction()
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


class Dyadic:
    """Canonical dyadic rational ``num / 2**exp``.

    The constructor canonicalizes: trailing factors of two are moved
    from ``num`` into ``exp`` so that ``num`` is odd or ``exp == 0``.
    Instances are immutable, hashable (consistently with ``Fraction``),
    totally ordered, and support exact ring arithmetic with ``Dyadic``,
    ``int`` and ``Fraction`` operands.  Division is deliberately absent
    (dyadics are not closed under it); use :meth:`as_fraction`.
    """

    __slots__ = ("_num", "_exp")

    def __init__(self, num: int, exp: int = 0):
        if not isinstance(num, int) or not isinstance(exp, int):
            raise TypeError("Dyadic components must be integers")
        if exp < 0:
            raise ValueError("Dyadic exponent must be non-negative")
        if num == 0:
            exp = 0
        else:
            # strip common factors of two, but never push exp below 0
            trailing = (num & -num).bit_length() - 1
            shift = min(trailing, exp)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @property
    def num(self) -> int:
        return self._num

    @property
    def exp(self) -> int:
        return self._exp

    @property
    def numerator(self) -> int:
        return self._num

    @property
    def denominator(self) -> int:
        return 1 << self._exp

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """The value ``2**k`` for any integer ``k``."""
        if k >= 0:
            return cls(1 << k, 0)
        return cls(1, -k)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        den = f.denominator
        if den & (den - 1):
            raise ValueError(f"{f} is not a dyadic rational")
        return cls(f.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self._num, 1 << self._exp)

    def is_integer(self) -> bool:
        return self._exp == 0

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by ``2**k``."""
        if k >= 0:
            return Dyadic(self._num << k, self._exp)
        return Dyadic(self._num, self._exp - k)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dyadic):
            e = max(self._exp, other._exp)
            return Dyadic(
                (self._num << (e - self._exp)) + (other._num << (e - other._exp)), e
            )
        if isinstance(other, int):
            return Dyadic(self._num + (other << self._exp), self._exp)
        if isinstance(other, Fraction):
            return self.as_fraction() + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Dyadic, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (Dyadic, int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self._num, self._exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self._num), self._exp)

    def __mul__(self, other):
        if isinstance(other, Dyadic):
            return Dyadic(self._num * other._num, self._exp + other._exp)
        if isinstance(other, int):
            return Dyadic(self._num * other, self._exp)
        if isinstance(other, Fraction):
            return self.as_fraction() * other
        return NotImplemented

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------

    def _cmp_key(self, other):
        if isinstance(other, Dyadic):
            return self._num << other._exp, other._num << self._exp
        if isinstance(other, int):
            return self._num, other << self._exp
        if isinstance(other, Fraction):
            return (
                self._num * other.denominator,
                other.numerator << self._exp,
            )
        return None

    def __eq__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] == key[1]

    def __lt__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] < key[1]

    def __le__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] <= key[1]

    def __gt__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] > key[1]

    def __ge__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] >= key[1]

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self) -> bool:
        return self._num != 0

    def __float__(self) -> float:
        return self._num / (1 << self._exp)

    def __repr__(self) -> str:
        return f"Dyadic({self._num}, {self._exp})"

    def __str__(self) -> str:
        return format_rat(self)


def is_dyadic(x) -> bool:
    """True iff ``x`` is a dyadic rational (denominator a power of two)."""
    if isinstance(x, (Dyadic, int)):
        return True
    f = _to_fraction(x)
    return not (f.denominator & (f.denominator - 1))


def as_dyadic(x) -> Dyadic:
    """Convert a dyadic-valued Fraction/int to Dyadic; raise otherwise."""
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x, 0)
    return Dyadic.from_fraction(_to_fraction(x))


def frac_part(x) -> Fraction:
    """``x`` reduced modulo 1 into ``[0, 1)``."""
    f = _to_fraction(x)
    return f - (f.numerator // f.denominator)


def bit_at(x, k: int) -> int:
    """The k-th binary digit of ``x``, i.e. ``floor(2**k * x) mod 2``.

    Requires ``0 <= x < 1`` (reduce modulo 1 first; the grid-distance
    functions are 1-periodic) and ``k >= 1``.
    """
    if k < 1:
        raise ValueError("digit index starts at 1")
    f = _to_fraction(x)
    if not 0 <= f < 1:
        raise ValueError(f"binary digits are defined on [0, 1): got {f}")
    return ((f.numerator << k) // f.denominator) & 1


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


def dyadic_level(x: Dyadic) -> int:
    """Smallest m with ``x`` in D_m, minus one.  Integers give -1."""
    if not isinstance(x, Dyadic):
        x = as_dyadic(x)
    return x.exp - 1
