"""Shared exception types, the exact-input coercers, and `scaled`, which
turns pairs of Fractions into int pairs at one common scale."""

from __future__ import annotations

import math
from fractions import Fraction


class InputError(ValueError):
    """Raised when input data violates a documented precondition.

    The message always says which object and which rule failed; parsers
    additionally name the offending line of the input file.
    """


def rational(value, role: str) -> Fraction:
    """Coerce an exact input value to `Fraction`.

    Accepts a Fraction (returned as is), an int, or a string such as '3/2'
    or '0.25'.  Floats, bools, other types, unparsable strings and zero
    denominators raise InputError naming the value's role ("coordinate",
    "distance", ...); convert a float explicitly if its binary value is
    really meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational {role} {value!r}") from None
    raise InputError(
        f"{type(value).__name__} {role} {value!r}; use an int or a "
        "rational string"
    )


def integer(value, role: str) -> int:
    """Return an int input value (a vertex or zone id, a slot index) as is.

    Bools, floats and every other type raise InputError naming the value's
    role; nothing is truncated.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{type(value).__name__} {role} {value!r}; use an int")


def scaled(pairs, base: int = 1) -> tuple[int, list[tuple[int, int]]]:
    """(D, the pairs times D as int pairs), where D is the lcm of base and
    every denominator in the pairs.  A positive scale keeps the sign of
    every cross product and sum, and the order of every coordinate."""
    scale = math.lcm(base, *(c.denominator for p in pairs for c in p))
    return scale, [
        (x.numerator * (scale // x.denominator),
         y.numerator * (scale // y.denominator))
        for x, y in pairs
    ]
