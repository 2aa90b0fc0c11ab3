"""Shared exception types and the exact-input coercers."""

from __future__ import annotations

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
