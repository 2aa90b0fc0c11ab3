"""Shared exception types, the exact-input coercers, the one reader of
JSON input files, and the one scaler of Fractions to ints at one common
scale: `_scaled_values` for single values and `scaled` for pairs."""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

# An ASCII integer or ratio with a nonzero denominator: Fraction(str) reads
# these as the int quotient, so `rational` builds that directly.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_PLAIN_INTS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")


class InputError(ValueError):
    """Raised when input data violates a documented precondition.

    The message always says which object and which rule failed; parsers
    additionally name the offending line of the input file.
    """


def rational(value, role: str) -> Fraction:
    """Coerce an exact input value to `Fraction`.

    Accepts a Fraction (returned as is), an int, or an ASCII string such as
    '3/2' or '0.25'.  Floats, bools, other types, unparsable strings, strings
    with a non-ASCII character or an underscore, zero denominators, and
    values with more digits than int may print (say '1e-20000') raise
    InputError naming the value's role ("coordinate", "distance", ...);
    convert a float explicitly if its binary value is really meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        plain = _PLAIN_RATIONAL.fullmatch(value)
        if plain is not None:
            num, den = plain.groups()
            try:
                if den is None:
                    return Fraction(int(num))
                return Fraction(int(num), int(den))
            except ValueError:  # past int's digit limit: Fraction says so below
                pass
        try:
            if value.isascii() and "_" not in value:
                q = Fraction(value)
                # An exponent can make more digits than int may print.
                if _printable(max(abs(q.numerator), q.denominator)):
                    return q
        except (ValueError, ZeroDivisionError):
            pass
        raise InputError(f"bad rational {role} {value!r}")
    raise InputError(
        f"{type(value).__name__} {role} {value!r}; use an int or a "
        "rational string"
    )


def _digit_limit() -> int:
    """The most digits str() and int() convert for an int; 0: no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _printable(n: int) -> bool:
    """Whether str(n), n >= 0, is within int's string-digit limit.  10**d
    has more than 3d bits, so only a longer n is compared with it."""
    limit = _digit_limit()
    return not limit or n.bit_length() <= 3 * limit or n < 10**limit


def integer(value, role: str) -> int:
    """Return an int input value (a vertex or zone id, a slot index) as is.

    Bools, floats and every other type raise InputError naming the value's
    role; nothing is truncated.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{type(value).__name__} {role} {value!r}; use an int")


def _ascii_ints(*tokens: str) -> tuple[int, ...]:
    """The ints of ASCII `-?[0-9]+` tokens, else ValueError; int() alone
    also reads other Unicode digits, a leading '+' and underscores."""
    if _PLAIN_INTS.fullmatch(" ".join(tokens)) is None:
        raise ValueError(f"not ASCII integers: {tokens!r}")
    return tuple(map(int, tokens))


def _json_object(text: str, not_object: str) -> dict:
    """The JSON object that text holds.  Every failure of json.loads raises
    InputError: a syntax error names its line, and an integer past int's
    digit limit or nesting past the recursion limit says so.  A document
    that is not an object raises InputError(not_object)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise InputError("invalid JSON (nested too deeply)") from exc
    except ValueError as exc:  # int() of a literal past the digit limit
        raise InputError(
            f"invalid JSON (an integer has more than {_digit_limit()} digits)"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(not_object)
    return doc


def _scaled_values(values, base: int = 1) -> tuple[int, list[int]]:
    """(D, the values times D as ints), where D is the lcm of base and every
    denominator in the values.  A positive scale keeps the sign of every
    sum and the order of every value."""
    scale = math.lcm(base, *(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def scaled(pairs, base: int = 1) -> tuple[int, list[tuple[int, int]]]:
    """`_scaled_values` on pairs: (D, the pairs times D as int pairs).  A
    positive scale also keeps the sign of every cross product."""
    scale, flat = _scaled_values([c for p in pairs for c in p], base)
    return scale, list(zip(flat[0::2], flat[1::2]))
