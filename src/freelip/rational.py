"""Rational number helpers: coercion, JSON round-tripping, formatting.

All structural computations in this package are exact: their inner loops
run on integers over one common denominator (a metric space's distance
rows, masses, edge lengths), and ``fractions.Fraction`` carries the
values they return.  JSON files store rationals as plain ints when
integral and as ``"p/q"`` strings otherwise, so reports stay exact and
byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)


def to_fraction(x) -> Fraction:
    """Coerce an int, Fraction, "p/q" string, or float to Fraction.

    Floats convert exactly (binary value), which keeps float inputs usable
    in exact mode without hidden rounding.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def num_to_json(x: Fraction):
    """Fraction -> JSON scalar (int when integral, 'p/q' string otherwise)."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def num_from_json(x) -> Fraction:
    """A rational read from JSON input; ValidationError for a string that
    is not "p" or "p/q" in integers, or whose denominator is 0."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{x!r} is not a rational number") from None
    return to_fraction(x)


def json_key(obj, key: str):
    """obj[key] for an object read from a JSON file; ValidationError naming
    the key when obj is not a JSON object or lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"JSON input has no {key!r} key")
    return obj[key]


def fmt(x: Fraction) -> str:
    """Short human-readable form, e.g. '5/3' or '2'."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
