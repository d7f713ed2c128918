"""How outside input becomes typed fields, for every loader.

Run configs, problem files, calibration files, command-line flags and
``QDISCO_SEED`` are read the same way; only the error class differs
(``ConfigError`` for configs and the environment, ``SchemaError`` for problem
and calibration files, ``argparse.ArgumentTypeError`` for flags).
"""

from __future__ import annotations

import contextlib
import json
import math


def load_object(text: str, what: str, required: tuple[str, ...], error: type[Exception]) -> dict:
    """The JSON object in ``text`` holding every ``required`` field.

    ``what`` names the document in the error message.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} must hold a JSON object")
    for name in required:
        if name not in doc:
            raise error(f"{what} missing field '{name}'")
    return doc


def from_text(text: str, kind: type):
    """Flag or environment text as the number it spells, else the text (which ``number`` refuses).

    An int field's text is tried as an int first, so integers past 2**53 stay exact.
    """
    for parse in (int, float) if kind is int else (float,):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


def number(kind: type, value, field: str, error: type[Exception], low=-math.inf, high=math.inf):
    """``value`` as ``kind`` (int or float) in ``[low, high]``, or ``error`` naming ``field``.

    Only finite JSON numbers pass: a boolean, a numeric string or a non-finite
    value is refused, and so is a fractional value for an int field (``2.0``
    is read as 2).
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    if ok:
        try:
            x = kind(value)
            if low <= x <= high:
                return x
        except OverflowError:  # an integer too large for a float field
            pass
    noun = "an integer" if kind is int else "a finite number"
    if (low, high) != (-math.inf, math.inf):
        noun += f" in [{low}, {high}]"
    raise error(f"field '{field}' must be {noun}, got {value!r}")
