"""How a JSON input file becomes typed fields, for every loader.

Run configs, problem files and calibration files are read the same way;
only the error class differs (``ConfigError`` for configs, ``SchemaError``
for problem and calibration files).
"""

from __future__ import annotations

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


def number(kind: type, value, field: str, error: type[Exception]):
    """``value`` as ``kind`` (int or float), or ``error`` naming ``field``.

    Only finite JSON numbers pass: a boolean, a numeric string or a non-finite
    value is refused, and so is a fractional value for an int field (``2.0``
    is read as 2).
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    if ok:
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float field
            pass
    noun = "an integer" if kind is int else "a finite number"
    raise error(f"field '{field}' must be {noun}, got {value!r}")
