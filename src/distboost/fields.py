"""Typed reads from JSON documents: run configs, generator specs and model files.

`read_text` reads every input file, JSON or CSV, as UTF-8.  Every count, in
a document or in a Python call, reads through `count`.

Every failure raises the error class the caller names (ValidationError, or
ModelFormatError for model files) with the path of the offending field, so
a malformed document exits the CLI with code 2 and a message.
"""

from __future__ import annotations

import json
import numbers
import sys

_MISSING = object()


def _is_number(v):
    return isinstance(v, (float, numbers.Integral)) and not isinstance(v, bool)


_MAX = sys.float_info.max
# above 2^53 a float no longer holds every integer, and no count is that large
_MAX_INT = 2 ** 53

# kind -> (description, test, conversion); integers may be written as 3.0.
# The tests settle the exact types that json.loads returns first.
_KINDS = {
    "number": ("a finite number",
               lambda v: type(v) is float and -_MAX <= v <= _MAX
               or _is_number(v) and -_MAX <= v <= _MAX, float),
    "integer": ("an integer of magnitude at most 2^53",
                lambda v: (type(v) is int
                           or _is_number(v) and (isinstance(v, int) or v.is_integer()))
                and -_MAX_INT <= v <= _MAX_INT, int),
    "string": ("a string", lambda v: isinstance(v, str), None),
    "array": ("an array", lambda v: isinstance(v, list), None),
    "object": ("an object", lambda v: isinstance(v, dict), None),
}


def typed(value, kind, where, error):
    """value as kind: 'number', 'integer', 'string', 'array' or 'object'."""
    what, test, convert = _KINDS[kind]
    if not test(value):
        raise error(f"{where}: expected {what}, got {value!r:.40}")
    return value if convert is None else convert(value)


def count(value, where, error, least=0):
    """value as an 'integer' of at least `least`; numpy integers are counts too."""
    if typed(value, "integer", where, error) < least:
        raise error(f"{where} must be >= {least}, got {value}")
    return int(value)


def typed_items(values, kind, where, error):
    """values as an array with each element read as kind."""
    values = typed(values, "array", where, error)
    _, test, convert = _KINDS[kind]
    if not all(map(test, values)):
        i = next(i for i, v in enumerate(values) if not test(v))
        typed(values[i], kind, f"{where}[{i}]", error)
    return list(values if convert is None else map(convert, values))


def parse_json(text, what, error):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what}: not valid JSON: {exc}") from None


def read_text(path, error):
    """A UTF-8 file's text as open() reads it, without a leading byte-order
    mark; error names the file and the offset of a byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: byte 0x{data[exc.start]:02x} "
                    f"at offset {exc.start}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def read_json(path, what, error):
    return parse_json(read_text(path, error), f"{what} {path}", error)


class Fields:
    """One JSON object; keys outside `allowed` or missing from `required` are errors."""

    def __init__(self, obj, where, error, allowed, required=frozenset()):
        self.obj = typed(obj, "object", where, error)
        self.where = where
        self.error = error
        keys = self.obj.keys()
        if not allowed >= keys >= required:
            for problem, bad in (("unknown", keys - allowed), ("missing", required - keys)):
                if bad:
                    raise error(f"{where}: {problem} key(s): {', '.join(sorted(bad))}")

    def get(self, key, kind, default=_MISSING):
        """The value at key as kind; without a default the key is required.

        null reads as the default where the default is None.
        """
        value = self.obj.get(key)
        if value is None and (key not in self.obj or default is None):
            if default is _MISSING:
                raise self.error(f"{self.where}: missing key '{key}'")
            return default
        return typed(value, kind, f"{self.where}.{key}", self.error)

    def items(self, key, kind, default=_MISSING):
        """The array at key with each element read as kind; defaults as in `get`."""
        values = self.get(key, "array", default)
        return values if values is default else typed_items(
            values, kind, f"{self.where}.{key}", self.error)
