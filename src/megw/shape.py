"""Check a JSON document against a shape, with one error naming the field.

A shape is a type, a tuple of types, a one-item list (a list or tuple of
that shape) or a dict. No type matches a bool; `float` matches an int too,
but only a value that a float holds finitely. In a dict, a key ending in
"?" is optional, the key `str` gives the shape of every value of an object
with any keys, and keys the shape does not name are ignored.
"""

import numbers
import reprlib
import sys

_KINDS = {dict: ("a JSON object", dict), list: ("a list", (list, tuple)),
          str: ("a string", str), int: ("an integer", numbers.Integral),
          float: ("a finite number", numbers.Real)}


def _matches(value, kind) -> bool:
    return (isinstance(value, _KINDS[kind][1]) and not isinstance(value, bool)
            and (kind is not float or abs(value) <= sys.float_info.max))


def check(doc, shape, error, name: str) -> None:
    """Raise `error("<name>: <path> must be <type>, not <value>")` or
    `error("<name>: <path> lacks <keys>")` unless doc has this shape."""
    def walk(value, shape, path):
        where = f"{name}: {path or 'the document'}"
        kinds = type(shape) if isinstance(shape, (dict, list)) else shape
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        if not any(_matches(value, kind) for kind in kinds):
            expected = " or ".join(_KINDS[kind][0] for kind in kinds)
            raise error(f"{where} must be {expected}, not "
                        f"{reprlib.repr(value)}")
        if isinstance(shape, list):
            for i, item in enumerate(value):
                walk(item, shape[0], f"{path}[{i}]")
        elif isinstance(shape, dict):
            missing = [key for key in shape if key is not str
                       and not key.endswith("?") and key not in value]
            if missing:
                raise error(f"{where} lacks {', '.join(missing)}")
            for key, inner in shape.items():
                if key is str:
                    for k, v in value.items():
                        walk(v, inner, f"{path}[{k!r}]")
                elif key.rstrip("?") in value:
                    key = key.rstrip("?")
                    walk(value[key], inner, f"{path}.{key}" if path else key)

    walk(doc, shape, "")
