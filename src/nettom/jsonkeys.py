"""One reader for the JSON objects nettom takes in: configs, manifests,
episode-file headers, prediction lines and network files.

Each object is described by a table of ``Key``s, and every table is closed:
a key the table does not name is refused, and so is an absent key that has
no default. JSON integers are told apart from other numbers (``1.0`` is not
an integer; an integer passes where a number is asked for), and ``true`` and
``false`` pass as neither. An error is a ``ValueError`` that names the key
path, such as ``samples[0].past[1].steps``; each caller wraps it its own way.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

#: Marks a key that has no default.
REQUIRED = object()


class Key(NamedTuple):
    """One key of a table: its JSON type (a type, a tuple of types, or a
    table for a nested object), its default, the type or table of each item
    of a list or of each value of an object keyed by id (``kind`` ``dict``),
    inclusive integer bounds, and a converter ``convert(value, at)`` that
    checks the value further and returns what the reader returns."""

    kind: type | tuple | dict
    default: object = REQUIRED
    item: type | dict | None = None
    bounds: tuple[int, int] | None = None
    convert: Callable | None = None


_NAMES = {dict: "an object", type(None): "null"}


def _name(kind: type) -> str:
    return _NAMES.get(kind, kind.__name__)


def read_keys(obj, table: dict[str, Key], where: str = "") -> dict:
    """The checked value of every key of ``table`` read from ``obj``, the
    object at path ``where``: the default for an absent key, a tuple for a
    list."""
    if type(obj) is not dict:
        got = _name(type(obj))
        raise ValueError(f"{where}: expected an object, got {got}" if where
                         else f"not a JSON object, got {got}")
    check_known(obj, table, where)
    out = {}
    for name, key in table.items():
        at = f"{where}.{name}" if where else name
        if name not in obj:
            if key.default is REQUIRED:
                raise ValueError(f"{at}: required field is missing")
            out[name] = key.default
            continue
        value = read_value(obj[name], key.kind, at)
        item = key.item
        if item is not None and type(value) is list:
            value = tuple(read_value(x, item, f"{at}[{i}]") for i, x in enumerate(value))
        elif item is not None and key.kind is dict:
            value = {k: read_value(x, item, f"{at}[{k}]") for k, x in value.items()}
        if key.bounds is not None and not key.bounds[0] <= value <= key.bounds[1]:
            lo, hi = key.bounds
            rule = f"{lo}" if lo == hi else f">= {lo} and at most {hi}"
            raise ValueError(f"{at}: must be {rule}, got {value}")
        out[name] = key.convert(value, at) if key.convert else value
    return out


def check_known(obj: dict, known, where: str = "") -> None:
    """Refuse a key of the object ``obj`` at ``where`` that ``known`` does
    not name."""
    unknown = [f"{where}.{name}" if where else name for name in obj if name not in known]
    if unknown:
        raise ValueError(f"unknown key {', '.join(unknown)} (known: {', '.join(known)})")


def read_value(value, kind, at: str):
    """``value``, the value at path ``at``, checked against ``kind`` (a type,
    a tuple of types, or a table); an integer passes as a float."""
    if type(value) is kind:
        return value
    if type(kind) is dict:
        return read_keys(value, kind, at)
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass  # refused below
    if isinstance(value, bool) or not isinstance(value, kind):
        kinds = kind if type(kind) is tuple else (kind,)
        raise ValueError(f"{at}: expected {' or '.join(map(_name, kinds))}, "
                         f"got {_name(type(value))}")
    return value


_NUMBER_TYPES = frozenset({int, float})


def number_vector(value, at: str) -> tuple[float, ...]:
    """A JSON list of numbers (not booleans) as a tuple of floats."""
    try:
        if type(value) is list and _NUMBER_TYPES.issuperset(map(type, value)):
            return tuple(map(float, value))
    except OverflowError:
        pass  # an integer past the float range
    raise ValueError(f"{at} must be a list of numbers")


def number_map(value: dict, at: str) -> dict[str, tuple[float, ...]]:
    """A JSON object keyed by id whose values ``number_vector`` reads."""
    return {k: number_vector(v, f"{at}[{k}]") for k, v in value.items()}
