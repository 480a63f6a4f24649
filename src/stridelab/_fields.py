"""The one type check and JSON codec of the config dataclasses.  A field's
JSON name is its attribute name unless its metadata gives one under "json"."""

import dataclasses
import functools
import numbers
import sys
import typing

import numpy as np

from .errors import ValidationError

_KIND = {str: "a string", dict: "an object", tuple: "a list"}
_FLOAT_MAX = sys.float_info.max


@functools.cache
def _specs(cls) -> tuple:
    """(field, JSON name, type, optional) per field; `X | None` gives X."""
    hints = typing.get_type_hints(cls)
    specs = []
    for f in dataclasses.fields(cls):
        t, args = hints[f.name], typing.get_args(hints[f.name])
        if type(None) in args:
            (t,) = [a for a in args if a is not type(None)]
        specs.append((f, f.metadata.get("json", f.name), t, type(None) in args))
    return tuple(specs)


def number(name: str, v) -> float:
    """v as a finite float (ints widen); anything else is rejected."""
    # abs(v) <= max also turns away NaN, inf and ints beyond the float range
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX:
        return float(v)
    raise ValidationError(f"{name}: expected a finite number (got {v!r})")


def _integer(name: str, v) -> int:
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    raise ValidationError(f"{name}: expected an integer (got {v!r})")


def check_fields(obj) -> None:
    """Type-check every field of config obj in place, first thing in its
    __post_init__: float takes finite numbers (ints widen), int integral
    numbers, tuple lists too, other types instances; arrays are skipped."""
    owner = type(obj).__name__
    for f, name, t, optional in _specs(type(obj)):
        v = getattr(obj, f.name)
        if (v is None and optional) or t is np.ndarray:
            continue
        if t is float or t is int:
            convert = number if t is float else _integer
            object.__setattr__(obj, f.name, convert(f"{owner}.{name}", v))
        elif t is tuple and isinstance(v, list):
            object.__setattr__(obj, f.name, tuple(v))
        elif not isinstance(v, t):
            kind = _KIND.get(t, t.__name__)
            raise ValidationError(f"{owner}.{name}: expected {kind} (got {v!r})")


def check_keys(doc, owner: str, names, required) -> None:
    """Reject a doc that is not a JSON object, has a key outside `names` or
    lacks one of `required`."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{owner}: expected an object (got {doc!r})")
    unknown = [k for k in doc if k not in names]
    if unknown:
        raise ValidationError(f"{owner}: unknown field(s) {unknown}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValidationError(f"{owner}: missing field(s) {missing}")


def from_doc(cls, doc, owner: str):
    """Build config class cls from the parsed JSON object doc, recursing into
    nested configs; `owner` names doc in error messages."""
    specs = {name: (f, t) for f, name, t, _ in _specs(cls)}
    required = [n for n, (f, _) in specs.items()
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    check_keys(doc, owner, specs, required)
    kwargs = {}
    for name, v in doc.items():
        f, t = specs[name]
        kwargs[f.name] = from_doc(t, v, f"{owner}.{name}") if dataclasses.is_dataclass(t) else v
    return cls(**kwargs)


def to_doc(obj) -> dict:
    """The JSON object of config obj: None fields left out, arrays and
    tuples as lists, nested configs as objects."""
    doc = {}
    for f, name, _, _ in _specs(type(obj)):
        v = getattr(obj, f.name)
        if dataclasses.is_dataclass(v):
            v = to_doc(v)
        elif isinstance(v, (np.ndarray, tuple)):
            v = list(v)
        if v is not None:
            doc[name] = v
    return doc


class Config:
    """JSON in and out for a config dataclass, through the codec above."""

    def to_json_dict(self) -> dict:
        return to_doc(self)

    @classmethod
    def from_json(cls, doc: dict):
        return from_doc(cls, doc, cls.__name__)
