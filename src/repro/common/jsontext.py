"""The indented JSON documents every capture and report is written as.

``json.dumps(obj, indent=2, sort_keys=True)`` runs the pure-Python
encoder: an indent turns the C encoder off. :func:`indented_json` gives
the same bytes with the C encoder doing most of the work. A dict or list
that holds only scalars (the rows, records and metric samples that make
up the bulk of a document) is rendered in one C-encoder call whose item
separator carries the newline and the indentation of its depth; only the
containers above them are walked in Python.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


def indented_json(obj: object) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte."""
    return _render(obj, 0)


def _render(obj: object, depth: int) -> str:
    if isinstance(obj, dict):
        if any(isinstance(v, _CONTAINERS) for v in obj.values()):
            items = [f"{_key(k)}: {_render(v, depth + 1)}" for k, v in sorted(obj.items())]
            return _wrap("{", ("," + _newline(depth + 1)).join(items), "}", depth)
    elif isinstance(obj, (list, tuple)):
        if any(isinstance(v, _CONTAINERS) for v in obj):
            items = [_render(v, depth + 1) for v in obj]
            return _wrap("[", ("," + _newline(depth + 1)).join(items), "]", depth)
    else:
        return _scalar(obj)
    return _flat(obj, depth)


def _newline(depth: int) -> str:
    return "\n" + _INDENT * depth


def _wrap(open_: str, body: str, close: str, depth: int) -> str:
    return open_ + _newline(depth + 1) + body + _newline(depth) + close


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    return json.JSONEncoder(sort_keys=True, separators=("," + _newline(depth + 1), ": "))


def _flat(obj: dict | list | tuple, depth: int) -> str:
    """An empty container, or one of scalars, in one C-encoder call."""
    text = _flat_encoder(depth).encode(obj)
    return _wrap(text[0], text[1:-1], text[-1], depth) if obj else text


def _scalar(value: object) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == -float("inf"):
        return "-Infinity"
    return float.__repr__(value)


def _key(key: object) -> str:
    """A dict key as the encoder writes it: always a JSON string."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        text = _float(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    return encode_basestring_ascii(text)
