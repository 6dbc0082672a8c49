"""Small argument-validation helpers used across the package."""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Iterable, TypeGuard, TypeVar

from repro.common.errors import ValidationError

T = TypeVar("T")


def require_non_empty(items: Iterable[T], name: str) -> list[T]:
    """Materialize ``items`` and raise if the collection is empty."""
    out = list(items)
    if not out:
        raise ValidationError(f"{name} must not be empty")
    return out


def is_number(value: object) -> TypeGuard[float]:
    """Whether a parsed JSON value is a number ``float()`` accepts: not a
    bool, and not an integer past the float range (that would overflow)."""
    if isinstance(value, float):
        return True
    return (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def is_finite(value: object) -> bool:
    """Whether ``value`` is a number (:func:`is_number`) and finite."""
    return is_number(value) and math.isfinite(value)


def require_object(payload: object, name: str) -> dict:
    """``payload``; raise unless it is a JSON object."""
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{name} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def require_numbers(payload: object, keys: Iterable[str], name: str) -> None:
    """Raise :class:`ValidationError` unless ``payload`` is an object whose
    ``keys`` all hold finite numbers."""
    obj = require_object(payload, name)
    for key in keys:
        value = obj.get(key)
        if not is_finite(value):
            raise ValidationError(
                f"{name} field {key!r} must be a finite number, got {value!r:.40}"
            )


def number_field(
    payload: object, key: str, name: str, default: float | None = None
) -> float:
    """``payload[key]`` as a float, or ``default`` when the key is absent
    (required when ``default`` is None); raise unless ``payload`` is an
    object and the value a finite number."""
    obj = require_object(payload, name)
    value = require_field(obj, key, name) if default is None else obj.get(key, default)
    if is_number(value) and math.isfinite(value):
        return float(value)
    raise ValidationError(
        f"{name} field {key!r} must be a finite number, got {value!r:.40}"
    )


def require_list(value: object, name: str) -> list:
    """``value``; raise unless it is a JSON array."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def require_parent_dir(path: str | Path, what: str) -> None:
    """Raise unless the directory ``path`` would be written into exists:
    an output path is checked before the work that writes it."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ValidationError(
            f"cannot write {what} to {path}: directory {parent} does not exist"
        )


def require_field(payload: object, key: str, name: str) -> object:
    """``payload[key]``; raise unless ``payload`` is an object holding ``key``."""
    obj = require_object(payload, name)
    if key not in obj:
        raise ValidationError(f"{name} is missing required field {key!r}")
    return obj[key]
