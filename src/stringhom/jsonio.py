"""Strict reading of the JSON input files: typed errors instead of tracebacks.

Each loader passes its own error type, so a malformed file of any kind
maps to that loader's exit code.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

REQUIRED = object()


def field(record, key: str, kinds: type | tuple, what: str, error: type, default=REQUIRED):
    """``record[key]``, of exactly one of the types ``kinds`` (so no bool for int)."""
    if not isinstance(record, Mapping):
        raise error(f"{what} is not a JSON object: {record!r}")
    if key not in record:
        if default is REQUIRED:
            raise error(f"{what} lacks the key {key!r}")
        return default
    value = record[key]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise error(f"{what} field {key!r} must be {names}, got {value!r}")
    return value


def load(path, error: type):
    """The parsed JSON file at ``path``; an unreadable file or invalid JSON raises ``error``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path} as JSON: {exc}") from exc
