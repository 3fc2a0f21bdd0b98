"""The JSON files: strict reading with typed errors, and the one writer.

Each loader passes its own error type, so a malformed file of any kind
maps to that loader's exit code.  ``save`` writes every JSON file the
package writes, inputs and results alike, in one layout.
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
    """The parsed JSON file at ``path``; an unreadable file or invalid JSON (nested too
    deeply for the parser included) raises ``error``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {path} as JSON: {exc}") from exc


def save(path, data) -> None:
    """Write ``data`` to ``path`` as JSON, indented by one space, keys sorted."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
