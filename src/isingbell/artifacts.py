"""The two artifact formats every command writes.

CSV: an optional ``# config: {...}`` comment line holding the resolved
configuration (sorted-key JSON), a header line, then one row per sample with
every value at 15 significant digits.  JSON: one sorted, 2-space indented
document with a trailing newline.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np


def write_csv(path, header: Sequence[str], columns, config: Mapping | None = None) -> None:
    """Write equal-length columns as CSV.  ``columns`` holds 1-d columns
    and/or 2-d blocks of columns, stacked left to right."""
    rows = np.column_stack(columns)
    with open(path, "w") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt="%.15g", delimiter=",")


def write_json(path, payload: Mapping) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
