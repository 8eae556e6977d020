"""The one writer of headlab's CSV and JSON files.

A CSV cell that is a numpy scalar is first turned into its Python value, so
that `csv` writes every float as its shortest round-trip `repr` and `None` as
a blank cell. JSON is indented, with sorted keys and a trailing newline. These
rules are what make reruns byte-identical.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def _cell(value):
    return value.item() if isinstance(value, np.generic) else value


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row of `rows`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
