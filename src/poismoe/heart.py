"""Cleveland heart-disease file ingestion.

Expects the UCI "processed" format: 14 comma-separated attributes per
line, missing values written as "?". The disease stage (last column,
0..4) is the count response; ST depression (oldpeak) and the ST-segment
slope are the two covariates, used both as regressors and as gating
concomitants. Rows containing any missing value are dropped, matching
the published complete-case count of 297 for the canonical file.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .model import Dataset

COLUMN_COUNT = 14
OLDPEAK_COLUMN = 9
SLOPE_COLUMN = 10
STAGE_COLUMN = 13

__all__ = ["load_heart_dataset"]


def load_heart_dataset(path: str | Path,
                       slope_encoding: str = "numeric") -> Dataset:
    """Dataset with X = Omega = [1, ST depression, ST slope] from the file.

    Rows with a missing ("?") attribute are dropped; any other row must
    have 14 columns, finite ST depression and slope, and a disease stage
    that is an integer in 0..4, else :class:`DataFormatError` names its
    line. ``slope_encoding="numeric"`` keeps the slope attribute as the
    1/2/3 code it carries in the file; ``"dummy"`` expands it into
    indicator columns for levels 2 and 3.
    """
    rows: list[list[float]] = []
    with open(path, newline="") as handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if len(row) != COLUMN_COUNT:
                raise DataFormatError(
                    f"expected {COLUMN_COUNT} columns, found {len(row)}",
                    line_number)
            if any(field.strip() == "?" for field in row):
                continue
            try:
                values = [float(row[column]) for column in
                          (OLDPEAK_COLUMN, SLOPE_COLUMN, STAGE_COLUMN)]
            except ValueError as exc:
                raise DataFormatError(f"unparseable value: {exc}",
                                      line_number) from exc
            if not all(map(math.isfinite, values)):
                raise DataFormatError("non-finite value", line_number)
            stage_raw = values[2]
            if stage_raw != int(stage_raw) or not 0 <= stage_raw <= 4:
                raise DataFormatError(
                    f"disease stage must be an integer in 0..4, got {stage_raw}",
                    line_number)
            rows.append(values)
    if not rows:
        raise DataFormatError("no complete rows found")
    depression, slope, stage = np.array(rows).T
    y = stage.astype(np.int64)
    if slope_encoding == "numeric":
        design = np.column_stack([np.ones(len(rows)), depression, slope])
    elif slope_encoding == "dummy":
        levels = set(np.unique(slope))
        if not levels <= {1.0, 2.0, 3.0}:
            raise DataFormatError(
                f"dummy encoding expects slope codes 1/2/3, found {sorted(levels)}")
        design = np.column_stack([np.ones(len(rows)), depression,
                                  (slope == 2.0).astype(float),
                                  (slope == 3.0).astype(float)])
    else:
        raise ValueError(f"unknown slope encoding {slope_encoding!r}")
    return Dataset(y=y, X=design, Omega=design.copy())
