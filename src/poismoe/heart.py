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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .model import Dataset

COLUMN_COUNT = 14
OLDPEAK_COLUMN = 9
SLOPE_COLUMN = 10
STAGE_COLUMN = 13

__all__ = ["HeartRecord", "load_heart_records", "load_heart_dataset"]


@dataclass(frozen=True)
class HeartRecord:
    """One complete observation: the two ECG covariates and the stage."""

    st_depression: float
    st_slope: float
    disease_stage: int

    def __post_init__(self) -> None:
        if self.disease_stage not in (0, 1, 2, 3, 4):
            raise ValueError("disease_stage must be in 0..4")


def load_heart_records(path: str | Path) -> list[HeartRecord]:
    """Parse the file, dropping rows with any missing attribute."""
    records: list[HeartRecord] = []
    with Path(path).open(newline="") as handle:
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
                st_depression = float(row[OLDPEAK_COLUMN])
                st_slope = float(row[SLOPE_COLUMN])
                stage_raw = float(row[STAGE_COLUMN])
            except ValueError as exc:
                raise DataFormatError(f"unparseable value: {exc}",
                                      line_number) from exc
            if not all(map(math.isfinite, (st_depression, st_slope, stage_raw))):
                raise DataFormatError("non-finite value", line_number)
            if stage_raw != int(stage_raw) or not 0 <= stage_raw <= 4:
                raise DataFormatError(
                    f"disease stage must be an integer in 0..4, got {stage_raw}",
                    line_number)
            records.append(HeartRecord(st_depression=st_depression,
                                       st_slope=st_slope,
                                       disease_stage=int(stage_raw)))
    return records


def load_heart_dataset(path: str | Path,
                       slope_encoding: str = "numeric") -> Dataset:
    """Dataset with X = Omega = [1, ST depression, ST slope].

    ``slope_encoding="numeric"`` keeps the slope attribute as the 1/2/3
    code it carries in the file; ``"dummy"`` expands it into indicator
    columns for levels 2 and 3.
    """
    records = load_heart_records(path)
    if not records:
        raise DataFormatError("no complete rows found")
    y = np.array([r.disease_stage for r in records], dtype=np.int64)
    depression = np.array([r.st_depression for r in records])
    slope = np.array([r.st_slope for r in records])
    if slope_encoding == "numeric":
        design = np.column_stack([np.ones(len(records)), depression, slope])
    elif slope_encoding == "dummy":
        levels = set(np.unique(slope))
        if not levels <= {1.0, 2.0, 3.0}:
            raise DataFormatError(
                f"dummy encoding expects slope codes 1/2/3, found {sorted(levels)}")
        design = np.column_stack([np.ones(len(records)), depression,
                                  (slope == 2.0).astype(float),
                                  (slope == 3.0).astype(float)])
    else:
        raise ValueError(f"unknown slope encoding {slope_encoding!r}")
    return Dataset(y=y, X=design, Omega=design.copy())
