"""Correctness gate: compare each CLI output row with its untimed reference.

A row passes when its leading columns echo the generated input and its value
is within the command's relative tolerance of the reference.  A row outside
the tolerance is explained by a documented defect (`Known`) only when it shows
what that defect was measured to produce; otherwise its cause is unexplained.
Each row also yields the number of correct significant digits, -log10 of its
relative error, capped at 15.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DIGITS_CAP = 15.0
INPUT_ATOL = 1e-12


@dataclass
class Known:
    """A documented defect and the failed rows it may explain.

    A failed row carries `cause` only if it stays within what the defect was
    measured to produce: relative error at most `max_rel`, or, when
    `reference` is given, within the tolerance of the values the defect
    produces.  A probe's traceback carries it only if it names `raises`.
    """

    cause: str                         # key of workloads.KNOWN
    max_rel: float = math.inf
    reference: Callable | None = None  # () -> (rows, ncomp) values the defect produces
    raises: str | None = None


@dataclass
class Row:
    ok: bool
    rel: float | None = None      # relative error; None when the row has no value
    cause: str | None = None      # why it failed

    @property
    def digits(self) -> float | None:
        if self.rel is None:
            return None
        if self.rel <= 0.0:
            return DIGITS_CAP
        return float(min(DIGITS_CAP, max(0.0, -math.log10(self.rel))))


def _rows(data: bytes) -> np.ndarray:
    lines = data.decode().strip().split("\n")[1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines if ln])


def _rel(got, ref) -> float:
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300))


def gate_csv(name: str, data: bytes, inputs: np.ndarray, ref: np.ndarray, tol: float,
             known: Known | None = None, known_ref: np.ndarray | None = None) -> list[Row]:
    """Rows of one CSV output against reference values (rows, ncomp).

    known_ref holds the values of known.reference(), when it has one.
    """
    ref = np.asarray(ref, dtype=complex).reshape(len(inputs), -1)
    if known_ref is not None:
        known_ref = np.asarray(known_ref, dtype=complex).reshape(len(inputs), -1)
    try:
        vals = _rows(data)
    except ValueError:
        vals = np.empty((0, 0))
    if vals.shape[0] != len(inputs):
        return [Row(False, None, f"expected {len(inputs)} rows, got {vals.shape[0]}")
                for _ in inputs]
    nin = inputs.shape[1]
    got = vals[:, nin::2] + 1j * vals[:, nin + 1::2]
    out = []
    for i, (x, row, g, r) in enumerate(zip(inputs, vals, got, ref)):
        if not np.allclose(row[:nin], x, rtol=0.0, atol=INPUT_ATOL):
            out.append(Row(False, None, "input columns do not match the generated input"))
            continue
        rel = _rel(g, r)
        if rel <= tol:
            out.append(Row(True, rel))
            continue
        cause = f"{name}: error > {tol:g}"
        if known is not None and known_ref is not None:
            if _rel(g, known_ref[i]) <= tol:
                cause = known.cause
            else:
                cause += f", and not the {known.cause} value"
        elif known is not None:
            if rel <= known.max_rel:
                cause = known.cause
            else:
                cause += f", beyond the {known.cause} envelope {known.max_rel:g}"
        out.append(Row(False, rel, cause))
    return out


def gate_check_report(path: str) -> tuple[list[Row], dict]:
    """Rows of a `check` JSON report: each check compares against its own reference."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    rows, by_name = [], {}
    for c in report["checks"]:
        by_name[c["name"]] = c
        rows.append(Row(bool(c["pass"]), float(c["residual"]),
                        None if c["pass"] else f"check failed: {c['name']}"))
    return rows, by_name
