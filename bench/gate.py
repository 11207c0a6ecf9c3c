"""Correctness gate for the CSV each benchmark sweep writes.

At any seed: no sufficiency violation (the sufficient condition held but
the certificate did not) and no disagreement between a certificate and the
Burer-Monteiro cross-check. At the recorded seed, the CSV must equal the
recorded output: byte for byte by sha256, or, for workloads whose values
come out of a floating-point eigen kernel that may legitimately change,
field by field to within one unit in the 9th significant digit (the CSV
prints 9 significant digits).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Columns that count wrong answers; each must read 0 whenever present.
ZERO_COLUMNS = ("sufficiency_violations", "bm_disagreements")


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def within_9th_digit(got: float, want: float) -> bool:
    """|got - want| is at most one unit in want's 9th significant digit."""
    if want == 0.0 or not math.isfinite(want):
        return got == want
    unit = 10.0 ** (math.floor(math.log10(abs(want))) - 8)
    return abs(got - want) <= unit * (1.0 + 1e-6)


def _field_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return within_9th_digit(float(got), float(want))
    except ValueError:
        return False


def compare_close(got_text: str, want_text: str) -> list:
    """Problems found comparing two CSV texts field by field."""
    got, want = _rows(got_text), _rows(want_text)
    if len(got) != len(want) or (got and got[0] != want[0]):
        return ["CSV shape or header differs from the recorded output"]
    problems = []
    header = want[0] if want else []
    for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            problems.append(f"row {r}: {len(g_row)} fields, recorded {len(w_row)}")
            continue
        for col, g, w in zip(header, g_row, w_row):
            if not _field_matches(g, w):
                problems.append(f"row {r} {col}: {g}, recorded {w}")
    return problems


def check(workload: str, csv_bytes: bytes, seed: int, expected: dict) -> list:
    """Problems with one sweep's CSV; an empty list means it passed."""
    problems = []
    text = csv_bytes.decode("utf-8")
    rows = _rows(text)
    header = rows[0] if rows else []
    for r, row in enumerate(rows[1:], start=1):
        for col, value in zip(header, row):
            if col in ZERO_COLUMNS and value not in ("", "0"):
                problems.append(f"row {r}: {col}={value}")
    if seed != expected["seed"]:
        return problems
    if workload in expected["csv_sha256"]:
        want = expected["csv_sha256"][workload]
        got = sha256(csv_bytes)
        if got != want:
            problems.append(f"CSV sha256 {got} differs from recorded {want}")
    elif workload in expected["csv_9_digits"]:
        problems += compare_close(text, expected["csv_9_digits"][workload])
    else:
        problems.append(f"no recorded output for workload {workload!r}")
    return problems
