"""Checks on the program's CSV outputs that do not trust its own verdict.

Only the standard library is used, so these checks can be tested and
reasoned about without importing the program under test.
"""

from __future__ import annotations

import hashlib
import math

# The certifier's own slack: a realized value may exceed its bound by at
# most this relative amount before the record counts as a violation.
RATIO_LIMIT = 1 + 1e-12

VERIFY_HEADER = ["seed", "d", "t", "realized", "bound", "ratio"]

# Header and data-row count of each analytic sweep at its CLI defaults.
SWEEP_SHAPES = {
    "bound-compare": (["t", "alpha", "new_bound", "legacy_bound"], 273),
    "rate-vs-hk": (["H_K", "rate_scheduled", "rate_aa", "H_K_star"], 61),
    "critical-power": (["K", "H_K", "P_K_star", "feasible"], 122),
    "hex-sweep": (["snr_db", "rate_aa", "rate_k3", "rate_k4"], 301),
}
# Cells the sweeps leave empty when a guarantee is infeasible.
_OPTIONAL = {"H_K_star", "P_K_star"}
_BOOLEAN = {"feasible"}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV whose comment lines start with ``#``."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def verify_records(trials: int) -> int:
    """Records of ``verify --suite all``: 4T + 4T ball checks, 1 + T
    interference checks and 2 + 4 + 5 scheduled checks for k = 1, 3, 4."""
    return 9 * trials + 12


def _finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _cell_ok(name: str, cell: str) -> bool:
    if name in _BOOLEAN:
        return cell in ("true", "false")
    return _finite(cell) is not None or (name in _OPTIONAL and cell == "")


def verify_problems(text: str, trials: int) -> list[str]:
    """Reasons a ``verify --suite all`` CSV is wrong; empty when it is right."""
    header, rows = split_csv(text)
    problems = []
    if header != VERIFY_HEADER:
        problems.append(f"verify header is {header}")
    if len(rows) != verify_records(trials):
        problems.append(f"verify wrote {len(rows)} records, "
                        f"expected {verify_records(trials)}")
    for n, row in enumerate(rows, 1):
        values = [_finite(c) for c in row[3:]]
        if len(row) != len(VERIFY_HEADER) or None in values:
            problems.append(f"verify record {n} is not finite: {row}")
            continue
        realized, bound, ratio = values
        if ratio > RATIO_LIMIT or realized > bound * RATIO_LIMIT:
            problems.append(f"verify record {n} violates its bound: {row}")
    return problems


def sweep_problems(command: str, text: str) -> list[str]:
    """Reasons an analytic sweep's CSV is wrong; empty when it is right."""
    expected_header, expected_rows = SWEEP_SHAPES[command]
    header, rows = split_csv(text)
    problems = []
    if header != expected_header:
        problems.append(f"{command} header is {header}")
    if len(rows) != expected_rows:
        problems.append(f"{command} wrote {len(rows)} rows, "
                        f"expected {expected_rows}")
    for n, row in enumerate(rows, 1):
        if len(row) != len(expected_header):
            problems.append(f"{command} row {n} has {len(row)} cells")
            continue
        bad = [(name, cell) for name, cell in zip(expected_header, row)
               if not _cell_ok(name, cell)]
        problems.extend(f"{command} row {n} has {name} = {cell!r}"
                        for name, cell in bad)
        if command == "bound-compare" and not bad:
            # the paper's bound is never larger than the legacy one
            new, legacy = float(row[2]), float(row[3])
            if new > legacy * RATIO_LIMIT:
                problems.append(f"bound-compare row {n}: new bound {new} "
                                f"above legacy bound {legacy}")
    return problems
