"""Row-level results and aggregated verification reports.

Rows serialize to CSV with a fixed column order, repr() floats
(shortest round-trip form) and the quantity quoted when it holds a
comma, so a report is byte-identical across runs with the same seed.
Aggregation normalizes each row's error by its own tolerance; a report
therefore passes exactly when max_violation <= 1, and exact rows
(tolerance zero) pass only at error zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import InvalidInput


@dataclass(frozen=True)
class ReportRow:
    claim_id: str
    trial: int
    quantity: str
    expected: float
    measured: float
    abs_err: float
    passed: bool
    tolerance: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    details: tuple = ()

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.claim_id}: trials={self.trials} "
            f"max_violation={self.max_violation:.6g} tolerance={self.tolerance:.6g}"
        )


def row(claim_id, trial, quantity, expected, measured, tolerance) -> ReportRow:
    """Tolerance row; expected/measured must agree to within tolerance."""
    err = abs(float(measured) - float(expected))
    return ReportRow(
        claim_id, int(trial), quantity, float(expected), float(measured), err,
        err <= tolerance, float(tolerance),
    )


def bound_row(claim_id, trial, quantity, bound, measured, tolerance, side="upper") -> ReportRow:
    """One-sided row: measured <= bound (+tol) or measured >= bound (-tol)."""
    bound = float(bound)
    measured = float(measured)
    err = max(0.0, measured - bound) if side == "upper" else max(0.0, bound - measured)
    return ReportRow(
        claim_id, int(trial), quantity, bound, measured, err,
        err <= tolerance, float(tolerance),
    )


def exact_row(claim_id, trial, quantity, ok: bool) -> ReportRow:
    """Bit-exact claim; abs_err is 0 or 1 and the tolerance is zero."""
    return ReportRow(claim_id, int(trial), quantity, 1.0, 1.0 if ok else 0.0,
                     0.0 if ok else 1.0, bool(ok), 0.0)


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["claim_id", "trial", "quantity", "expected", "measured", "abs_err", "passed"])
    out.writerows(
        (r.claim_id, r.trial, r.quantity, repr(r.expected), repr(r.measured), repr(r.abs_err), str(r.passed).lower())
        for r in rows
    )
    return buf.getvalue()


def _check_trials(trials) -> int:
    if not (trials >= 1 and trials % 1 == 0):  # NaN and inf fail; no trial would read PASS
        raise InvalidInput(f"trials must be an integer >= 1, got {trials!r}")
    return int(trials)


def summarize(claim_id: str, rows: list[ReportRow], trials: int) -> VerificationReport:
    """Aggregate rows into one report with tolerance-normalized violation;
    ``details`` keeps up to 50 rows, failing ones first, each group by
    decreasing abs_err."""
    worst = 0.0
    for r in rows:
        if r.tolerance > 0.0:
            ratio = r.abs_err / r.tolerance
        else:
            ratio = 0.0 if r.abs_err == 0.0 else float("inf")
        worst = max(worst, ratio)
    return VerificationReport(
        claim_id=claim_id,
        trials=trials,
        max_violation=worst,
        tolerance=1.0,
        passed=all(r.passed for r in rows),
        details=tuple(sorted(rows, key=lambda r: (r.passed, -r.abs_err))[:50]),
    )
