"""Accuracy comparison between pseudo-moments and a reference table."""

from __future__ import annotations

from .tables import MissingMomentError, MomentTable

# Guard for zero reference moments in the relative-error denominator.
RELERR_FLOOR = 1e-12

# Relative-error thresholds of the accuracy histogram, 1e-1 down to 1e-8.
THRESHOLDS = tuple(10.0**-k for k in range(1, 9))


def relative_error(value: complex, reference: complex) -> float:
    return abs(value - reference) / max(abs(reference), RELERR_FLOOR)


def matching_percentages(
    computed: MomentTable, reference: MomentTable
) -> list[tuple[float, int, int, float]]:
    """Rows (threshold, matched, total, percent), canonical indices counted once.

    The reference must cover every index of the computed table.
    """
    errors = []
    for idx, value in computed.items():
        try:
            ref = reference.get(idx)
        except MissingMomentError:
            raise MissingMomentError(idx, measure="reference") from None
        errors.append(relative_error(value, ref))
    total = len(errors)
    rows = []
    for tau in THRESHOLDS:
        matched = sum(1 for e in errors if e <= tau)
        rows.append((tau, matched, total, 100.0 * matched / total if total else 0.0))
    return rows
