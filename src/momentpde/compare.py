"""Accuracy comparison between pseudo-moments and a reference table."""

from __future__ import annotations

import numpy as np

from .tables import MissingMomentError, MomentTable

# Guard for zero reference moments in the relative-error denominator.
RELERR_FLOOR = 1e-12

# Relative-error thresholds of the accuracy histogram, 1e-1 down to 1e-8.
THRESHOLDS = tuple(10.0**-k for k in range(1, 9))


def relative_error(value, reference):
    """|value - reference| / max(|reference|, RELERR_FLOOR), elementwise."""
    return np.abs(value - reference) / np.maximum(np.abs(reference), RELERR_FLOOR)


def matching_percentages(
    computed: MomentTable, reference: MomentTable
) -> list[tuple[float, int, int, float]]:
    """Rows (threshold, matched, total, percent), canonical indices counted once.

    The reference must cover every index of the computed table.
    """
    moments = computed.moments
    try:
        ref = reference.lookup(moments.ell, moments.counts)
    except MissingMomentError as exc:
        raise MissingMomentError(exc.index, measure="reference") from None
    errors = relative_error(computed.values, ref)
    total = len(errors)
    rows = []
    for tau in THRESHOLDS:
        matched = int((errors <= tau).sum())
        rows.append((tau, matched, total, 100.0 * matched / total if total else 0.0))
    return rows
