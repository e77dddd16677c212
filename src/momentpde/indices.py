"""Moment indices on the torus: symmetries, canonical forms, truncated enumeration.

A moment of a measure on time x Fourier-coefficient space is addressed by a
time exponent ``ell`` and a multiset of signed mode numbers ``(n_1, ..., n_k)``.
Moments are invariant under permutation of the modes and go to their complex
conjugate under global sign flip of the modes, so each moment has a canonical
representative.  Truncations are controlled by three degrees: time (max ell),
algebraic (max k) and harmonic (max |n_j|).

For bulk work the same indices have an array form: a time degree plus a
count row of the multiset over the modes, with vectorized canonicalization
(``mode_counts``, ``canonical_counts``); ``moment_keys`` turns each int8 row
[ell, counts] into one byte-string key.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

Frequency = int  # signed Fourier mode number


@dataclass(frozen=True, slots=True)
class MomentIndex:
    """Address of one complex moment: time degree ell plus a mode multiset.

    ``freqs`` is normalized to a sorted tuple so that equal multisets compare
    and hash equal.  ``freqs = ()`` is legal and denotes the pure-time moment.
    """

    time_degree: int
    freqs: tuple[Frequency, ...] = ()

    def __post_init__(self) -> None:
        if self.time_degree < 0:
            raise ValueError(f"time_degree must be nonnegative, got {self.time_degree}")
        freqs = tuple(self.freqs)
        if any(freqs[i] > freqs[i + 1] for i in range(len(freqs) - 1)):
            freqs = tuple(sorted(freqs))
        object.__setattr__(self, "freqs", freqs)

    def __str__(self) -> str:
        return f"y[{self.time_degree};{','.join(map(str, self.freqs))}]"


@dataclass(frozen=True, slots=True)
class CanonicalIndex:
    """Canonical representative of a conjugate pair of moment indices.

    ``conjugated`` is True when the queried index is the sign-flipped image of
    the stored representative, i.e. its value is the conjugate of the stored
    moment.  Self-conjugate multisets always carry ``conjugated = False``.
    """

    index: MomentIndex
    conjugated: bool


def canonicalize(idx: MomentIndex) -> CanonicalIndex:
    """Resolve permutation and conjugation symmetry to a unique representative.

    The representative is the lexicographically smaller of the sorted multiset
    and its sorted negation.
    """
    neg = tuple(sorted(-n for n in idx.freqs))
    if neg < idx.freqs:
        return CanonicalIndex(MomentIndex(idx.time_degree, neg), True)
    return CanonicalIndex(idx, False)


def is_canonical(idx: MomentIndex) -> bool:
    return not canonicalize(idx).conjugated


@dataclass(frozen=True, slots=True)
class TruncationDegrees:
    """Truncation triple (time, algebraic, harmonic).

    Time and algebraic degrees must be even so that the half-degree matrix
    bases are well defined.
    """

    time: int
    algebraic: int
    harmonic: int

    def __post_init__(self) -> None:
        for name in ("time", "algebraic", "harmonic"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} degree must be nonnegative, got {v}")
        if self.time % 2 or self.algebraic % 2:
            raise ValueError(
                f"time and algebraic degrees must be even, got "
                f"({self.time}, {self.algebraic})"
            )

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.time, self.algebraic, self.harmonic)


def _mode_multisets(max_len: int, harmonic: int):
    alphabet = range(-harmonic, harmonic + 1)
    for k in range(max_len + 1):
        yield from itertools.combinations_with_replacement(alphabet, k)


def enumerate_moment_vector(deg: TruncationDegrees) -> list[MomentIndex]:
    """All moment indices inside the truncation, one per mode multiset.

    Conjugate pairs are both listed (the counts reported for the truncation
    sizes do not deduplicate them).  Order is lexicographic in (ell, k,
    multiset) and deterministic across runs.
    """
    return [
        MomentIndex(ell, freqs)
        for ell in range(deg.time + 1)
        for freqs in _mode_multisets(deg.algebraic, deg.harmonic)
    ]


def count_moment_vector(deg: TruncationDegrees) -> int:
    """Closed-form cardinality of ``enumerate_moment_vector`` (exact integers)."""
    per_ell = sum(
        math.comb(2 * deg.harmonic + k, k) for k in range(deg.algebraic + 1)
    )
    return (deg.time + 1) * per_ell


def basis_monomials(
    max_time_half: int, max_alg_half: int, harmonic: int
) -> list[MomentIndex]:
    """Monomial basis with explicit caps; building block for the matrix bases.

    Each row/column label t^th times a mode multiset is a ``MomentIndex``
    whose time degree is the half degree th.
    """
    if max_time_half < 0:
        return []
    return [
        MomentIndex(th, freqs)
        for th in range(max_time_half + 1)
        for freqs in _mode_multisets(max_alg_half, harmonic)
    ]


def enumerate_matrix_basis(deg: TruncationDegrees) -> list[MomentIndex]:
    """Row/column basis of the full moment matrix.

    Time and algebraic degrees are halved (so products of two monomials stay
    inside the moment-vector truncation) while the harmonic degree is kept
    whole; this is the scheme whose sizes match the reported truncation table.
    """
    return basis_monomials(deg.time // 2, deg.algebraic // 2, deg.harmonic)


def count_matrix_basis(deg: TruncationDegrees) -> int:
    per_t = sum(
        math.comb(2 * deg.harmonic + k, k) for k in range(deg.algebraic // 2 + 1)
    )
    return (deg.time // 2 + 1) * per_t


# -- Array encoding ---------------------------------------------------------
# A mode multiset over -h..h is a count row of 2h+1 small integers, one per
# mode in increasing order.  Negating the modes reverses the row.


def mode_counts(freqs: Sequence[tuple[Frequency, ...]], harmonic: int) -> np.ndarray:
    """Count rows (int8) of mode multisets over the modes -harmonic..harmonic."""
    width = 2 * harmonic + 1
    lengths = np.fromiter(map(len, freqs), dtype=np.intp, count=len(freqs))
    if len(lengths) and lengths.max() > 127:
        raise ValueError("mode multisets of more than 127 modes do not fit int8 counts")
    modes = np.fromiter(
        itertools.chain.from_iterable(freqs), dtype=np.intp, count=int(lengths.sum())
    )
    if len(modes) and np.abs(modes).max() > harmonic:
        raise ValueError(f"mode outside -{harmonic}..{harmonic}")
    flat = np.repeat(np.arange(len(freqs)) * width, lengths) + modes + harmonic
    counts = np.bincount(flat, minlength=len(freqs) * width)
    return counts.reshape(len(freqs), width).astype(np.int8)


def count_freqs(counts: np.ndarray, harmonic: int) -> list[tuple[Frequency, ...]]:
    """Sorted mode tuples of count rows (inverse of ``mode_counts``)."""
    modes = np.tile(np.arange(-harmonic, harmonic + 1), len(counts))
    flat = iter(np.repeat(modes, counts.ravel()).tolist())
    return [tuple(itertools.islice(flat, k)) for k in counts.sum(axis=1).tolist()]


def canonical_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``canonicalize``: canonical count rows and conjugation flags.

    Of two sorted multisets of one size, the one with more copies of the
    first mode where their count rows differ is lexicographically smaller.
    So a row is conjugated (its negation is the representative) exactly when
    its reverse is larger at the first mode where the two differ.
    """
    rev = counts[:, ::-1]
    rows = np.arange(len(counts))
    first = (counts != rev).argmax(axis=1)  # 0 for self-conjugate rows
    conjugated = rev[rows, first] > counts[rows, first]
    return np.where(conjugated[:, None], rev, counts), conjugated


def moment_keys(ell: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exact key of each (time degree, int8 count row): the bytes of the row
    [ell, counts] as one ``np.void`` scalar, equal only for equal moments.

    The time degree is stored as int8, so it must be at most 127.
    """
    if len(ell) and np.max(ell) > 127:
        raise ValueError("time degrees above 127 do not fit int8 moment keys")
    rows = np.empty((len(counts), counts.shape[1] + 1), dtype=np.int8)
    rows[:, 0] = ell
    rows[:, 1:] = counts
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
