"""Moment tables: canonical moments as arrays, the one key search, CSV I/O.

``MomentKeys`` holds distinct canonical moments (time degree, int8 count
row) and finds moments among them: ``canonical_counts``, ``moment_keys``,
then ``np.searchsorted`` in its sorted keys.  The relaxation's layout finds
slots this way and a ``MomentTable`` its values; a table is built once and
never changed.  ``MomentIndex`` is the edge: ``get``, ``in``, ``items`` and
``MomentTable.from_moments`` (CSV reader, oracles, tests).
"""

from __future__ import annotations

import cmath
import csv
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .indices import MomentIndex, canonical_counts, count_freqs, mode_counts, moment_keys


class MissingMomentError(KeyError):
    """Raised when a table lookup references an index it does not hold."""

    def __init__(self, idx: MomentIndex, measure: str | None = None):
        super().__init__(str(idx))
        self.index = idx
        self.measure = measure

    def __str__(self) -> str:
        where = f"{self.measure} moment table" if self.measure else "moment table"
        return f"{where} has no entry for {self.index}"


class MomentKeys:
    """Distinct canonical moments in a fixed order: time degrees ``ell`` and
    int8 count rows ``counts`` over the modes -harmonic..harmonic."""

    def __init__(self, ell: np.ndarray, counts: np.ndarray):
        self.ell, self.counts = ell, counts
        key = moment_keys(ell, counts)
        self._rows = np.argsort(key)
        self._keys = key[self._rows]

    def __len__(self) -> int:
        return len(self.ell)

    @property
    def harmonic(self) -> int:
        return self.counts.shape[1] // 2

    def _search(self, ell: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
        """Sorted-key position, conjugation flag and found flag per moment."""
        h = self.harmonic
        wide = np.pad(counts, ((0, 0), (max(h - counts.shape[1] // 2, 0),) * 2))
        rows = wide[:, wide.shape[1] // 2 - h : wide.shape[1] // 2 + h + 1]  # modes -h..h
        canon, conjugated = canonical_counts(rows)
        query = moment_keys(ell, canon)
        pos = np.searchsorted(self._keys, query)
        found = (rows.sum(axis=1) == wide.sum(axis=1)) & (pos < len(self._keys))
        found[found] = self._keys[pos[found]] == query[found]
        return pos, conjugated, found

    def contains(self, ell: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Whether each moment (ell, counts) is held; see ``find``."""
        return self._search(ell, counts)[2]

    def find(self, ell: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row of each moment (ell, counts), and whether the query is the
        conjugate of that row's moment.

        Count rows of another width are re-padded to this one; a mode outside
        -harmonic..harmonic makes a missing moment.  Raises
        ``MissingMomentError`` naming the first moment not held.
        """
        pos, conjugated, found = self._search(ell, counts)
        if not found.all():
            i = int(np.argmin(found))
            (freqs,) = count_freqs(counts[i : i + 1], counts.shape[1] // 2)
            raise MissingMomentError(MomentIndex(int(ell[i]), freqs))
        return self._rows[pos], conjugated


class MomentTable:
    """Complex values of distinct canonical moments: ``values[i]`` is the
    moment of row i of ``moments``.  A query of a conjugated multiset returns
    the conjugate of its representative's value.
    """

    def __init__(self, moments: MomentKeys, values: np.ndarray):
        self.moments, self.values = moments, values

    @classmethod
    def from_moments(cls, entries: Mapping[MomentIndex, complex]) -> "MomentTable":
        """Table of a {MomentIndex: value} mapping, in its order.  A conjugated
        index stores the conjugate value under its representative; of a moment
        given twice, as itself and as its conjugate, the later value wins."""
        harmonic = max((abs(n) for idx in entries for n in idx.freqs), default=0)
        ell = np.array([idx.time_degree for idx in entries], dtype=np.int64)
        canon, conjugated = canonical_counts(mode_counts([idx.freqs for idx in entries], harmonic))
        values = np.array([complex(v) for v in entries.values()], dtype=complex)
        values = np.where(conjugated, values.conj(), values)
        # a repeated key keeps its first place and takes its last value
        last = dict(zip(moment_keys(ell, canon).tolist(), range(len(ell))))
        pick = np.fromiter(last.values(), dtype=np.intp, count=len(last))
        return cls(MomentKeys(ell[pick], canon[pick]), values[pick])

    def lookup(self, ell: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Values of the moments (ell, counts); see ``MomentKeys.find``."""
        rows, conjugated = self.moments.find(ell, counts)
        values = self.values[rows]
        return np.where(conjugated, values.conj(), values)

    def get(self, idx: MomentIndex) -> complex:
        return complex(self.lookup(*self._edge(idx))[0])

    def __contains__(self, idx: MomentIndex) -> bool:
        return bool(self.moments.contains(*self._edge(idx))[0])

    def _edge(self, idx: MomentIndex) -> tuple[np.ndarray, np.ndarray]:
        harmonic = max([self.moments.harmonic, *map(abs, idx.freqs)])
        return np.array([idx.time_degree]), mode_counts([idx.freqs], harmonic)

    def __len__(self) -> int:
        return len(self.moments)

    def items(self) -> Iterator[tuple[MomentIndex, complex]]:
        """Canonical (index, value) pairs in table order."""
        freqs = count_freqs(self.moments.counts, self.moments.harmonic)
        return zip(map(MomentIndex, self.moments.ell.tolist(), freqs), self.values.tolist())


def table_rows(table: MomentTable) -> Iterator[list]:
    """CSV rows [ell, "n1|n2|...", re, im] of the canonical entries."""
    for idx, value in table.items():
        freqs = "|".join(str(n) for n in idx.freqs)
        yield [idx.time_degree, freqs, repr(value.real), repr(value.imag)]


def write_table_csv(table: MomentTable, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["ell", "freqs", "re", "im"])
        writer.writerows(table_rows(table))


def read_table_csv(path: str | Path) -> MomentTable:
    """Table of a CSV written by ``write_table_csv``; blank lines are skipped.
    A malformed row raises ``ValueError`` naming the file and line."""
    entries = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if header[:2] != ["ell", "freqs"]:
            raise ValueError(f"{path}, line 1: not a moment table CSV (header {header!r})")
        for row in reader:
            if not row:
                continue
            try:
                ell, freqs, re, im = row
                value = complex(float(re), float(im))
                if not cmath.isfinite(value):
                    raise ValueError(f"moment value {re}, {im} is not finite")
                freqs = tuple(map(int, freqs.split("|"))) if freqs.strip() else ()
                entries[MomentIndex(int(ell), freqs)] = value
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    try:
        return MomentTable.from_moments(entries)
    except ValueError as exc:  # a moment that does not fit the int8 keys
        raise ValueError(f"{path}: {exc}") from None
