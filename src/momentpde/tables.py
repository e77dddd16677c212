"""Moment tables: canonical storage of complex moment values plus CSV I/O."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .indices import MomentIndex, canonicalize


class MissingMomentError(KeyError):
    """Raised when a table lookup references an index it does not hold."""

    def __init__(self, idx: MomentIndex, measure: str | None = None):
        super().__init__(str(idx))
        self.index = idx
        self.measure = measure

    def __str__(self) -> str:
        where = f"{self.measure} moment table" if self.measure else "moment table"
        return f"{where} has no entry for {self.index}"


class MomentTable:
    """Map from canonical moment index to complex value.

    Only canonical representatives are stored; lookups of a conjugated index
    transparently return the conjugate of the stored value.
    """

    def __init__(self, entries: dict[MomentIndex, complex] | None = None):
        self._entries: dict[MomentIndex, complex] = {}
        if entries:
            for idx, value in entries.items():
                self.set(idx, value)

    def set(self, idx: MomentIndex, value: complex) -> None:
        canon = canonicalize(idx)
        v = complex(value)
        self._entries[canon.index] = v.conjugate() if canon.conjugated else v

    def get(self, idx: MomentIndex) -> complex:
        canon = canonicalize(idx)
        try:
            value = self._entries[canon.index]
        except KeyError:
            raise MissingMomentError(idx) from None
        return value.conjugate() if canon.conjugated else value

    def __contains__(self, idx: MomentIndex) -> bool:
        return canonicalize(idx).index in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[MomentIndex, complex]]:
        """Canonical (index, value) pairs in insertion order."""
        return iter(self._entries.items())

    @classmethod
    def from_function(
        cls, func: Callable[[MomentIndex], complex], indices: Iterable[MomentIndex]
    ) -> "MomentTable":
        table = cls()
        for idx in indices:
            if idx not in table:
                table.set(idx, func(idx))
        return table


def parse_freqs(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split("|"))


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
    table = MomentTable()
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header[:2] != ["ell", "freqs"]:
            raise ValueError(f"{path}: not a moment table CSV (header {header!r})")
        for row in reader:
            if not row:
                continue
            ell, freqs, re, im = row
            table.set(
                MomentIndex(int(ell), parse_freqs(freqs)), complex(float(re), float(im))
            )
    return table
