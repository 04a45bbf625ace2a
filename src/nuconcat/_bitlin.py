"""GF(2) linear algebra on int bit-masks (rows as plain Python ints)."""

from __future__ import annotations


def rref(rows: list[int]) -> list[int]:
    """Fully reduced row-echelon basis of the span of ``rows``.

    Each returned row's top bit is its pivot and no other returned row has
    that bit set; rows appear in the order their pivots were found.
    """
    reduced: list[int] = []
    for row in rows:
        for r in reduced:
            if (row >> (r.bit_length() - 1)) & 1:
                row ^= r
        if row:
            top = 1 << (row.bit_length() - 1)
            reduced = [r ^ row if r & top else r for r in reduced]
            reduced.append(row)
    return reduced


def rank(rows: list[int]) -> int:
    return len(rref(rows))


class Solver:
    """Incremental row-reduced span with solve-for-combination support."""

    def __init__(self, rows: list[int]):
        self.rows = list(rows)
        # pivot bit -> (reduced row, combination mask over original rows)
        self.pivots: dict[int, tuple[int, int]] = {}
        for i, row in enumerate(self.rows):
            self._insert(row, 1 << i)

    def _insert(self, row: int, combo: int) -> None:
        row, combo = self._reduce(row, combo)
        if row:
            self.pivots[row.bit_length() - 1] = (row, combo)

    def add(self, row: int) -> None:
        """Extend the span by one more row (no solve bookkeeping)."""
        self._insert(row, 0)

    def _reduce(self, row: int, combo: int = 0) -> tuple[int, int]:
        while row:
            pivot = row.bit_length() - 1
            if pivot not in self.pivots:
                break
            prow, pcombo = self.pivots[pivot]
            row ^= prow
            combo ^= pcombo
        return row, combo

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, vec: int) -> bool:
        return self._reduce(vec)[0] == 0

    def solve(self, vec: int) -> int | None:
        """Mask over original rows whose XOR equals ``vec``, or None."""
        row, combo = self._reduce(vec)
        return None if row else combo


def nullspace(rows: list[int], n_bits: int) -> list[int]:
    """Basis of {v : row & v has even parity for every row}."""
    reduced = rref(rows)
    pivots = {r.bit_length() - 1 for r in reduced}
    basis = []
    for free in range(n_bits):
        if free in pivots:
            continue
        vec = 1 << free
        for r in reduced:
            if (r >> free) & 1:
                vec |= 1 << (r.bit_length() - 1)
        basis.append(vec)
    return basis


def solve_affine(rows: list[int], targets: list[int], n_bits: int) -> tuple[int, list[int]] | None:
    """Solve ``parity(rows[i] & v) == targets[i]`` for v.

    Returns (particular solution, nullspace basis) or None when inconsistent.
    """
    # The target is the lowest bit of each augmented row, so it is a pivot
    # only of the reduced row 1, which reads 0 = 1.
    reduced = rref([row << 1 | t for row, t in zip(rows, targets)])
    if 1 in reduced:
        return None
    solution = 0
    for r in reduced:
        solution |= (r & 1) << (r.bit_length() - 2)
    return solution, nullspace([r >> 1 for r in reduced], n_bits)
