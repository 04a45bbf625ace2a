"""GF(2) linear algebra on int bit-masks (rows as plain Python ints).

``rref`` is the one eliminator: it builds a fully reduced basis, and
``reduce`` clears every pivot bit of a row against such a basis.  ``rank``
and ``solve_affine`` read the basis.  To learn which input rows combine to
a vector, tag each row with one low bit per row before reducing (as
``codes.StabilizerGroup`` does).
"""

from __future__ import annotations


def reduce(reduced: list[int], row: int) -> int:
    """``row`` with every pivot bit of the fully reduced basis ``reduced``
    cleared: 0 exactly when ``row`` lies in its span."""
    for r in reduced:
        if (row >> (r.bit_length() - 1)) & 1:
            row ^= r
    return row


def rref(rows: list[int]) -> list[int]:
    """Fully reduced row-echelon basis of the span of ``rows``.

    Each returned row's top bit is its pivot and no other returned row has
    that bit set; rows appear in the order their pivots were found.
    """
    reduced: list[int] = []
    for row in rows:
        row = reduce(reduced, row)
        if row:
            top = 1 << (row.bit_length() - 1)
            reduced = [r ^ row if r & top else r for r in reduced]
            reduced.append(row)
    return reduced


def rank(rows: list[int]) -> int:
    return len(rref(rows))


def solve_affine(rows: list[int], targets: list[int]) -> int | None:
    """A solution v of ``parity(rows[i] & v) == targets[i]``, or None when
    the system is inconsistent."""
    # The target is the lowest bit of each augmented row, so it is a pivot
    # only of the reduced row 1, which reads 0 = 1.
    reduced = rref([row << 1 | t for row, t in zip(rows, targets)])
    if 1 in reduced:
        return None
    solution = 0
    for r in reduced:
        solution |= (r & 1) << (r.bit_length() - 2)
    return solution
