"""GF(2) linear algebra on int bit-masks (rows as plain Python ints).

``rref`` is the one eliminator: it builds a fully reduced basis, and
``reduce`` clears every pivot bit of a row against such a basis.  To learn
which input rows combine to a vector, tag each row with one low bit per
row before reducing (as ``codes.StabilizerGroup`` does for a code's
generators and logical Z).
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
