"""GF(2) row reduction against brute force on small widths."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nuconcat._bitlin import rank, reduce, rref, solve_affine
from reference import nullspace

WIDTH = 10


def parity(v: int) -> int:
    return v.bit_count() & 1


def span(rows: list[int]) -> set[int]:
    out = {0}
    for row in rows:
        out |= {v ^ row for v in out}
    return out


def kernel(rows: list[int], n_bits: int) -> set[int]:
    return {v for v in range(1 << n_bits) if not any(parity(r & v) for r in rows)}


@st.composite
def systems(draw):
    n_bits = draw(st.integers(1, WIDTH))
    rows = draw(st.lists(st.integers(0, (1 << n_bits) - 1), max_size=8))
    return rows, n_bits


@settings(max_examples=200, deadline=None)
@given(systems())
def test_rref_is_reduced_and_spans_the_input(system):
    rows, _ = system
    reduced = rref(rows)
    pivots = [r.bit_length() - 1 for r in reduced]
    assert 0 not in reduced and len(set(pivots)) == len(pivots)
    for r in reduced:
        assert [p for p in pivots if (r >> p) & 1] == [r.bit_length() - 1]
    assert span(reduced) == span(rows)
    assert rank(rows) == len(reduced) == len(span(rows)).bit_length() - 1


@settings(max_examples=200, deadline=None)
@given(systems())
def test_nullspace_spans_exactly_the_kernel(system):
    rows, n_bits = system
    basis = nullspace(rows, n_bits)
    assert len(basis) == n_bits - rank(rows) == rank(basis)
    assert span(basis) == kernel(rows, n_bits)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_solve_affine_matches_brute_force(system, data):
    rows, n_bits = system
    targets = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    solutions = {v for v in range(1 << n_bits)
                 if all(parity(r & v) == t for r, t in zip(rows, targets))}
    particular = solve_affine(rows, targets)
    if not solutions:
        assert particular is None
        return
    assert {particular ^ v for v in span(nullspace(rows, n_bits))} == solutions


@settings(max_examples=200, deadline=None)
@given(systems(), st.integers(0, (1 << WIDTH) - 1))
def test_reduce_clears_every_pivot_and_decides_membership(system, vec):
    rows, n_bits = system
    vec &= (1 << n_bits) - 1
    reduced = rref(rows)
    rest = reduce(reduced, vec)
    assert (rest == 0) == (vec in span(rows))
    assert not any((rest >> (r.bit_length() - 1)) & 1 for r in reduced)
    assert rest ^ vec in span(rows)
    assert all(reduce(reduced, row ^ vec) == rest for row in rows)
