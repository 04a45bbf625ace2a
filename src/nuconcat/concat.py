"""Concatenation layouts, their flattening to one stabilizer code, and
exact concatenated distance.

A layout is an outer code plus a per-outer-qubit assignment of an inner
code: that outer qubit becomes an encoded block, or stays a single
physical qubit when the code is the trivial one-qubit ``BARE``.  A layout
is non-uniform when the assignment is not constant.  Flattened, it is a
stabilizer code in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

from .codes import (BARE, LOGICAL_CLASSES, StabilizerCode, anticommutation, coset_minimum,
                    min_weight_logical, staircase_support)
from .pauli import LETTERS, DimensionError, Pauli


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class Layout:
    outer: StabilizerCode
    assignment: tuple[StabilizerCode, ...]

    def __post_init__(self):
        if len(self.assignment) != self.outer.n:
            raise LayoutError("assignment must cover every outer qubit")

    @cached_property
    def descriptor(self) -> str:
        """The explicit form that :func:`parse_layout` reads back."""
        return f"outer={self.outer.name};assign=" + ",".join(
            inner.name for inner in self.assignment)

    @cached_property
    def total_n(self) -> int:
        return sum(inner.n for inner in self.assignment)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((inner.n for inner in self.assignment[:-1]), initial=0))

    def block(self, outer_q: int) -> tuple[int, StabilizerCode]:
        return self.offsets[outer_q], self.assignment[outer_q]


def uniform_layout(outer: StabilizerCode, inner: StabilizerCode) -> Layout:
    return Layout(outer, (inner,) * outer.n)


def bare_layout(outer: StabilizerCode) -> Layout:
    return Layout(outer, (BARE,) * outer.n)


def non_uniform_layout(outer: StabilizerCode, inner: StabilizerCode,
                       b2_inner: StabilizerCode = BARE) -> Layout:
    """Encode the coupled set (the outer staircase support) with ``inner``;
    leave the rest, b2, bare or encode it with ``b2_inner`` (the
    two-level-everywhere variant)."""
    coupled = staircase_support(outer)
    return Layout(outer, tuple(inner if q in coupled else b2_inner for q in range(outer.n)))


# -- descriptors -------------------------------------------------------------

def parse_layout(text: str, code_by_name) -> Layout:
    """Parse ``uniform:steane:rm15`` style or explicit per-qubit descriptors.

    Forms::

        bare:OUTER
        uniform:OUTER:INNER
        nonuniform:OUTER:INNER          (coupled set from the outer staircase)
        b2:OUTER:INNER:B2INNER
        outer=OUTER;assign=a,b,...      (explicit)

    Each INNER, B2INNER and assigned name is ``bare`` or a code name; an
    OUTER is always a code name.
    """
    def inner(name: str) -> StabilizerCode:
        return BARE if name == BARE.name else code_by_name(name)

    text = text.strip()
    if text.startswith("outer="):
        head, _, tail = text.partition(";")
        outer = code_by_name(head.removeprefix("outer="))
        if not tail.startswith("assign="):
            raise LayoutError(f"bad layout descriptor {text!r}")
        return Layout(outer, tuple(map(inner, tail.removeprefix("assign=").split(","))))
    form, *names = text.split(":")
    if form == "bare" and len(names) == 1:
        return bare_layout(code_by_name(names[0]))
    if form == "uniform" and len(names) == 2:
        return uniform_layout(code_by_name(names[0]), inner(names[1]))
    if form == "nonuniform" and len(names) == 2:
        return non_uniform_layout(code_by_name(names[0]), inner(names[1]))
    if form == "b2" and len(names) == 3:
        return non_uniform_layout(code_by_name(names[0]), inner(names[1]), inner(names[2]))
    raise LayoutError(f"bad layout descriptor {text!r}")


# -- flattening ---------------------------------------------------------------

def lift(layout: Layout, outer_op: Pauli, rep=StabilizerCode.logical_rep) -> Pauli:
    """Lift an outer-level Pauli to the physical register.

    Each letter becomes ``rep(inner, letter)``, by default the inner
    logical representative, with its exact sign; on a bare qubit that is
    the letter itself.
    """
    if outer_op.n != layout.outer.n:
        raise DimensionError("outer operator size mismatch")
    total = layout.total_n
    out = Pauli(total, 0, 0, outer_op.phase_exp)
    for q in range(outer_op.n):
        letter = outer_op.letter(q)
        if letter == "I":
            continue
        start, inner = layout.block(q)
        image = rep(inner, letter)
        # the i of a Y letter is already in outer_op.phase_exp
        out = out * Pauli(total, image.x << start, image.z << start, image.phase_exp - (letter == "Y"))
    return out


@lru_cache(maxsize=None)
def flatten(layout: Layout) -> StabilizerCode:
    """The layout as one stabilizer code, named by its descriptor.

    Generators are the inner generators per block, then the lifted outer
    generators; the logicals are the lifted outer logicals.  The code's
    own checks (count, commutation, independence, logicals) guard the
    lifting conventions.
    """
    total = layout.total_n
    gens = [Pauli(total, g.x << start, g.z << start, g.phase_exp)
            for start, inner in zip(layout.offsets, layout.assignment) for g in inner.generators]
    gens += [lift(layout, g) for g in layout.outer.generators]
    return StabilizerCode(layout.descriptor, tuple(gens),
                          lift(layout, layout.outer.logical_x),
                          lift(layout, layout.outer.logical_z))


# -- exact distance -------------------------------------------------------------

@dataclass(frozen=True)
class DistanceResult:
    distance: int
    witness: Pauli
    outer_element: Pauli
    outer_class: str


def concatenated_distance(layout: Layout) -> DistanceResult:
    """Exact minimum weight over all flattened logical operators.

    Scans every nontrivial outer logical coset element and charges each
    outer letter its cheapest inner realisation: 0 for identity, else the
    inner coset minimum (1 on a bare qubit).  The witness is rebuilt from
    the argmin and re-verified against the flattened generators.
    """
    outer = layout.outer
    costs = tuple((0, *(min_weight_logical(inner, cls).weight() for cls in LETTERS[1:]))
                  for inner in layout.assignment)
    minima = {cls: coset_minimum(outer, cls, costs) for cls in LOGICAL_CLASSES}
    cls = min(minima, key=lambda c: minima[c][0])
    key, element = minima[cls]
    weight = key >> 2 * outer.n
    witness = lift(layout, Pauli.hermitian(outer.n, element.x, element.z), min_weight_logical)
    _verify_witness(flatten(layout), witness, weight)
    return DistanceResult(weight, witness, element, cls)


def _verify_witness(flat: StabilizerCode, witness: Pauli, claimed_weight: int) -> None:
    if witness.weight() != claimed_weight:
        raise AssertionError("witness weight mismatch")
    *syndrome, anti_z, anti_x = anticommutation(flat.checks, [witness.x], [witness.z])[0]
    if any(syndrome):
        raise AssertionError("witness has nonzero syndrome")
    if not anti_z | anti_x:
        raise AssertionError("witness is not logically nontrivial")
