"""Pauli-level reference implementations that only tests use: each is the
slow, obviously correct form of something the package does on arrays."""

from nuconcat.circuits import GadgetCircuit
from nuconcat.codes import build_decoder, normalizer_class, syndrome
from nuconcat.concat import Layout
from nuconcat.pauli import DimensionError, Pauli


def hierarchical_decode(layout: Layout, error: Pauli) -> str:
    """Residual logical class after inner-then-outer lookup decoding."""
    if error.n != layout.total_n:
        raise DimensionError("error register does not match layout")
    letters: dict[int, str] = {}
    for q in range(layout.outer.n):
        start, inner = layout.block(q)
        if inner is None:
            letter = error.letter(start)
        else:
            block_err = error.restrict(range(start, start + inner.n))
            decoder = build_decoder(inner)
            correction = decoder.decode(syndrome(inner, block_err))
            letter = normalizer_class(inner, correction * block_err)
        if letter != "I":
            letters[q] = letter
    outer_error = Pauli.from_letters(layout.outer.n, letters)
    outer_decoder = build_decoder(layout.outer)
    correction = outer_decoder.decode(syndrome(layout.outer, outer_error))
    return normalizer_class(layout.outer, correction * outer_error)


def invert(c: GadgetCircuit) -> GadgetCircuit:
    """The inverse circuit: every gate daggered, in reverse order."""
    return GadgetCircuit(c.register_size, tuple(g.dagger() for g in reversed(c.gates)),
                         f"inv({c.label})", c.blocks)
