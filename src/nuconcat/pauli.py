"""Exact algebra of the n-qubit Pauli group in symplectic bit-mask form.

A Pauli operator is stored as ``i^phase_exp * (X^x Z^z)`` where ``x`` and
``z`` are integer bit-masks over qubits (bit ``q`` = qubit ``q``) and the
letter carried by qubit ``q`` follows ``(x_q, z_q)``::

    (0,0) = I    (1,0) = X    (0,1) = Z    (1,1) = Y

with the global convention ``Y = i * X * Z``.  Phases are tracked exactly
over {1, i, -1, -i}; no floating point enters the group algebra.

Masks are plain Python ints, so operators on a couple of hundred qubits
are cheap to multiply and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

# The letter of a qubit's bits x | z << 1.  The same two bits name a
# logical class: bit 0 = anticommutes with logical Z, bit 1 = with logical X.
LETTERS = "IXZY"
_BITS = {letter: bits for bits, letter in enumerate(LETTERS)}

# Rendered phase prefix for i^k, k = display exponent mod 4.
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_STR_PHASE = {"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


class DimensionError(ValueError):
    """Raised when two operators of different qubit counts are combined."""


@dataclass(frozen=True)
class Pauli:
    """Immutable n-qubit Pauli operator with exact phase.

    ``phase_exp`` is the exponent of i in the internal ``i^e X^x Z^z``
    normal form, not the displayed phase: the displayed phase of e.g.
    ``Y = i X Z`` is ``+``.
    """

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise DimensionError(f"bit-mask exceeds {self.n} qubits")
        object.__setattr__(self, "phase_exp", self.phase_exp & 3)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def hermitian(n: int, x: int, z: int) -> "Pauli":
        """The letters of (x, z) with displayed phase +."""
        return Pauli(n, x, z, (x & z).bit_count())

    @staticmethod
    def from_string(text: str) -> "Pauli":
        """Parse phase-prefixed letter notation, e.g. ``-iXIZZY``.

        Qubit 0 is the leftmost letter.  Accepted phase prefixes:
        ``+``, ``-``, ``+i``, ``-i``, ``i`` or none.
        """
        body = text.strip()
        prefix = ""
        while body and body[0] in "+-i":
            prefix += body[0]
            body = body[1:]
        if prefix not in _STR_PHASE:
            raise ValueError(f"bad phase prefix {prefix!r} in {text!r}")
        n = len(body)
        x = z = 0
        n_y = 0
        for q, letter in enumerate(body):
            if letter not in _BITS:
                raise ValueError(f"bad Pauli letter {letter!r} in {text!r}")
            bits = _BITS[letter]
            x |= (bits & 1) << q
            z |= (bits >> 1) << q
            n_y += letter == "Y"
        return Pauli(n, x, z, (_STR_PHASE[prefix] + n_y) & 3)

    # -- rendering ------------------------------------------------------

    def letter(self, qubit: int) -> str:
        return LETTERS[(self.x >> qubit & 1) | (self.z >> qubit & 1) << 1]

    @property
    def display_phase_exp(self) -> int:
        """Exponent of i in the rendered phase (Y letters absorb one i each)."""
        return (self.phase_exp - (self.x & self.z).bit_count()) & 3

    def __str__(self) -> str:
        letters = "".join(self.letter(q) for q in range(self.n))
        return _PHASE_STR[self.display_phase_exp] + letters

    def __repr__(self) -> str:
        return f"Pauli({str(self)!r})"

    # -- group algebra ----------------------------------------------------

    def __mul__(self, other: "Pauli") -> "Pauli":
        if self.n != other.n:
            raise DimensionError(f"{self.n}-qubit times {other.n}-qubit operator")
        # Z^z1 past X^x2 gives (-1)^(z1 & x2) per overlapping qubit.
        e = self.phase_exp + other.phase_exp + 2 * (self.z & other.x).bit_count()
        return Pauli(self.n, self.x ^ other.x, self.z ^ other.z, e & 3)

    def inverse(self) -> "Pauli":
        # (i^e X^x Z^z)^-1 = i^-e Z^z X^x = i^-e (-1)^(x&z) X^x Z^z
        e = -self.phase_exp + 2 * (self.x & self.z).bit_count()
        return Pauli(self.n, self.x, self.z, e & 3)

    def weight(self) -> int:
        """Number of qubits carrying a non-identity letter."""
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        mask = self.x | self.z
        return tuple(q for q in range(self.n) if (mask >> q) & 1)

    def is_hermitian(self) -> bool:
        return self.display_phase_exp in (0, 2)

    def negate(self) -> "Pauli":
        return Pauli(self.n, self.x, self.z, (self.phase_exp + 2) & 3)
