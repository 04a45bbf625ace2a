"""Gate vocabulary, exact Clifford conjugation, and dense gate matrices.

Angles of diagonal gates are exact rational multiples of pi, stored as
``Fraction`` values of theta/pi normalised into [0, 2).  The named
diagonal kinds are aliases: ``T = Z_THETA(pi/4)``, ``S = Z_THETA(pi/2)``,
``CZ = CKZ_THETA(1, pi)``, ``CCZ = CKZ_THETA(2, pi)``; the identities are
asserted against dense matrices by :func:`self_check`.

``K = S @ H`` (H applied first) so that ``H = S_dagger K`` holds; its
conjugation action cycles X -> Z -> Y -> X.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .pauli import Pauli

H = "H"
S = "S"
S_DAG = "S_DAG"
T = "T"
T_DAG = "T_DAG"
K = "K"
K_DAG = "K_DAG"
X = "X"
Y = "Y"
Z = "Z"
Z_THETA = "Z_THETA"
CNOT = "CNOT"
CZ = "CZ"
CCZ = "CCZ"
CKZ_THETA = "CKZ_THETA"

ARITY = {
    H: 1, S: 1, S_DAG: 1, T: 1, T_DAG: 1, K: 1, K_DAG: 1,
    X: 1, Y: 1, Z: 1,
    CNOT: 2, CZ: 2, CCZ: 3,
}

CLIFFORD_KINDS = frozenset({H, S, S_DAG, K, K_DAG, X, Y, Z, CNOT, CZ})

# theta/pi for the named diagonal kinds
_NAMED_THETA = {
    T: Fraction(1, 4), S: Fraction(1, 2), Z: Fraction(1),
    T_DAG: Fraction(7, 4), S_DAG: Fraction(3, 2),
    CZ: Fraction(1), CCZ: Fraction(1),
}
DIAGONAL_KINDS = frozenset(_NAMED_THETA) | {Z_THETA, CKZ_THETA}

_DAGGER = {
    H: H, X: X, Y: Y, Z: Z, CNOT: CNOT, CZ: CZ, CCZ: CCZ,
    S: S_DAG, S_DAG: S, T: T_DAG, T_DAG: T, K: K_DAG, K_DAG: K,
}


class UnsupportedGateError(ValueError):
    """Raised when an operation does not apply to the given gate kind."""


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    theta_over_pi: Fraction | None = None

    def __post_init__(self):
        if self.kind in ARITY:
            if len(self.qubits) != ARITY[self.kind]:
                raise ValueError(f"{self.kind} takes {ARITY[self.kind]} qubits, got {self.qubits}")
            if self.theta_over_pi is not None:
                raise ValueError(f"{self.kind} carries no free angle")
        elif self.kind == Z_THETA:
            if len(self.qubits) != 1 or self.theta_over_pi is None:
                raise ValueError("Z_THETA takes one qubit and an angle")
        elif self.kind == CKZ_THETA:
            if len(self.qubits) < 2 or self.theta_over_pi is None:
                raise ValueError("CKZ_THETA takes >= 2 qubits and an angle")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.kind} {self.qubits}")

    @property
    def is_clifford(self) -> bool:
        return self.kind in CLIFFORD_KINDS

    @property
    def is_diagonal(self) -> bool:
        return self.kind in DIAGONAL_KINDS

    @property
    def is_permutation(self) -> bool:
        """True for gates acting as a bit permutation on basis states (X, CNOT)."""
        return self.kind in (X, CNOT)

    def theta(self) -> Fraction:
        """theta/pi of a diagonal gate, normalised into [0, 2)."""
        if self.kind in _NAMED_THETA:
            return _NAMED_THETA[self.kind]
        if self.kind in (Z_THETA, CKZ_THETA):
            return self.theta_over_pi % 2
        raise UnsupportedGateError(f"{self.kind} is not diagonal")

    def dagger(self) -> "Gate":
        if self.kind in _DAGGER:
            return Gate(_DAGGER[self.kind], self.qubits)
        return Gate(self.kind, self.qubits, (-self.theta_over_pi) % 2)

    def __str__(self) -> str:
        parts = [self.kind] + [str(q) for q in self.qubits]
        if self.theta_over_pi is not None:
            parts.append("theta=" + format_theta(self.theta_over_pi))
        return " ".join(parts)


def gate(kind: str, *qubits: int, theta: Fraction | None = None) -> Gate:
    return Gate(kind, tuple(qubits), theta)


def diagonal_gate(qubits: tuple[int, ...], theta_over_pi: Fraction) -> Gate:
    """C^kZ(theta) on k+1 qubits, folded onto a named kind when one exists."""
    t = Fraction(theta_over_pi) % 2
    if len(qubits) == 1:
        named = {v: k for k, v in _NAMED_THETA.items() if ARITY.get(k) == 1}
        if t in named:
            return Gate(named[t], qubits)
        return Gate(Z_THETA, qubits, t)
    if t == 1 and len(qubits) == 2:
        return Gate(CZ, qubits)
    if t == 1 and len(qubits) == 3:
        return Gate(CCZ, qubits)
    return Gate(CKZ_THETA, qubits, t)


# -- exact angle notation ------------------------------------------------

_THETA_RE = re.compile(r"^(-?)(\d+)?pi(?:/(\d+))?$")


def format_theta(t: Fraction) -> str:
    t = Fraction(t)
    if t == 0:
        return "0"
    num, den = t.numerator, t.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    head = "pi" if num == 1 else f"{num}pi"
    tail = "" if den == 1 else f"/{den}"
    return sign + head + tail


def parse_theta(text: str) -> Fraction:
    """Parse an exact multiple of pi: ``pi/4``, ``-pi``, ``3pi/2``, ``0``."""
    text = text.strip()
    if text == "0":
        return Fraction(0)
    m = _THETA_RE.match(text)
    if not m:
        raise ValueError(f"bad angle {text!r}; expected e.g. pi/4, 3pi/2, -pi, 0")
    sign, num, den = m.groups()
    if den == "0":
        raise ValueError(f"bad angle {text!r}: zero denominator")
    value = Fraction(int(num or 1), int(den or 1))
    return -value if sign else value


# -- Heisenberg conjugation ----------------------------------------------
#
# Images of the single-qubit generators X_i / Z_i under g P g^dagger, as
# exact Paulis on the gate's own qubits.  Everything else follows from
# multiplicativity of conjugation in the X-then-Z normal form.

_GENERATOR_IMAGES = {
    H: {"X": "+Z", "Z": "+X"},
    S: {"X": "+Y", "Z": "+Z"},
    S_DAG: {"X": "-Y", "Z": "+Z"},
    K: {"X": "+Z", "Z": "+Y"},
    K_DAG: {"X": "+Y", "Z": "+X"},
    X: {"X": "+X", "Z": "-Z"},
    Y: {"X": "-X", "Z": "-Z"},
    Z: {"X": "-X", "Z": "+Z"},
    CNOT: {"XI": "+XX", "IX": "+IX", "ZI": "+ZI", "IZ": "+ZZ"},
    CZ: {"XI": "+XZ", "IX": "+ZX", "ZI": "+ZI", "IZ": "+IZ"},
}


@lru_cache(maxsize=None)
def _local_table(kind: str) -> dict[tuple[int, int], Pauli]:
    """Conjugation of every local Pauli (as (x, z) bit pair) by the gate."""
    arity = ARITY[kind]
    images = _GENERATOR_IMAGES[kind]
    img_x = []
    img_z = []
    for q in range(arity):
        x_str = "".join("X" if i == q else "I" for i in range(arity))
        z_str = "".join("Z" if i == q else "I" for i in range(arity))
        img_x.append(Pauli.from_string(images[x_str]))
        img_z.append(Pauli.from_string(images[z_str]))
    table = {}
    for x in range(1 << arity):
        for z in range(1 << arity):
            # local operator X^x Z^z in per-qubit X-then-Z order
            out = Pauli.identity(arity)
            for q in range(arity):
                if (x >> q) & 1:
                    out = out * img_x[q]
                if (z >> q) & 1:
                    out = out * img_z[q]
            table[(x, z)] = out
    return table


def conjugate_by_gate(p: Pauli, g: Gate) -> Pauli:
    """Return ``g p g^dagger`` with exact phase; Clifford gates only."""
    if not g.is_clifford:
        raise UnsupportedGateError(f"{g.kind} is not Clifford; cannot conjugate exactly")
    for q in g.qubits:
        if not 0 <= q < p.n:
            raise UnsupportedGateError(f"gate qubit {q} outside register of {p.n}")
    local_x = local_z = 0
    for i, q in enumerate(g.qubits):
        local_x |= ((p.x >> q) & 1) << i
        local_z |= ((p.z >> q) & 1) << i
    if local_x == 0 and local_z == 0:
        return p
    image = _local_table(g.kind)[(local_x, local_z)]
    clear_x = p.x
    clear_z = p.z
    for q in g.qubits:
        clear_x &= ~(1 << q)
        clear_z &= ~(1 << q)
    # p = i^e * (rest) * (local); conjugation replaces the local factor
    rest = Pauli(p.n, clear_x, clear_z, p.phase_exp)
    return rest * image.embed(p.n, g.qubits)


def conjugate_through(p: Pauli, gates) -> Pauli:
    for g in gates:
        p = conjugate_by_gate(p, g)
    return p


# -- dense matrices --------------------------------------------------------

_M1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_M1[H] = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_M1[S] = np.diag([1, 1j]).astype(complex)
_M1[S_DAG] = _M1[S].conj().T
_M1[T] = np.diag([1, np.exp(1j * np.pi / 4)])
_M1[T_DAG] = _M1[T].conj().T
_M1[K] = _M1[S] @ _M1[H]
_M1[K_DAG] = _M1[K].conj().T


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense unitary on the gate's own qubits (qubit order = g.qubits)."""
    if g.kind in _M1:
        return _M1[g.kind]
    if g.kind == Z_THETA:
        return np.diag([1, np.exp(1j * np.pi * float(g.theta()))])
    m = len(g.qubits)
    diag = np.ones(1 << m, dtype=complex)
    if g.kind in (CZ, CCZ, CKZ_THETA):
        diag[-1] = np.exp(1j * np.pi * float(g.theta()))
        return np.diag(diag)
    if g.kind == CNOT:
        u = np.zeros((4, 4), dtype=complex)
        # basis index bit 0 = first listed qubit (control)
        u[0, 0] = u[2, 2] = 1  # control 0
        u[3, 1] = u[1, 3] = 1  # control 1 flips target
        return u
    raise UnsupportedGateError(f"no dense matrix for {g.kind}")


def pauli_matrix(p: Pauli) -> np.ndarray:
    """Dense matrix of a Pauli, basis index bit q = qubit q."""
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        m = np.kron(_M1[p.letter(q)], m)
    return 1j ** p.display_phase_exp * m


_checked = False


def self_check() -> None:
    """One-time consistency check of the symbolic tables vs dense matrices.

    Verifies Y = i X Z, K = S H, the named-diagonal angle aliases, and
    that conjugation of every local Pauli by every Clifford kind matches
    dense-matrix conjugation exactly.
    """
    global _checked
    if _checked:
        return
    assert np.allclose(_M1["Y"], 1j * _M1["X"] @ _M1["Z"])
    assert np.allclose(_M1[K], _M1[S] @ _M1[H])
    assert np.allclose(_M1[H], _M1[S_DAG] @ _M1[K])
    for kind, frac in _NAMED_THETA.items():
        if ARITY[kind] == 1:
            ref = np.diag([1, np.exp(1j * np.pi * float(frac))])
            assert np.allclose(_M1[kind], ref), kind
    for kind in CLIFFORD_KINDS:
        arity = ARITY[kind]
        g = Gate(kind, tuple(range(arity)))
        u = gate_matrix(g)
        for x in range(1 << arity):
            for z in range(1 << arity):
                p = Pauli(arity, x, z, 0)
                got = conjugate_by_gate(p, g)
                ref = u @ pauli_matrix(p) @ u.conj().T
                assert np.allclose(pauli_matrix(got), ref), (kind, str(p))
    _checked = True
