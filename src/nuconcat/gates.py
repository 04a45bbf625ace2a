"""Gate vocabulary, exact Clifford conjugation of packed Pauli rows, and
dense gate matrices.

Angles of diagonal gates are exact rational multiples of pi, stored as
``Fraction`` values of theta/pi normalised into [0, 2).  The named
diagonal kinds are aliases: ``T = Z_THETA(pi/4)``, ``S = Z_THETA(pi/2)``,
``CZ = CKZ_THETA(1, pi)``, ``CCZ = CKZ_THETA(2, pi)``.  The tests check
these identities, and every conjugation rule, against the dense matrices.

``K = S @ H`` (H applied first) so that ``H = S_dagger K`` holds; its
conjugation action cycles X -> Z -> Y -> X.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .pauli import DimensionError, Pauli

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

# (arity, theta/pi) -> the named diagonal kind with that angle
_NAMED_DIAGONAL = {
    (1, Fraction(1, 4)): T, (1, Fraction(1, 2)): S, (1, Fraction(1)): Z,
    (1, Fraction(7, 4)): T_DAG, (1, Fraction(3, 2)): S_DAG,
    (2, Fraction(1)): CZ, (3, Fraction(1)): CCZ,
}
_NAMED_THETA = {kind: theta for (_, theta), kind in _NAMED_DIAGONAL.items()}
DIAGONAL_KINDS = frozenset(_NAMED_THETA) | {Z_THETA, CKZ_THETA}


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
        if self.kind in (Z_THETA, CKZ_THETA):
            return Gate(self.kind, self.qubits, (-self.theta_over_pi) % 2)
        if self.kind in _NAMED_THETA:
            return diagonal_gate(self.qubits, -self.theta())
        return Gate({K: K_DAG, K_DAG: K}.get(self.kind, self.kind), self.qubits)

    def __str__(self) -> str:
        parts = [self.kind] + [str(q) for q in self.qubits]
        if self.theta_over_pi is not None:
            parts.append("theta=" + format_theta(self.theta_over_pi))
        return " ".join(parts)


def gate(kind: str, *qubits: int) -> Gate:
    return Gate(kind, tuple(qubits))


def diagonal_gate(qubits: tuple[int, ...], theta_over_pi: Fraction) -> Gate:
    """C^kZ(theta) on k+1 qubits, folded onto a named kind when one exists."""
    t = Fraction(theta_over_pi) % 2
    named = _NAMED_DIAGONAL.get((len(qubits), t))
    if named is not None:
        return Gate(named, qubits)
    return Gate(Z_THETA if len(qubits) == 1 else CKZ_THETA, qubits, t)


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


def parse_index(token: str, source: str, line: str, expected: str) -> int:
    """A non-negative decimal integer token of one line of a ``source``
    file (catalog, circuit); anything else is a ValueError naming the line."""
    if not re.fullmatch(r"[0-9]+", token):
        raise ValueError(f"bad {source} line {line!r}: expected {expected}")
    return int(token)


# -- Clifford conjugation ------------------------------------------------
#
# Images of the generators X_0 .. X_{k-1}, then Z_0 .. Z_{k-1}, of a gate's
# own qubits under g P g^dagger, as exact Paulis.  Conjugation is
# multiplicative, so each kind's rule follows from them: a GF(2) update of
# the gate's 2k local bits and the sign flip of a Hermitian row, as in the
# signed tableau of Aaronson and Gottesman (quant-ph/0406196).  Rows are
# word-major: bit q of a row is bit q & 63 of word q >> 6 of its column.
# A layer, gates of one kind on disjoint qubits, takes the rule at once, as
# a moment of Stim's frame (arXiv:2103.02202): a local bit is a mask, moved
# by one shift per distinct offset, and the sign flip is the parity of the
# masked monomials of its algebraic normal form.

_GENERATOR_IMAGES = {
    H: ("+Z", "+X"),
    S: ("+Y", "+Z"),
    S_DAG: ("-Y", "+Z"),
    K: ("+Z", "+Y"),
    K_DAG: ("+Y", "+X"),
    X: ("+X", "-Z"),
    Y: ("-X", "-Z"),
    Z: ("-X", "+Z"),
    CNOT: ("+XX", "+IX", "+ZI", "+ZZ"),
    CZ: ("+XZ", "+ZX", "+ZI", "+IZ"),
}


def pack(masks: Iterable[int], n_words: int) -> np.ndarray:
    """Int bit-masks as the columns of ``n_words`` little-endian uint64
    words, a new writable (words, masks) array."""
    data = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    return np.array(np.frombuffer(data, "<u8").reshape(-1, n_words).T, np.uint64, order="C")


def unpack(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def parities(rows: list[int], cols: list[int]) -> np.ndarray:
    """The GF(2) inner products of int bit-masks, popcount(r & c) mod 2 for
    each r in ``rows`` and c in ``cols``, as a 0/1 uint8 rows x cols array."""
    words = pack(rows + cols, max(m.bit_length() for m in rows + cols) // 64 + 1)
    both = np.bitwise_count(words[:, :len(rows), None] & words[:, None, len(rows):])
    return np.bitwise_xor.reduce(both, axis=0) & 1


def layers(gate_seq: Iterable[Gate]) -> tuple[tuple[Gate, ...], ...]:
    """Maximal runs of consecutive gates of one kind on disjoint qubits."""
    out: list[tuple[Gate, ...]] = []
    for g in gate_seq:
        if out and g.kind == out[-1][0].kind and used.isdisjoint(g.qubits):
            out[-1] += (g,)
        else:
            out.append((g,))
            used: set[int] = set()
        used.update(g.qubits)
    return tuple(out)


def slots(layer: Iterable[Gate]) -> dict[tuple[tuple[int, ...], Fraction | None], list[int]]:
    """A layer's gates by the offsets of their qubits from their first and by
    free angle, a group as one mask per slot, i holding each gate's i-th qubit."""
    groups: dict[tuple[tuple[int, ...], Fraction | None], list[tuple[int, ...]]] = {}
    for g in layer:
        qs = g.qubits
        key = tuple([q - qs[0] for q in qs]) if len(qs) > 1 else (0,), g.theta_over_pi
        groups.setdefault(key, []).append(qs)
    return {key: [sum([1 << q for q in col]) for col in zip(*qss)] for key, qss in groups.items()}


@lru_cache(maxsize=None)
def _rule(kind: str) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """A Clifford kind on its local bits u (x of its k qubits, then z): its
    GF(2) update as (bit j, an old bit added to it), and the monomials of
    the algebraic normal form of the sign flip of u's Hermitian Pauli."""
    k = ARITY[kind]
    images = [Pauli.from_string(text) for text in _GENERATOR_IMAGES[kind]]
    # per u, whether the image of its Hermitian Pauli i^(x.z) X^x Z^z is negated
    signs = [reduce(Pauli.__mul__, (images[i] for i in range(2 * k) if u >> i & 1),
                    Pauli(k, 0, 0, (u & u >> k).bit_count())).display_phase_exp >> 1
             for u in range(1 << 2 * k)]
    flips = [1 << i ^ (im.x | im.z << k) for i, im in enumerate(images)]
    # monomial m's coefficient is the XOR of the signs of the u inside m
    return (tuple((j, i) for j in range(2 * k) for i in range(2 * k) if flips[i] >> j & 1),
            tuple(tuple(i for i in range(2 * k) if m >> i & 1) for m in range(1 << 2 * k)
                  if sum(signs[u] for u in range(m + 1) if not u & ~m) & 1))


def _moved(plane: np.ndarray, mask: int, d: int) -> dict[int, np.ndarray]:
    """The bits of ``mask`` of every row of a word-major plane moved from
    qubit q to q + d, as {word: that word of every row} where they land."""
    a, b = divmod(d, 64)
    out: dict[int, np.ndarray] = {}
    for w in range(len(plane)):
        if m := mask >> 64 * w & (1 << 64) - 1:
            part = plane[w] & np.uint64(m)
            pieces = [(w + a + 1, part >> np.uint64(64 - b))] if b and m >> 64 - b else []
            if m & (1 << 64 - b) - 1:
                pieces.append((w + a, part << np.uint64(b) if b else part))
            for t, piece in pieces:
                out[t] = out[t] ^ piece if t in out else piece
    return out


def conjugate_rows(x: np.ndarray, z: np.ndarray, layer: Sequence[Gate],
                   sign: np.ndarray | None = None) -> None:
    """Conjugate every row of word-major uint64 x and z planes, (words,
    rows), by a layer of Clifford gates of one kind on disjoint qubits, in
    place.  ``sign``, one bool per row (set when the row is minus its
    Hermitian Pauli), flips with them if given."""
    kind, planes = layer[0].kind, (x, z)
    if kind not in CLIFFORD_KINDS:
        raise UnsupportedGateError(f"{kind} is not Clifford; cannot conjugate exactly")
    (moves, monomials), k = _rule(kind), ARITY[kind]
    gains, flips = [], 0   # read before any row changes; the sign flips by the parity of flips
    for (offsets, _), masks in slots(layer).items():
        for mono in monomials if sign is not None else ():
            aligned = [_moved(planes[i // k], masks[i % k], -offsets[i % k]) for i in mono]
            for w in set(aligned[0]).intersection(*aligned[1:]):
                flips ^= reduce(np.bitwise_and, (al[w] for al in aligned))
        gains += [(j, w, piece) for j, i in moves for w, piece in
                  _moved(planes[i // k], masks[i % k], offsets[j % k] - offsets[i % k]).items()]
    if sign is not None:
        sign ^= np.bitwise_count(flips) & 1 == 1
    for j, w, piece in gains:
        plane = planes[j // k][w]
        plane ^= piece


def conjugate_masks(n: int, xs: Sequence[int], zs: Sequence[int], signs: Sequence[int],
                    gate_seq: Sequence[Gate]) -> tuple[list[int], list[int], list[bool]]:
    """The int-level entry to the signed tableau: row r, the Hermitian Pauli of
    the masks ``xs[r]`` and ``zs[r]`` on an ``n``-qubit register, negated when
    ``signs[r]`` is set, through the Clifford circuit applying ``gate_seq`` in
    order, all rows in one walk of its layers.  Returns the images' masks and signs."""
    if outside := [g for g in gate_seq if not 0 <= min(g.qubits) <= max(g.qubits) < n]:
        raise UnsupportedGateError(f"gate {outside[0]} outside register of {n}")
    step = 8 * ((n + 63) // 64)
    x, z, sign = pack(xs, step // 8), pack(zs, step // 8), np.array(signs, bool)
    for layer in layers(gate_seq):
        conjugate_rows(x, z, layer, sign)
    xs, zs = ([int.from_bytes(b[i:i + step], "little") for i in range(0, len(b), step)]
              for b in (plane.T.astype("<u8").tobytes() for plane in (x, z)))   # row by row
    return xs, zs, sign.tolist()


def conjugate_through(paulis: Sequence[Pauli], gates) -> list[Pauli]:
    """``U p U^dagger`` with exact phase for every ``p`` of ``paulis``, U the
    Clifford circuit applying ``gates`` in order: the Paulis, all on one
    register, are the rows of one :func:`conjugate_masks` walk; a row's sign
    is its displayed -1, and a displayed i rides along unchanged."""
    sizes = {p.n for p in paulis}
    if len(sizes) != 1:
        raise DimensionError(f"one register expected, got Paulis on {sorted(sizes)} qubits")
    (n,) = sizes
    xs, zs, signs = conjugate_masks(n, [p.x for p in paulis], [p.z for p in paulis],
                                    [p.display_phase_exp >> 1 for p in paulis], gates)
    return [Pauli(n, x, z, (x & z).bit_count() + 2 * s + (p.display_phase_exp & 1))
            for p, x, z, s in zip(paulis, xs, zs, signs)]


# -- dense matrices --------------------------------------------------------

_M1 = {
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
}
_M1[Y] = 1j * _M1[X] @ _M1[Z]
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
