"""Base stabilizer codes: construction, syndromes, distance, lookup decoding.

Generator conventions are fixed here (the catalog serialises them); all
index-dependent facts downstream are derived from these conventions, not
assumed.  Qubits are 0-indexed throughout.

Both minimum-weight searches are exact numpy computations on the key
``weight << 2n | x << n | z`` (ties break on the smallest x, then z): coset
minima sort the keys of all 2^(n-1) coset elements, and the decoder table
is a shortest path over the 2^(n-1) syndromes, adding one qubit at a time.
The coset scan also takes a cost row per qubit in place of the weight,
which is how concatenated distances charge each outer letter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import gates
from ._bitlin import rank, reduce, rref
from .pauli import DimensionError, Pauli

LOGICAL_CLASSES = ("X", "Y", "Z")


class CodeConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class StabilizerCode:
    """[[n, 1, d]] stabilizer code with signed generators and logical reps."""

    name: str
    n: int
    generators: tuple[Pauli, ...]
    logical_x: Pauli
    logical_z: Pauli
    css: bool = False
    k: int = field(default=1, init=False)

    def __post_init__(self):
        if len(self.generators) != self.n - 1:
            raise CodeConstructionError(
                f"{self.name}: need {self.n - 1} generators, got {len(self.generators)}")
        for p in (*self.generators, self.logical_x, self.logical_z):
            if p.n != self.n:
                raise CodeConstructionError(f"{self.name}: operator size mismatch")
            if not p.is_hermitian():
                raise CodeConstructionError(f"{self.name}: non-Hermitian operator {p}")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes(b):
                raise CodeConstructionError(f"{self.name}: generators {a} and {b} anticommute")
        if rank([g.x << self.n | g.z for g in self.generators]) != self.n - 1:
            raise CodeConstructionError(f"{self.name}: generators not independent")
        for g in self.generators:
            if not (self.logical_x.commutes(g) and self.logical_z.commutes(g)):
                raise CodeConstructionError(f"{self.name}: logical rep anticommutes with {g}")
        if self.logical_x.commutes(self.logical_z):
            raise CodeConstructionError(f"{self.name}: logical X and Z must anticommute")
        if self.css:
            for g in self.generators:
                if g.x and g.z:
                    raise CodeConstructionError(f"{self.name}: mixed generator {g} in CSS code")

    def logical_rep(self, cls: str) -> Pauli:
        if cls == "X":
            return self.logical_x
        if cls == "Z":
            return self.logical_z
        if cls == "Y":
            # Y = i X Z at the logical level
            p = self.logical_x * self.logical_z
            return Pauli(p.n, p.x, p.z, (p.phase_exp + 1) & 3)
        raise ValueError(f"unknown logical class {cls!r}")


# -- constructions ---------------------------------------------------------

def _css_code(name: str, n: int, x_rows: list[int], z_rows: list[int],
              lx: int, lz: int) -> StabilizerCode:
    gens = [Pauli(n, row, 0, 0) for row in x_rows] + [Pauli(n, 0, row, 0) for row in z_rows]
    return StabilizerCode(name, n, tuple(gens), Pauli(n, lx, 0, 0), Pauli(n, 0, lz, 0), css=True)


def _hamming_rows() -> list[int]:
    # rows j = positions v in 1..7 whose binary digit j is set; qubit q = v - 1
    rows = []
    for j in range(3):
        mask = 0
        for v in range(1, 8):
            if (v >> j) & 1:
                mask |= 1 << (v - 1)
        rows.append(mask)
    return rows


def steane() -> StabilizerCode:
    """[[7,1,3]] CSS code on the [7,4,3] Hamming code."""
    rows = _hamming_rows()
    all7 = (1 << 7) - 1
    return _css_code("steane", 7, rows, rows, all7, all7)


def reed_muller_15() -> StabilizerCode:
    """[[15,1,3]] quantum Reed-Muller code.

    Qubit q = nonzero 4-bit label v = q + 1.  X generators are the four
    weight-8 evaluations of the coordinate functions; Z generators add the
    six weight-4 pairwise products.  This orientation (4 X-type, 10 Z-type)
    is the one with a transversal T-type gate.
    """
    def mask(predicate):
        m = 0
        for v in range(1, 16):
            if predicate(v):
                m |= 1 << (v - 1)
        return m

    x_rows = [mask(lambda v, j=j: (v >> j) & 1) for j in range(4)]
    z_rows = list(x_rows)
    for j, l in itertools.combinations(range(4), 2):
        z_rows.append(mask(lambda v: (v >> j) & 1 and (v >> l) & 1))
    all15 = (1 << 15) - 1
    return _css_code("rm15", 15, x_rows, z_rows, all15, all15)


def five_qubit() -> StabilizerCode:
    """[[5,1,3]] code with the cyclic generators XZZXI, IXZZX, XIXZZ, ZXIXZ."""
    gens = tuple(Pauli.from_string(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"))
    return StabilizerCode("five_qubit", 5, gens,
                          Pauli.from_string("XXXXX"), Pauli.from_string("ZZZZZ"))


FIVE_PRIME_TRANSFORM = (gates.gate(gates.K, 0), gates.gate(gates.Y, 2), gates.gate(gates.K, 4))


def transform_code(code: StabilizerCode, gate_list, name: str | None = None) -> StabilizerCode:
    """Conjugate a code by single-qubit Clifford gates (local-Clifford equivalence)."""
    for g in gate_list:
        if len(g.qubits) != 1:
            raise gates.UnsupportedGateError(f"{g.kind} is not a local Clifford gate")

    def conj(p: Pauli) -> Pauli:
        return gates.conjugate_through(p, gate_list)

    return StabilizerCode(
        name or code.name,
        code.n,
        tuple(conj(g) for g in code.generators),
        conj(code.logical_x),
        conj(code.logical_z),
        css=False if gate_list else code.css,
    )


def five_prime() -> StabilizerCode:
    """5-qubit code conjugated by K@0, Y@2, K@4; has a pure-Z weight-3 logical."""
    return transform_code(five_qubit(), FIVE_PRIME_TRANSFORM, name="five_prime")


# The trivial [[1,1,1]] code: a layout leaves an outer qubit bare by
# assigning it this code.
BARE = StabilizerCode("bare", 1, (), Pauli(1, 1, 0), Pauli(1, 0, 1), css=True)


# -- syndromes and cosets ---------------------------------------------------

def syndrome(code: StabilizerCode, error: Pauli) -> int:
    """Bit i set iff the error anticommutes with generator i."""
    if error.n != code.n:
        raise DimensionError(f"error on {error.n} qubits vs code on {code.n}")
    return sum(1 << i for i, g in enumerate(code.generators) if not error.commutes(g))


UNIT_COST = (0, 1, 1, 1)


@lru_cache(maxsize=None)
def _coset_order(code: StabilizerCode, cls: str,
                 costs: tuple[tuple[int, ...], ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys (cost << 2n | x << n | z) of the ``cls`` logical coset
    elements ``logical_rep(cls) * product(combo)`` and their combos.

    Qubit q's letter costs ``costs[q][x_q | z_q << 1]`` (I, X, Z, Y); the
    default unit rows make the cost the weight."""
    n = code.n
    if n > 20:
        raise CodeConstructionError(f"{code.name}: full coset enumeration refused at n={n}")
    rep = code.logical_rep(cls)
    xs, zs = np.array([rep.x], np.int64), np.array([rep.z], np.int64)
    for g in code.generators:  # doubling keeps index == combo
        xs, zs = np.concatenate([xs, xs ^ g.x]), np.concatenate([zs, zs ^ g.z])
    cost = np.zeros(len(xs), np.int64)
    for q, row in enumerate(costs or (UNIT_COST,) * n):
        cost += np.asarray(row, np.int64)[xs >> q & 1 | (zs >> q & 1) << 1]
    keys = cost << 2 * n | xs << n | zs
    order = np.argsort(keys)
    keys = keys[order]
    keys.flags.writeable = order.flags.writeable = False
    return keys, order


def coset_minimum(code: StabilizerCode, cls: str,
                  costs: tuple[tuple[int, ...], ...] | None = None) -> tuple[int, Pauli]:
    """Least key (cost << 2n | x << n | z) of the ``cls`` logical coset and
    its signed element; ``costs`` as in the coset scan."""
    keys, combos = _coset_order(code, cls, costs)
    return int(keys[0]), code.logical_rep(cls) * stabilizer_group(code).product(int(combos[0]))


def min_weight_logical(code: StabilizerCode, cls: str) -> Pauli:
    """Minimum-weight element of the logical coset.

    Ties break on lexicographically smallest (x bits, z bits), which also
    prefers pure-Z representatives among equal-weight candidates.
    """
    return coset_minimum(code, cls)[1]


def min_weight_candidates(code: StabilizerCode, cls: str) -> tuple[Pauli, ...]:
    """All minimum-weight elements of the logical coset, in key order."""
    keys, combos = _coset_order(code, cls)
    weights = keys >> 2 * code.n
    rep, group = code.logical_rep(cls), stabilizer_group(code)
    return tuple(rep * group.product(int(c)) for c in combos[weights == weights[0]])


@lru_cache(maxsize=None)
def distance(code: StabilizerCode) -> int:
    return min(min_weight_logical(code, cls).weight() for cls in LOGICAL_CLASSES)


def staircase_support(code: StabilizerCode) -> tuple[int, ...]:
    """Support of the canonical minimum-weight logical-Z representative.

    This is the set of qubits a diagonal-gate staircase couples, and hence
    the inner-encoded partition of non-uniform layouts built on this code.
    """
    return min_weight_logical(code, "Z").support


# -- decoding ---------------------------------------------------------------

@dataclass(frozen=True)
class LookupDecoder:
    """Full syndrome table of minimum-weight corrections.

    ``table[s]`` is the key ``weight << 2n | x << n | z`` of syndrome s's
    correction.  Tie-break among same-syndrome, same-weight corrections is
    the smallest (x bits, z bits) pair, so tables are reproducible.
    """

    code: StabilizerCode
    table: np.ndarray

    @cached_property
    def residual_classes(self) -> np.ndarray:
        """Logical class left after correcting an error, indexed by the
        error's syndrome s | anti_z << (n - 1) | anti_x << n, where anti_z
        and anti_x say whether it anticommutes with logical Z and logical
        X.  Class bit 0 = anticommutes with logical Z, bit 1 = with logical
        X (I = 0, X = 1, Z = 2, Y = 3).  Computed once per decoder."""
        n, mask = self.code.n, (1 << self.code.n) - 1
        cx, cz = self.table >> n & mask, self.table & mask
        correction = np.zeros(len(self.table), np.uint8)
        for bit, rep in enumerate((self.code.logical_z, self.code.logical_x)):
            correction |= (np.bitwise_count((cx & rep.z) ^ (cz & rep.x)) & 1) << bit
        # commutation parities add: class(correction * error) = XOR of the two
        out = np.concatenate([correction ^ parities for parities in range(4)])
        out.flags.writeable = False
        return out


@lru_cache(maxsize=None)
def build_decoder(code: StabilizerCode) -> LookupDecoder:
    n = code.n
    n_syndromes = 1 << (n - 1)
    if n_syndromes > 1 << 14:
        raise CodeConstructionError(f"{code.name}: decoder table would exceed 2^14 entries")
    # best[s] = least key (weight << 2n | x << n | z) of a correction with
    # syndrome s on the qubits seen so far.  Keys add without carries (each
    # qubit owns its x and z bits, the weight sits above bit 2n), so adding
    # qubit q's letters keeps the (weight, x, z) order exact.
    best = np.full(n_syndromes, 1 << 62, np.int64)  # 1 << 62 = not reached yet
    best[0] = 0
    index = np.arange(n_syndromes)
    for q in range(n):
        step = best
        for letter in "XYZ":
            p = Pauli.single(n, q, letter)
            step = np.minimum(step, best[index ^ syndrome(code, p)] + (1 << 2 * n | p.x << n | p.z))
        best = step
    best.flags.writeable = False
    return LookupDecoder(code, best)


def normalizer_class(code: StabilizerCode, p: Pauli) -> str:
    """Logical class of a normalizer element by commutation with the reps."""
    anti_z = not p.commutes(code.logical_z)  # X-like component flips Z
    anti_x = not p.commutes(code.logical_x)
    return {(False, False): "I", (True, False): "X",
            (True, True): "Y", (False, True): "Z"}[(anti_z, anti_x)]


class StabilizerGroup:
    """Group generated by independent commuting signed Paulis on ``n`` qubits.

    Membership is exact including the sign: ``p in group`` holds only when
    ``p`` equals a product of generators.  The symplectic rows are reduced
    with one low tag bit per generator, so reducing ``p`` to no symplectic
    bits leaves the combination of generators in the tag bits.
    """

    def __init__(self, generators, n: int):
        self.generators = tuple(generators)
        self.n = n
        k = len(self.generators)
        self._reduced = rref([(g.x << n | g.z) << k | 1 << i for i, g in enumerate(self.generators)])

    def product(self, combo: int) -> Pauli:
        """Product of the generators whose bits are set in ``combo``, in index order."""
        out = Pauli.identity(self.n)
        for i, g in enumerate(self.generators):
            if (combo >> i) & 1:
                out = out * g
        return out

    def __contains__(self, p: Pauli) -> bool:
        k = len(self.generators)
        combo = reduce(self._reduced, (p.x << self.n | p.z) << k)
        return combo >> k == 0 and self.product(combo) == p


@lru_cache(maxsize=None)
def stabilizer_group(code: StabilizerCode) -> StabilizerGroup:
    return StabilizerGroup(code.generators, code.n)
