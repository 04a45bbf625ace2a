"""Stabilizer codes: construction, commutation, distance, lookup decoding, code space.

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
from ._bitlin import reduce, rref
from .pauli import DimensionError, Pauli

LOGICAL_CLASSES = ("X", "Y", "Z")


class CodeConstructionError(ValueError):
    pass


def anticommutation(ops, xs, zs) -> np.ndarray:
    """Row i, column j: whether X^xs[i] Z^zs[i] anticommutes with ``ops[j]`` (one
    register), as 0/1 uint8: one ``gates.parities`` of symplectic rows against the
    operators' swapped rows.  Against a code's ``checks`` a row is an error's
    syndrome bits, then its logical class as two bits, indexed as ``LETTERS``."""
    n = ops[0].n
    return gates.parities([x << n | z for x, z in zip(xs, zs)], [p.z << n | p.x for p in ops])


class StabilizerGroup:
    """A code's signed stabilizer group, read off one elimination of its
    generators with logical Z last.

    Row i is operator i's symplectic row x << n | z above k + 1 tag bits,
    with tag bit i set: bits 0 .. k - 1 for the k generators, bit k for
    logical Z.  Reducing a Pauli to no symplectic bits leaves in the tag
    bits the combination c of operators that is it up to sign, and it lies
    in the group when c lacks bit k.  Membership is exact including the
    sign: ``p in group`` holds only when ``p`` equals a product of
    generators.  A product in index order has the phase form
    sum_{i in c} e_i + 2 |c & u_i|, with u_i the j > i where z_i & x_j is
    odd (quant-ph/0406196), read off one ``gates.parities`` Gram matrix
    built on first use.
    """

    def __init__(self, generators: tuple[Pauli, ...], logical_z: Pauli):
        self.ops, self.n, self.k = (*generators, logical_z), logical_z.n, len(generators)
        self.reduced = rref([(p.x << self.n | p.z) << self.k + 1 | 1 << i
                             for i, p in enumerate(self.ops)])

    @cached_property
    def _form(self) -> list[tuple[int, int]]:
        # u_i: row i, right of the diagonal, of the Gram matrix of z parts against x parts
        upper = np.triu(gates.parities([p.z for p in self.ops], [p.x for p in self.ops]), 1)
        return [(p.phase_exp, int.from_bytes(np.packbits(row, bitorder="little"), "little"))
                for p, row in zip(self.ops, upper)]

    def phase(self, x: int, z: int) -> int | None:
        """Phase exponent e of the element i^e X^x Z^z, or None off the group."""
        if not x | z:
            return 0
        combo = reduce(self.reduced, (x << self.n | z) << self.k + 1)
        return None if combo >> self.k else self._combo_phase(combo)

    def _combo_phase(self, combo: int) -> int:
        """Phase exponent of the product of the operators in ``combo``, read off the form."""
        return sum(e + 2 * (combo & upper).bit_count()
                   for i, (e, upper) in enumerate(self._form) if combo >> i & 1) & 3

    def __contains__(self, p: Pauli) -> bool:
        if p.n != self.n:
            raise DimensionError(f"{p.n}-qubit operator vs a group on {self.n} qubits")
        return self.phase(p.x, p.z) == p.phase_exp


@dataclass(frozen=True)
class StabilizerCode:
    """[[n, 1, d]] stabilizer code with signed generators and logical reps; n is their size."""

    name: str
    n: int = field(init=False)
    generators: tuple[Pauli, ...]
    logical_x: Pauli
    logical_z: Pauli
    k: int = field(default=1, init=False)
    group: StabilizerGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.logical_x.n)
        ops, k = (*self.generators, self.logical_x, self.logical_z), len(self.generators)
        for i, p in enumerate(ops):
            if p.n != self.n:
                role = "stabilizer" if i < k else "logical Z"
                raise CodeConstructionError(
                    f"{self.name}: {role} {p} acts on {p.n} qubits, logical X on {self.n}")
            if not p.is_hermitian():
                raise CodeConstructionError(f"{self.name}: non-Hermitian operator {p}")
        if k != self.n - 1:
            raise CodeConstructionError(f"{self.name}: need {self.n - 1} generators, got {k}")
        anti = anticommutation(ops, [p.x for p in ops], [p.z for p in ops])
        if (pairs := np.argwhere(np.triu(anti[:k, :k]))).size:  # the diagonal is 0
            a, b = pairs[0]
            raise CodeConstructionError(f"{self.name}: generators {ops[a]} and {ops[b]} anticommute")
        # a reduced row below tag bit k is a product of generators alone that is the identity
        group = StabilizerGroup(self.generators, self.logical_z)
        if min(group.reduced) < 1 << k:
            raise CodeConstructionError(f"{self.name}: generators not independent")
        object.__setattr__(self, "group", group)
        if (bad := np.flatnonzero(anti[k:, :k].any(0))).size:
            raise CodeConstructionError(f"{self.name}: logical rep anticommutes with {ops[bad[0]]}")
        if not anti[k, k + 1]:
            raise CodeConstructionError(f"{self.name}: logical X and Z must anticommute")

    @property
    def checks(self) -> tuple[Pauli, ...]:  # the order of a block word's bits (``LookupDecoder``)
        return (*self.generators, self.logical_z, self.logical_x)

    @cached_property
    def css(self) -> bool:
        """Every generator X-type or Z-type, logical X X-type and logical Z Z-type."""
        return not (self.logical_x.z or self.logical_z.x
                    or any(g.x and g.z for g in self.generators))

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
    return StabilizerCode(name, tuple(gens), Pauli(n, lx, 0, 0), Pauli(n, 0, lz, 0))


def _coordinate_rows(m: int) -> list[int]:
    """Row j: the qubits q whose label v = q + 1, in 1 .. 2^m - 1, has
    binary digit j set, as a bit-mask."""
    return [sum(1 << v - 1 for v in range(1, 1 << m) if v >> j & 1) for j in range(m)]


def steane() -> StabilizerCode:
    """[[7,1,3]] CSS code on the [7,4,3] Hamming code."""
    rows = _coordinate_rows(3)
    all7 = (1 << 7) - 1
    return _css_code("steane", 7, rows, rows, all7, all7)


def reed_muller_15() -> StabilizerCode:
    """[[15,1,3]] quantum Reed-Muller code.

    Qubit q = nonzero 4-bit label v = q + 1.  X generators are the four
    weight-8 evaluations of the coordinate functions; Z generators add the
    six weight-4 pairwise products.  This orientation (4 X-type, 10 Z-type)
    is the one with a transversal T-type gate.
    """
    x_rows = _coordinate_rows(4)
    z_rows = x_rows + [a & b for a, b in itertools.combinations(x_rows, 2)]
    all15 = (1 << 15) - 1
    return _css_code("rm15", 15, x_rows, z_rows, all15, all15)


def five_qubit() -> StabilizerCode:
    """[[5,1,3]] code with the cyclic generators XZZXI, IXZZX, XIXZZ, ZXIXZ."""
    gens = tuple(Pauli.from_string(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"))
    return StabilizerCode("five_qubit", gens,
                          Pauli.from_string("XXXXX"), Pauli.from_string("ZZZZZ"))


FIVE_PRIME_TRANSFORM = (gates.gate(gates.K, 0), gates.gate(gates.Y, 2), gates.gate(gates.K, 4))


def transform_code(code: StabilizerCode, gate_list, name: str | None = None) -> StabilizerCode:
    """Conjugate a code by single-qubit Clifford gates (local-Clifford equivalence)."""
    for g in gate_list:
        if len(g.qubits) != 1:
            raise gates.UnsupportedGateError(f"{g.kind} is not a local Clifford gate")

    *generators, logical_x, logical_z = gates.conjugate_through(
        [*code.generators, code.logical_x, code.logical_z], gate_list)
    return StabilizerCode(name or code.name, tuple(generators), logical_x, logical_z)


def five_prime() -> StabilizerCode:
    """5-qubit code conjugated by K@0, Y@2, K@4; has a pure-Z weight-3 logical."""
    return transform_code(five_qubit(), FIVE_PRIME_TRANSFORM, name="five_prime")


# The trivial [[1,1,1]] code: a layout leaves an outer qubit bare by
# assigning it this code.
BARE = StabilizerCode("bare", (), Pauli(1, 1, 0), Pauli(1, 0, 1))


# -- cosets ----------------------------------------------------------------

def signed_products(first: Pauli, factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The elements i^e X^x Z^z that are ``first`` times a product of ``factors`` in index
    order, as x, z (int64) and e (uint8): those without a factor, then with it on the right."""
    xs, zs = np.array([first.x], np.int64), np.array([first.z], np.int64)
    es = np.array([first.phase_exp], np.uint8)
    for f in factors:
        es = np.concatenate([es, (es + f.phase_exp + 2 * np.bitwise_count(zs & f.x)) & 3])
        xs, zs = np.concatenate([xs, xs ^ f.x]), np.concatenate([zs, zs ^ f.z])
    return xs, zs, es


UNIT_COST = (0, 1, 1, 1)


@lru_cache(maxsize=None)
def _coset_order(code: StabilizerCode, cls: str,
                 costs: tuple[tuple[int, ...], ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys (cost << 2n | x << n | z) of the ``cls`` logical coset
    elements i^e X^x Z^z, ``signed_products`` of ``logical_rep(cls)`` and the
    generators, and the e as uint8.

    Qubit q's letter costs ``costs[q][x_q | z_q << 1]``, indexed as
    ``LETTERS``; the default unit rows make the cost the weight."""
    n = code.n
    if n > 20:
        raise CodeConstructionError(f"{code.name}: full coset enumeration refused at n={n}")
    xs, zs, es = signed_products(code.logical_rep(cls), code.generators)
    cost = np.zeros(len(xs), np.int64)
    for q, row in enumerate(costs or (UNIT_COST,) * n):
        cost += np.asarray(row, np.int64)[xs >> q & 1 | (zs >> q & 1) << 1]
    keys = cost << 2 * n | xs << n | zs
    order = np.argsort(keys)
    keys, es = keys[order], es[order]
    keys.flags.writeable = es.flags.writeable = False
    return keys, es


def _scanned(code: StabilizerCode, key: int, e: int) -> Pauli:
    """The signed element i^e X^x Z^z of a coset scan key."""
    return Pauli(code.n, key >> code.n & (1 << code.n) - 1, key & (1 << code.n) - 1, e)


def coset_minimum(code: StabilizerCode, cls: str,
                  costs: tuple[tuple[int, ...], ...] | None = None) -> tuple[int, Pauli]:
    """Least key (cost << 2n | x << n | z) of the ``cls`` logical coset and
    its signed element; ``costs`` as in the coset scan."""
    keys, es = _coset_order(code, cls, costs)
    return int(keys[0]), _scanned(code, int(keys[0]), int(es[0]))


def min_weight_logical(code: StabilizerCode, cls: str) -> Pauli:
    """Minimum-weight element of the logical coset.

    Ties break on lexicographically smallest (x bits, z bits), which also
    prefers pure-Z representatives among equal-weight candidates.
    """
    return coset_minimum(code, cls)[1]


def min_weight_candidates(code: StabilizerCode, cls: str) -> tuple[Pauli, ...]:
    """All minimum-weight elements of the logical coset, in key order."""
    keys, es = _coset_order(code, cls)
    least = keys >> 2 * code.n == keys[0] >> 2 * code.n
    return tuple(_scanned(code, key, e) for key, e in zip(keys[least].tolist(), es[least].tolist()))


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
    """Full syndrome table of minimum-weight corrections, and the one
    reader of the block-word format (``words``).

    ``table[s]`` is the key ``weight << 2n | x << n | z`` of syndrome s's
    correction.  Tie-break among same-syndrome, same-weight corrections is
    the smallest (x bits, z bits) pair, so tables are reproducible.
    """

    code: StabilizerCode
    table: np.ndarray
    _planes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """The block word of an error is its syndrome s | anti_z << (n - 1) |
        anti_x << n, where anti_z and anti_x say whether it anticommutes with
        logical Z and logical X (at most 15 qubits, so 16 bits).  It is linear
        in the error: ``_planes[0][v]`` is the word of X^v and ``_planes[1][v]``
        that of Z^v, built by doubling (entries 2^q .. 2^(q+1) - 1 are the lower
        half XOR the word of one error on qubit q), and read-only."""
        planes = np.zeros((2, 1 << self.code.n), np.uint16)
        for q, words in enumerate(_unit_words(self.code).T.tolist()):
            for plane, word in zip(planes, words):
                np.bitwise_xor(plane[:1 << q], word, out=plane[1 << q:2 << q])
        planes.flags.writeable = False
        object.__setattr__(self, "_planes", planes)

    def words(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Block words of the errors X^x Z^z, x and z uint64 masks of the code's qubits:
        one plane lookup each, on masks viewed as intp (``take`` casts a uint64 index
        element by element)."""
        return self._planes[0].take(x.view(np.intp)) ^ self._planes[1].take(z.view(np.intp))

    @cached_property
    def residual_classes(self) -> np.ndarray:
        """Logical class left after correcting an error, indexed by its
        block word (see ``words``), as an index into ``LETTERS``.
        Computed once per decoder."""
        n, mask = self.code.n, (1 << self.code.n) - 1
        correction = (self.words(self.table >> n & mask, self.table & mask) >> n - 1).astype(np.uint8)
        # commutation parities add: class(correction * error) = XOR of the two
        out = np.concatenate([correction ^ parities for parities in range(4)])
        out.flags.writeable = False
        return out


def _unit_words(code: StabilizerCode) -> np.ndarray:
    """Block words (see ``LookupDecoder``) of X on each qubit, then of Z on each, as (2, n) int64."""
    units, none = [1 << q for q in range(code.n)], [0] * code.n
    anti = anticommutation(code.checks, units + none, none + units)
    return (anti @ (1 << np.arange(code.n + 1))).reshape(2, code.n)


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
    for q, (sx, sz) in enumerate((_unit_words(code).T & n_syndromes - 1).tolist()):
        step = best   # X, Y = X times Z, then Z on qubit q
        for s, x, z in ((sx, 1, 0), (sx ^ sz, 1, 1), (sz, 0, 1)):
            step = np.minimum(step, best[index ^ s] + (1 << 2 * n | x << q + n | z << q))
        best = step
    best.flags.writeable = False
    return LookupDecoder(code, best)


@lru_cache(maxsize=None)
def code_space(code: StabilizerCode) -> tuple[int, tuple[Pauli, ...], int]:
    """``(seed, moves, flip)``: up to normalisation, |0-bar> sums i^e (-1)^(z.seed)
    |seed ^ x> over the products i^e X^x Z^z of subsets of ``moves``
    (Dehaene-De Moor, quant-ph/0304125).  The code group's rows (x, z, then
    n tag bits, one per generator and logical Z) split it into the moves,
    whose X parts are a fully reduced basis, and pure-Z elements +-Z^w,
    whose signs fix the parities w.c of the support words c; each is read
    off its row, its sign off the tags.  The pure-Z rows are fully reduced,
    so the word with each one's sign bit at its pivot meets every parity;
    ``seed``, the least support word, is that word reduced against the
    moves.  ``flip`` is logical X's X part reduced against the moves'."""
    n, mask, group = code.n, (1 << code.n) - 1, code.group
    elements = [Pauli(n, row >> 2 * n, row >> n & mask, group._combo_phase(row & mask))
                for row in group.reduced]
    moves = tuple(p for p in elements if p.x)
    seed = sum((p.phase_exp >> 1) << p.z.bit_length() - 1 for p in elements if not p.x)
    basis = [p.x for p in moves]
    return reduce(basis, seed), moves, reduce(basis, code.logical_x.x)
