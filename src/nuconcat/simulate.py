"""Ground-truth oracles for gadget verification.

Three independent methods, each taking the claimed logical gate as a
:class:`~nuconcat.gates.Gate` on operand indices and raising
:class:`NotApplicable` on what it cannot judge; :mod:`nuconcat.library`
asks them strongest first and, if all of them refuse, lists each reason:

* dense simulation of all logical basis states in one pass, exact on the
  basis states they reach (<= 22 qubits; codewords from
  :func:`~nuconcat.codes.code_space`), judging U_L whole: leakage, phase, fidelity;
* Heisenberg conjugation of stabilizers and logicals, the claim's on extra
  qubits, in one signed walk (Clifford, any size, sign-exact block by block);
* coset-phase analysis for X/CNOT/diagonal circuits on a code whose
  logical Z has a pure-Z coset form (Dehaene-De Moor, quant-ph/0304125):
  the basis permutation must uncompute to the identity, and the diagonal
  phase less the claimed one, as weighted parities (Amy-Maslov-Mosca,
  arXiv:1303.2042) of the codeword supports' mask bits and one label bit
  per block, must be constant; mod 2^t, once divided by the gcd of its
  weights, only degrees <= t can survive (any size, any angle in Q*pi).

Each oracle verifies a circuit on copies of one
:class:`~nuconcat.codes.StabilizerCode` (a base code, or a layout flattened
by :func:`nuconcat.concat.flatten`), one copy per operand: the
``circuit.operands`` equal blocks of ``circuit.blocks``.  Certificates
record which method ran and what it measured.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce as fold

import numpy as np

from . import gates
from ._bitlin import reduce, rref
from .circuits import GadgetCircuit
from .codes import StabilizerCode, code_space, stabilizer_group
from .gates import Gate
from .pauli import Pauli

MAX_DENSE_QUBITS = 22
FIDELITY_TOL = 1e-10
NORM_TOL = 1e-12


class VerificationError(ValueError):
    pass


class NotApplicable(VerificationError):
    """The oracle cannot judge this circuit or claim; raised before any work."""


@dataclass(frozen=True)
class Certificate:
    method: str
    passed: bool
    fidelity: float | None = None
    phase: complex | None = None
    details: str = ""


def _block_offsets(code: StabilizerCode, circuit: GadgetCircuit, claimed: Gate) -> list[int]:
    """First qubit of each block, once every block is known to be one copy
    of ``code`` and ``claimed`` to act on exactly all of them."""
    if circuit.register_size != circuit.operands * code.n:
        raise VerificationError(f"a block of {circuit.register_size // circuit.operands} qubits "
                                f"is not a copy of {code.name} ({code.n} qubits)")
    if sorted(claimed.qubits) != list(range(circuit.operands)):
        raise VerificationError(f"claim does not act on exactly the {circuit.operands} operands")
    return [offset for offset, _ in circuit.blocks]


# -- dense simulation ------------------------------------------------------------

def _distinct(idx: np.ndarray) -> np.ndarray:
    """Sorted distinct entries (np.unique would import numpy.ma, ~0.7 MB)."""
    idx = np.sort(idx)
    return idx[np.diff(idx, prepend=idx[:1] - 1) != 0]


def apply_pauli(p: Pauli, idx: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Pauli action on the amplitudes ``amps`` of the basis states
    ``idx``: i^e X^x Z^z |c> = i^e (-1)^(z.c) |c ^ x>.  Returns the image as
    (indices, amplitudes); a dense vector passes the full range."""
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z) & 1)
    return idx ^ p.x, (1j ** p.phase_exp) * signs * amps


@lru_cache(maxsize=None)
def codewords(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    """The pair |0-bar>, |1-bar>, exact, as read-only (indices, amplitudes):
    their sorted joint support and a (2, len) array.  |0-bar> is the sum
    that :func:`~nuconcat.codes.code_space` describes, one support word per
    product of moves, normalised; |1-bar> is logical X times it."""
    seed, moves = code_space(code)
    x = z = e = np.zeros(1, np.int64)
    for m in moves:  # the products without m, then with m on the right
        e = np.concatenate([e, e + m.phase_exp + 2 * np.bitwise_count(z & m.x)])
        x, z = np.concatenate([x, x ^ m.x]), np.concatenate([z, z ^ m.z])
    signs = 1.0 - 2.0 * (np.bitwise_count(z & seed) & 1)
    amps = np.array([1, 1j, -1, -1j])[e & 3] * signs / np.sqrt(len(x))
    one, image = apply_pauli(code.logical_x, seed ^ x, amps)
    idx = _distinct(np.concatenate([seed ^ x, one]))
    pair = np.zeros((2, len(idx)), dtype=complex)
    pair[[[0], [1]], np.searchsorted(idx, [seed ^ x, one])] = amps, image
    idx.flags.writeable = pair.flags.writeable = False
    return idx, pair


def _shifted(a: np.ndarray, d: int) -> np.ndarray:
    return a << d if d >= 0 else a >> -d


def apply_circuit(idx: np.ndarray, amps: np.ndarray,
                  circuit: GadgetCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Run a batch of states through the circuit in one pass: ``idx``
    distinct basis states (bit q = qubit q), ``amps`` complex, rows x
    len(idx), zero off ``idx`` (a dense batch passes the full range).
    Returns new arrays on the support reached.  Each of ``circuit.layers``
    acts at once: an X, Y, CNOT or diagonal layer makes one index flip or
    phase per group of ``gates.slots``, read off its input indices, and an
    H, K or K_DAG layer joins the support with its flips on all the layer's
    qubits in one merge and mixes qubit by qubit, a missing entry reading
    0.  Every row must keep its norm."""
    n, idx = circuit.register_size, np.asarray(idx)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or not ((0 <= idx) & (idx < 1 << n)).all():
        raise VerificationError(f"indices must be a 1-D array of integers in [0, 2^{n})")
    if len(_distinct(idx)) != len(idx):
        raise VerificationError("indices must be distinct")
    if amps.ndim != 2 or amps.shape[1] != len(idx) or amps.dtype != complex:
        raise VerificationError(f"amplitudes must be a complex array of rows x {len(idx)} "
                                f"indices, not {amps.dtype} {amps.shape}")
    idx, amps = idx.astype(np.int64), amps.copy()
    norms = np.einsum("ij,ij->i", *[amps.view(float)] * 2)  # no BLAS call, so no thread pool
    for layer in circuit.layers:
        if layer[0].is_permutation or layer[0].is_diagonal or layer[0].kind == gates.Y:
            flips = 0   # one update per group of gates.slots, all read off the input indices
            for (offsets, angle), masks in gates.slots(layer).items():
                if layer[0].is_diagonal:  # e^(i pi theta) per gate whose qubits are all 1
                    on = fold(np.bitwise_and, [_shifted(idx & m, -d) for m, d in zip(masks, offsets)])
                    theta = float(layer[0].theta() if angle is None else angle % 2)
                    amps *= np.exp(1j * np.pi * theta * np.bitwise_count(on))
                else:  # X, Y (Y|0> = i|1>, Y|1> = -i|0>), or CNOT: the control's bit to the target
                    if layer[0].kind == gates.Y:
                        amps *= 1j ** len(layer) * (1.0 - 2.0 * (np.bitwise_count(idx & masks[0]) & 1))
                    flips ^= _shifted(idx & masks[0], offsets[1]) if len(masks) > 1 else masks[0]
            idx = idx ^ flips
        else:  # H, K or K_DAG: one merge with the flips on all the layer's qubits,
            # bit i of a flip for qubit qs[i], then a mix per qubit
            qs, u = [g.qubits[0] for g in layer], gates.gate_matrix(layer[0])
            mask, flips = sum(1 << q for q in qs), np.arange(1 << len(layer))
            base = _distinct(idx & ~mask)
            mixed = np.zeros((len(flips), len(amps), len(base)), dtype=complex)
            mixed[sum(((idx >> q) & 1) << i for i, q in enumerate(qs)), :,
                  np.searchsorted(base, idx & ~mask)] = amps.T
            for i in range(len(qs)):
                lo, hi = mixed.reshape(-1, 2, mixed[0].size << i).transpose(1, 0, 2)
                lo[...], hi[...] = u[0, 0] * lo + u[0, 1] * hi, u[1, 0] * lo + u[1, 1] * hi
            idx = (sum(((flips >> i) & 1) << q for i, q in enumerate(qs))[:, None] | base).ravel()
            amps = np.ascontiguousarray(mixed.transpose(1, 0, 2).reshape(len(amps), -1))
    if (abs(np.einsum("ij,ij->i", *[amps.view(float)] * 2) - norms) > NORM_TOL).any():
        raise VerificationError("statevector norm drifted")
    return idx, amps


def verify_logical_action(code: StabilizerCode, circuit: GadgetCircuit,
                          claimed: Gate) -> Certificate:
    """Dense check that the circuit acts on the code space as ``claimed``,
    up to one global phase.

    The 2^m logical basis states, on the products of the blocks' codeword
    supports, run through the circuit in one pass; each block's codeword
    pair gathered at the reached support contracts them to U_L[i, j] =
    <b_i|C|b_j>, judged whole: the leakage is 1 - lambda_min(U_L^dag U_L),
    the worst case over every logical input; the phase is tr(claim^dag U_L)
    / |tr(claim^dag U_L)| (1 when the trace vanishes), the fidelity
    |tr(claim^dag U_L)|^2 / 4^m, and U_L must equal phase * claim in norm.
    """
    m = circuit.operands
    offsets = _block_offsets(code, circuit, claimed)
    if circuit.register_size > MAX_DENSE_QUBITS:
        raise NotApplicable(f"{circuit.register_size} qubits exceeds the dense cap")
    # gate_matrix's index bit i is operand claimed.qubits[i]; re-index so bit b is operand b
    order = [sum(((j >> q) & 1) << i for i, q in enumerate(claimed.qubits)) for j in range(1 << m)]
    claim = gates.gate_matrix(claimed)[np.ix_(order, order)]
    words, pair = codewords(code)
    # row j (and bra row i): block b in label (j >> b) & 1
    idx, amps = np.zeros(1, np.int64), np.ones((1, 1), dtype=complex)
    for offset in offsets:
        idx = ((words[:, None] << offset) | idx).ravel()
        amps = (pair[:, None, :, None] * amps[None, :, None, :]).reshape(-1, len(idx))
    idx, amps = apply_circuit(idx, amps, circuit)
    bra = np.ones((1, len(idx)), dtype=complex)
    for offset in offsets:
        word = (idx >> offset) & ((1 << code.n) - 1)
        at = np.searchsorted(words, word) % len(words)  # a word off the support finds another
        bra = ((pair[:, at].conj() * (words[at] == word))[:, None] * bra).reshape(-1, len(idx))
    logical = np.einsum("ik,jk->ij", bra, amps)  # no BLAS call, so no thread pool

    leak = 1.0 - float(np.linalg.eigvalsh(logical.conj().T @ logical)[0])
    if leak > FIDELITY_TOL:
        return Certificate("dense", False, fidelity=1.0 - leak,
                           details=f"left the code space (leakage {leak:.3e})")
    overlap = np.vdot(claim, logical)  # tr(claim^dag U_L)
    phase = complex(overlap / abs(overlap)) if abs(overlap) > NORM_TOL else 1 + 0j
    fidelity = float(abs(overlap) ** 2 / 4 ** m)
    if np.linalg.norm(logical - phase * claim) > 1e-8:
        return Certificate("dense", False, fidelity=fidelity, phase=phase,
                           details="logical action mismatch")
    return Certificate("dense", fidelity >= 1 - FIDELITY_TOL, fidelity=fidelity, phase=phase)


# -- Heisenberg verification -------------------------------------------------------

def verify_clifford_action(code: StabilizerCode, circuit: GadgetCircuit,
                           claimed: Gate) -> Certificate:
    """Conjugate stabilizers and logicals through a Clifford circuit.

    One ``gates.conjugate_masks`` walk takes each block's generators and
    logicals through the circuit, and each operand b's X and Z on an extra
    qubit total + b through the claim moved there.  Each stabilizer image,
    and each logical image times the inverse of its lifted claim image, must
    lie in the signed group: each block's slice in the code's, phases summing.
    """
    m = circuit.operands
    offsets = _block_offsets(code, circuit, claimed)
    if not circuit.is_clifford:
        raise NotApplicable("Heisenberg check requires a Clifford circuit")
    if not claimed.is_clifford:
        raise NotApplicable("claimed gate is not Clifford")
    total, group, mask = circuit.register_size, stabilizer_group(code), (1 << code.n) - 1
    # rows (x, z, sign), the Hermitian Pauli of x and z, negated if sign: the generators,
    # then X_0, Z_0, X_1, ... of the blocks, then of the operands on the extra qubits
    rows = [(p.x << offset, p.z << offset, p.display_phase_exp >> 1) for ps in
            (code.generators, (code.logical_x, code.logical_z)) for offset in offsets for p in ps]
    rows += [bits for b in range(m) for bits in ((1 << total + b, 0, 0), (0, 1 << total + b, 0))]
    moved = Gate(claimed.kind, tuple(total + q for q in claimed.qubits))
    images = list(zip(*gates.conjugate_masks(total + m, *zip(*rows), (*circuit.gates, moved))))

    def signed(x: int, z: int, sign: int) -> Pauli:
        return Pauli(total, x, z, (x & z).bit_count() + 2 * sign)

    k = len(rows) - 4 * m   # stabilizer rows
    for r, (x, z, sign) in enumerate(images[:-2 * m]):
        e = (x & z).bit_count() + 2 * sign
        if r >= k:   # times the inverse of the claim's image i^e X^x Z^z, lifted block by block
            cx, cz, cs = images[r + 2 * m]
            want = Pauli(total, 0, 0, (cx & cz).bit_count() + 2 * cs)
            for c, j in itertools.product(range(m), range(2)):
                want = want * signed(*rows[k + 2 * c + j]) if (cx, cz)[j] >> total + c & 1 else want
            image = signed(x, z, sign) * want.inverse()
            x, z, e = image.x, image.z, image.phase_exp
        phases = [group.phase(x >> offset & mask, z >> offset & mask) for offset in offsets]
        if None in phases or (sum(phases) - e) & 3:
            b, j = divmod(r - k, 2)
            return Certificate("heisenberg", False, details=f"logical {'XZ'[j]}_{b} image mismatch"
                               if b >= 0 else f"stabilizer {signed(*rows[r])} maps outside the group")
    return Certificate("heisenberg", True, phase=None)


# -- coset-phase verification --------------------------------------------------------

def _trace_permutation(circuit: GadgetCircuit) -> tuple[list[int], int, list]:
    """Basis permutation of X/CNOT gates, ``(rows, offsets, phase_terms)``: qubit q
    holds the parity ``rows[q]`` of input bits xor bit q of ``offsets``; each diagonal
    gate is recorded as (theta, [(row, off)]), and any other is ``NotApplicable``."""
    n = circuit.register_size
    rows = [1 << q for q in range(n)]
    offs = 0
    terms: list[tuple[Fraction, list[tuple[int, int]]]] = []
    for g in circuit.gates:
        if g.kind == gates.X:
            offs ^= 1 << g.qubits[0]
        elif g.kind == gates.CNOT:
            c, t = g.qubits
            rows[t] ^= rows[c]
            offs ^= ((offs >> c) & 1) << t
        elif g.is_diagonal:
            terms.append((g.theta(), [(rows[q], (offs >> q) & 1) for q in g.qubits]))
        else:
            raise NotApplicable(f"{g.kind} is outside the coset-phase gate set")
    return rows, offs, terms


def _support_space(code: StabilizerCode) -> tuple[list[int], list[int]]:
    """``(seeds, basis)``: the support of the codeword with each label is
    ``seeds[label] xor span(basis)`` on the code's own bits, the span of
    the moves' X parts.  The labels share one support (logical X's X part
    lies in the span) exactly when logical Z has no pure-Z coset form."""
    seed, moves = code_space(code)
    basis = [p.x for p in moves]
    if not reduce(basis, code.logical_x.x):
        raise NotApplicable("logical Z has no pure-Z coset form; "
                            "coset-phase method inapplicable")
    return [seed, seed ^ code.logical_x.x], basis


@lru_cache(maxsize=None)
def _subsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    subsets = (np.arange(1, 1 << k)[:, None] >> np.arange(k) & 1).astype(np.uint8)
    return subsets, 1 - 2 * ((subsets.sum(axis=1, dtype=np.int64) - 1) & 1)  # T != {}, (-1)^{|T|-1}


def _varies(rows: np.ndarray, weights: np.ndarray, modulus: int) -> bool:
    """Whether sum_j w_j (rows_j . x) mod ``modulus`` depends on x: x^S has the coefficient
    (-2)^{|S|-1} sum_{j: S in L_j} w_j.  Over the gcd the modulus is 2^t times an odd q: mod q each
    distinct row's weights must cancel, mod 2^t only |S| <= t survive (Bravyi-Haah, 1209.2426)."""
    g = math.gcd(modulus, int(np.gcd.reduce(weights)))
    modulus, w = modulus // g, weights // g
    two, merged = modulus & -modulus, {}
    for row, wj in zip(rows, w.tolist()) if modulus > two else ():
        merged[row.tobytes()] = merged.get(row.tobytes(), 0) + wj * int(row.any())
    w %= two  # what is left is mod 2^t; degree 1 is w . L
    if any(wj % (modulus // two) for wj in merged.values()) or (w @ rows & two - 1).any():
        return True
    if two > 2:  # rows on each pair a < b and each {a, b, c}, mod 2^(t-1) and 2^(t-2)
        n, top = rows.shape[1], two.bit_length() - 3  # bit t-2 of w counts only for pairs
        block = 8192 // (n + 1) + 1  # pairs at a time: 64 KB of words, under malloc's mmap threshold
        a, b = np.nonzero(np.arange(n)[:, None] < np.arange(n))
        bits = np.zeros((n, -(-len(rows) // 64) * 64), np.uint8)
        pairs, triples = 0, np.zeros((len(a), n) if top else 0, np.uint8 if top < 9 else np.uint32)
        for i in range(top, -1, -1):  # a bit of w at a time, in packed columns, the top bit first:
            bits[:, :len(rows)] = rows.T * (w >> i & 1).astype(np.uint8)  # each doubling weighs
            cols = np.ascontiguousarray(np.packbits(bits, axis=1).view(np.uint64).T)  # words, columns
            both = cols[:, a] & cols[:, b]
            pairs = (pairs << 1) + np.bitwise_count(both).sum(axis=0, dtype=np.int64)
            if i < top:
                triples <<= 1
                for lo, (pair, col) in itertools.product(range(0, len(a), block), zip(both, cols)):
                    triples[lo:lo + block] += np.bitwise_count(pair[lo:lo + block, None] & col)
        if (pairs & (two >> 1) - 1).any() or (triples & (two >> 2) - 1).any():
            return True  # at c = a or b, triples repeat pairs, 0 by then
    coefs: dict[tuple, int] = {}
    for row, r in zip(rows, w.tolist()) if two > 8 else ():
        reach = two.bit_length() - (r & -r).bit_length() if r else 0  # (-2)^(s-1) r != 0 up to s
        for s in range(4, reach + 1):
            for mono in itertools.combinations(np.flatnonzero(row).tolist(), s):
                coefs[mono] = coefs.get(mono, 0) + (-2) ** (s - 1) * r
    return any(coef % two for coef in coefs.values())


def verify_diagonal_action(code: StabilizerCode, circuit: GadgetCircuit,
                           claimed: Gate) -> Certificate:
    """Exact phase-polynomial check for X/CNOT/diagonal circuits on stabilizer codewords.

    The permutation part must uncompute to the identity.  On block b the codeword with label
    l_b has support ``seed xor l_b * delta xor span(basis)``, so every gate factor is an affine
    GF(2) form in mask and label bits (Amy, arXiv:1805.06908).  With the claim's inverse on the
    labels and theta a_1...a_k = theta 2^{1-k} sum_{T != {}} (-1)^{|T|-1} xor_{i in T} a_i
    (Amy-Maslov-Mosca, arXiv:1303.2042), 2^{kmax-1} times the phase in units of pi/den is the
    global phase plus sum_j w_j (L_j . x) mod den 2^kmax, which must be constant; a refusal
    names the first label tuple, in product order, whose phase varies or is off the claim.
    """
    m, n = circuit.operands, circuit.register_size
    offsets = _block_offsets(code, circuit, claimed)
    if not claimed.is_diagonal:
        raise NotApplicable("coset-phase method needs a diagonal claimed gate")
    rows, offs, phase_terms = _trace_permutation(circuit)
    (seed0, seed1), code_basis = _support_space(code)
    if offs != 0 or rows != [1 << q for q in range(n)]:
        return Certificate("css-coset", False,
                           details="basis permutation does not uncompute to identity")
    touched = fold(int.__or__, (row for _, bits in phase_terms for row, _ in bits), 0)
    basis = [v for offset in offsets for v in rref([(v << offset) & touched for v in code_basis])]
    # the blocks' bases on the qubits read, then label bits, also on qubits n + b for the claim
    variables = basis + [(seed0 ^ seed1) << off | 1 << (n + b) for b, off in enumerate(offsets)]
    one = 1 << (n + m)  # one more qubit, set in the seed, carries each factor's affine constant
    seed = sum(seed0 << offset for offset in offsets) | one
    terms = [*phase_terms, (-claimed.theta(), [(1 << (n + b), 0) for b in range(m)])]
    kmax, den = max(len(bits) for _, bits in terms), math.lcm(*(t.denominator for t, _ in terms))
    if (modulus := den << kmax) >= 1 << 32:
        raise NotApplicable(f"angle denominator {den} is too fine for the coset-phase method")
    # kmax factors per term, padded by the constant 1, each over the variables and the seed
    factors = [row | off * one for _, bits in terms
               for row, off in [*bits, *[(0, 1)] * (kmax - len(bits))]]
    table = gates.parities(factors, variables + [seed])
    subsets, signs = _subsets(kmax)
    parities = (subsets @ table.reshape(len(terms), kmax, -1)) & 1
    weights = np.outer([t.numerator * (den // t.denominator) for t, _ in terms], signs).ravel()
    rows, consts = parities[..., :-1].reshape(len(weights), -1), parities[..., -1].ravel()
    global_phase = int(weights @ consts) % modulus >> (kmax - 1)
    weights -= 2 * consts * weights  # an affine constant 1 negates its weight
    if not _varies(rows, weights, modulus):
        return Certificate("css-coset", True, phase=complex(np.exp(1j * np.pi * global_phase / den)),
                           details=f"phase polynomial constant on {1 << len(basis)} "
                                   f"support words per label tuple")
    for labels in itertools.product(range(2), repeat=m):
        flip = rows[:, len(basis):] @ labels & 1
        if _varies(rows[:, :len(basis)], weights * (1 - 2 * flip), modulus):
            return Certificate("css-coset", False,
                               details=f"phase varies over the support at labels {labels}")
        if shift := int(weights @ flip) % modulus >> (kmax - 1):
            want = (global_phase + int(claimed.theta() * den) * all(labels)) % (2 * den)
            return Certificate("css-coset", False,
                               details=f"phase {Fraction((want + shift) % (2 * den), den)} != "
                                       f"{Fraction(want, den)} at labels {labels}")
    raise AssertionError("a phase sum that is not constant varies at some label tuple")
