"""Ground-truth oracles for gadget verification.

Three independent methods, each taking the claimed logical gate as a
:class:`~nuconcat.gates.Gate` on operand indices and raising
:class:`NotApplicable` on what it cannot judge; :mod:`nuconcat.library`
asks them strongest first and, if all of them refuse, lists each reason:

* dense simulation of all logical basis states in one pass, exact on the
  basis states they reach (<= 22 qubits; codewords from
  :func:`~nuconcat.codes.code_space`), judging U_L whole: leakage, phase, fidelity;
* Heisenberg conjugation of stabilizers and logicals (Clifford circuits,
  any size, sign-exact group membership);
* coset-phase analysis for X/CNOT/diagonal circuits on a code whose
  logical Z has a pure-Z coset form (Dehaene-De Moor, quant-ph/0304125):
  the basis permutation must uncompute to the identity, and the diagonal
  phase, one phase polynomial (Amy-Maslov-Mosca, arXiv:1303.2042) over
  the codeword supports' mask bits and one label bit per block, must be
  the claimed phase on the label bits' product plus a global phase over
  Z_{2*den}, coefficient by coefficient (any size, any angle in Q*pi).

Each oracle verifies a circuit on copies of one
:class:`~nuconcat.codes.StabilizerCode` (a base code, or a layout flattened
by :func:`nuconcat.concat.flatten`), one copy per entry of
``circuit.blocks``.  Certificates record which method ran and what it
measured.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import gates
from ._bitlin import reduce, rref
from .circuits import GadgetCircuit
from .codes import StabilizerCode, StabilizerGroup, code_space
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
    for _, length in circuit.blocks:
        if length != code.n:
            raise VerificationError(f"a block of {length} qubits is not a copy of "
                                    f"{code.name} ({code.n} qubits)")
    if sorted(claimed.qubits) != list(range(len(circuit.blocks))):
        raise VerificationError(f"claim does not act on exactly the {len(circuit.blocks)} operands")
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


def apply_circuit(idx: np.ndarray, amps: np.ndarray,
                  circuit: GadgetCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Run a batch of states through the circuit in one pass: ``idx``
    distinct basis states (bit q = qubit q), ``amps`` complex, rows x
    len(idx), zero off ``idx`` (a dense batch passes the full range).
    Returns new arrays on the support reached.  X and CNOT move the indices
    whose controls are set (Y also multiplies in +-i), a diagonal gate
    scales the columns where all its qubits are 1, and a layer of H, K or
    K_DAG gates (``circuit.layers``) joins the support with its flips on
    all the layer's qubits in one merge and mixes qubit by qubit, a missing
    entry reading 0.  Every row must keep its norm."""
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
            for g in layer:
                *ctrl, q = g.qubits
                bit, on = 1 << q, sum(1 << c for c in ctrl)
                if g.is_diagonal:
                    amps[:, (idx & (on | bit)) == on | bit] *= np.exp(1j * np.pi * float(g.theta()))
                else:  # X, Y, or CNOT where its control is 1
                    if g.kind == gates.Y:  # Y|0> = i|1>, Y|1> = -i|0>
                        amps *= np.where(idx & bit, -1j, 1j)
                    idx = idx ^ bit * ((idx & on) == on)
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
    m = len(circuit.blocks)
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

    The stabilizer generators and logical X and Z of every block are
    conjugated as one batch by ``gates.conjugate_through``.  Each image
    times the inverse of its expected image, I for a stabilizer and the
    lift of the claim's image for logical X_b or Z_b, must lie exactly in
    the signed stabilizer group, which pins the action up to global phase.
    """
    m = len(circuit.blocks)
    offsets = _block_offsets(code, circuit, claimed)
    if not circuit.is_clifford:
        raise NotApplicable("Heisenberg check requires a Clifford circuit")
    if not claimed.is_clifford:
        raise NotApplicable("claimed gate is not Clifford")
    total = circuit.register_size
    # per block: its generators, then logical X and Z, shifted to the block
    placed = [[Pauli(total, p.x << offset, p.z << offset, p.phase_exp)
               for p in (*code.generators, code.logical_x, code.logical_z)] for offset in offsets]
    stabilizers = [p for block in placed for p in block[:-2]]
    rows = stabilizers + [p for block in placed for p in block[-2:]]
    logicals = list(itertools.product(range(m), "XZ"))
    wants = [Pauli.identity(total)] * len(stabilizers)
    # the claim's image i^e X^x Z^z of each X_b or Z_b, lifted block by block
    for image in gates.conjugate_through([Pauli.single(m, *lg) for lg in logicals], [claimed]):
        want = Pauli(total, 0, 0, image.phase_exp)
        for c, (bits, rep) in itertools.product(range(m), ((image.x, -2), (image.z, -1))):
            want = want * placed[c][rep] if (bits >> c) & 1 else want
        wants.append(want)

    group = StabilizerGroup(stabilizers, total)
    images = gates.conjugate_through(rows, circuit.gates)
    for row, image, want, logical in zip(rows, images, wants, [None] * len(stabilizers) + logicals):
        if image * want.inverse() not in group:
            return Certificate("heisenberg", False, details=(
                f"logical {logical[1]}_{logical[0]} image mismatch" if logical
                else f"stabilizer {row} maps outside the group"))
    return Certificate("heisenberg", True, phase=None)


# -- coset-phase verification --------------------------------------------------------

def _trace_permutation(circuit: GadgetCircuit) -> tuple[list[int], int, list]:
    """Basis permutation of X/CNOT gates, ``(rows, offsets, phase_terms)``:
    qubit q holds the parity ``rows[q]`` of input bits xor bit q of
    ``offsets``; each diagonal gate is recorded as (theta, [(row, off)])."""
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
        else:  # diagonal
            terms.append((g.theta(), [(rows[q], (offs >> q) & 1) for q in g.qubits]))
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


def _xor_polynomial(const: int, variables: list[int], modulus: int) -> dict[int, int]:
    """``const xor x_i xor x_j ...`` as a multilinear polynomial mod ``modulus``.

    Monomials are bit-masks over the variables.  Each variable enters
    by ``p xor x = p + x - 2px``, so coefficients are powers of -2 and a
    power-of-two modulus bounds the degree.
    """
    poly = {0: const}
    for i in variables:
        bit = 1 << i
        grown = dict(poly)
        grown[bit] = 1
        for mono, coef in poly.items():
            grown[mono | bit] = grown.get(mono | bit, 0) - 2 * coef
        poly = {mono: coef % modulus for mono, coef in grown.items() if coef % modulus}
    return poly


def _times(a: dict[int, int], b: dict[int, int], modulus: int) -> dict[int, int]:
    """Product of multilinear polynomials mod ``modulus`` (x^2 = x)."""
    out: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out[ma | mb] = (out.get(ma | mb, 0) + ca * cb) % modulus
    return {mono: coef for mono, coef in out.items() if coef}


def verify_diagonal_action(code: StabilizerCode, circuit: GadgetCircuit,
                           claimed: Gate) -> Certificate:
    """Exact phase-polynomial check for X/CNOT/diagonal circuits on stabilizer codewords.

    The permutation part must uncompute to the identity.  On block b, the
    codeword with label l_b has support ``seed xor l_b * delta xor
    span(basis)``, so each factor of a diagonal gate is an affine GF(2)
    form in mask and label bits, all free path variables (sum-over-paths,
    Amy, arXiv:1805.06908).  In units of pi/den, den the lcm of the angle
    denominators, the phase is one multilinear polynomial P mod 2*den.  That
    form is unique, so the claim holds exactly when P minus the claimed
    phase times l_0 ... l_{m-1} is a constant: the global phase.  A refusal
    names the first label tuple whose phase varies or is off the claim.
    """
    m = len(circuit.blocks)
    offsets = _block_offsets(code, circuit, claimed)
    if not claimed.is_diagonal:
        raise NotApplicable("coset-phase method needs a diagonal claimed gate")
    for g in circuit.gates:
        if not (g.is_permutation or g.is_diagonal):
            raise NotApplicable(f"{g.kind} is outside the coset-phase gate set")
    (seed0, seed1), code_basis = _support_space(code)
    rows, offs, phase_terms = _trace_permutation(circuit)
    if offs != 0 or rows != [1 << q for q in range(circuit.register_size)]:
        return Certificate("css-coset", False,
                           details="basis permutation does not uncompute to identity")

    touched = 0
    for theta, bits in phase_terms:
        for row, _ in bits:
            touched |= row

    # each block's basis quotiented by qubits no phase-term row reads, then
    # one label variable per block
    basis = [v for offset in offsets for v in rref([(v << offset) & touched for v in code_basis])]
    variables = basis + [(seed0 ^ seed1) << offset for offset in offsets]
    seed = sum(seed0 << offset for offset in offsets)
    den = math.lcm(claimed.theta().denominator,
                   *(theta.denominator for theta, _ in phase_terms))
    modulus = 2 * den
    poly: dict[int, int] = {}
    for theta, bits in phase_terms:
        term = {0: int(theta * den)}
        for row, off in bits:
            # every coefficient of ``term`` is a multiple of ``scale``, so
            # the next factor only matters mod modulus // scale
            scale = math.gcd(modulus, *term.values())
            const = ((row & seed).bit_count() & 1) ^ off
            hit = [i for i, v in enumerate(variables) if (row & v).bit_count() & 1]
            term = _times(term, _xor_polynomial(const, hit, modulus // scale), modulus)
        for mono, coef in term.items():
            poly[mono] = (poly.get(mono, 0) + coef) % modulus
    claim = int(claimed.theta() * den)
    all_labels = ((1 << m) - 1) << len(basis)
    poly[all_labels] = (poly.get(all_labels, 0) - claim) % modulus
    global_phase = poly.pop(0, 0)
    poly = {mono: coef for mono, coef in poly.items() if coef}
    masks = (1 << len(basis)) - 1
    for labels in itertools.product(range(2), repeat=m):
        fixed = masks | sum(bit << (len(basis) + b) for b, bit in enumerate(labels))
        rest: dict[int, int] = {}  # P at these labels, less the global and claimed phase
        for mono, coef in poly.items():
            if not mono & ~fixed:
                rest[mono & masks] = (rest.get(mono & masks, 0) + coef) % modulus
        if any(coef for mono, coef in rest.items() if mono):
            return Certificate("css-coset", False,
                               details=f"phase varies over the support at labels {labels}")
        if rest.get(0):
            want = (global_phase + (claim if all(labels) else 0)) % modulus
            return Certificate("css-coset", False,
                               details=f"phase {Fraction((want + rest[0]) % modulus, den)} != "
                                       f"{Fraction(want, den)} at labels {labels}")
    return Certificate("css-coset", True, phase=complex(np.exp(1j * np.pi * global_phase / den)),
                       details=f"phase polynomial constant on {1 << len(basis)} "
                               f"support words per label tuple")
