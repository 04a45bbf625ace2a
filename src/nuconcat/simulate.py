"""Ground-truth oracles for gadget verification.

Three independent methods, each taking the claimed logical gate as a
:class:`~nuconcat.gates.Gate` on operand indices; :mod:`nuconcat.library`
routes each gadget to the ones that apply:

* dense simulation of all logical basis states in one pass (exact
  amplitudes, <= 22 qubits; codewords projected on the states they reach),
  judging the logical matrix U_L whole: leakage, phase and fidelity;
* Heisenberg conjugation of stabilizers and logicals (Clifford circuits,
  any size, sign-exact group membership);
* coset-phase analysis for circuits made of X/CNOT/diagonal gates: the
  basis permutation must uncompute to the identity, and the diagonal
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

import numpy as np

from . import gates
from ._bitlin import rref, solve_affine
from .circuits import GadgetCircuit
from .codes import StabilizerCode, StabilizerGroup, stabilizer_group
from .gates import Gate
from .pauli import Pauli

MAX_DENSE_QUBITS = 22
FIDELITY_TOL = 1e-10
NORM_TOL = 1e-12


class VerificationError(ValueError):
    pass


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
#
# A batch of states is one complex rows x 2^n array, bit q of the column
# index = qubit q.  Viewed as (rows, 2, ..., 2), qubit q is axis n - q.

def apply_pauli(p: Pauli, idx: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Pauli action on the amplitudes ``amps`` of the basis states
    ``idx``: i^e X^x Z^z |c> = i^e (-1)^(z.c) |c ^ x>.  Returns the image as
    (indices, amplitudes); a dense vector passes the full range."""
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z) & 1)
    return idx ^ p.x, (1j ** p.phase_exp) * signs * amps


def codewords(code: StabilizerCode) -> np.ndarray:
    """The (2, 2^n) pair |0-bar>, |1-bar>: |0> by projection onto the +1
    eigenspaces of the generators and logical Z, |1> = logical X |0>.

    Each factor (v + g v)/2 runs only on the states v reaches, seed xor a
    span of X parts (2^rank of them, not 2^n), which g's flip maps onto
    itself or onto a disjoint copy; both rows are +0 off those states.
    """
    dim = 1 << code.n
    for seed in range(dim):
        idx, amps = np.array([seed]), np.ones(1, dtype=complex)
        for g in (*code.generators, code.logical_z):
            reach = idx if (idx[0] ^ g.x) in idx else np.sort(np.concatenate([idx, idx ^ g.x]))
            state = np.zeros(len(reach), dtype=complex)
            state[np.searchsorted(reach, idx)] = amps
            image_idx, image = apply_pauli(g, reach, state)
            flipped = np.empty_like(state)
            flipped[np.searchsorted(reach, image_idx)] = image
            idx, amps = reach, (state + flipped) / 2
        nrm = np.linalg.norm(amps)
        if nrm > 1e-6:
            pair = np.zeros((2, dim), dtype=complex)
            pair[0, idx] = amps = amps / nrm
            image_idx, image = apply_pauli(code.logical_x, idx, amps)
            pair[1, image_idx] = image
            return pair
    raise VerificationError("no computational seed projects onto the code space")


def apply_circuit(states: np.ndarray, circuit: GadgetCircuit) -> np.ndarray:
    """Run every row of ``states``, a C-contiguous complex rows x 2^n
    array, through the circuit in one pass, in place.

    X and CNOT swap two half or quarter slices (Y swaps and signs them), a
    diagonal gate scales the slice where all its qubits are 1, and any
    other one-qubit gate mixes its qubit's two slices.  Every row must keep
    its norm.
    """
    n = circuit.register_size
    if states.shape[1:] != (1 << n,) or states.dtype != complex or not states.flags.c_contiguous:
        raise VerificationError(f"states must be a contiguous complex rows x 2^{n} array")
    norms = [np.vdot(row, row).real for row in states]
    psi = states.reshape(len(states), *[2] * n)

    def part(bits: dict[int, int]) -> np.ndarray:
        index = [slice(None)] * (n + 1)
        for q, bit in bits.items():
            index[n - q] = bit
        return psi[tuple(index)]

    for g in circuit.gates:
        *ctrl, q = g.qubits
        if g.is_permutation or g.kind == gates.Y:  # X, Y, or CNOT on its control = 1 slice
            on = dict.fromkeys(ctrl, 1)
            lo, hi = part({**on, q: 0}), part({**on, q: 1})
            swap = lo.copy()
            lo[...] = hi
            hi[...] = swap
            if g.kind == gates.Y:  # Y|0> = i|1>, Y|1> = -i|0>
                lo *= -1j
                hi *= 1j
        elif g.is_diagonal:
            ones = part(dict.fromkeys(g.qubits, 1))
            ones *= np.exp(1j * np.pi * float(g.theta()))
        elif not ctrl:
            u = gates.gate_matrix(g)
            lo, hi = part({q: 0}), part({q: 1})
            mixed = u[1, 0] * lo + u[1, 1] * hi
            lo *= u[0, 0]
            lo += u[0, 1] * hi
            hi[...] = mixed
        else:
            raise VerificationError(f"no dense rule for {g.kind}")
    if any(abs(np.vdot(row, row).real - nrm) > NORM_TOL for row, nrm in zip(states, norms)):
        raise VerificationError("statevector norm drifted")
    return states


# -- dense logical-action verification -------------------------------------------

def verify_logical_action(code: StabilizerCode, circuit: GadgetCircuit,
                          claimed: Gate) -> Certificate:
    """Dense check that the circuit acts on the code space as ``claimed``,
    up to one global phase.

    The 2^m logical basis states run through the circuit in one pass.
    Contracting the output with the conjugated codeword pair once per
    block gives U_L[i, j] = <b_i|C|b_j>, judged whole: the leakage is
    1 - lambda_min(U_L^dag U_L), the worst case over every logical input;
    the phase is tr(claim^dag U_L) / |tr(claim^dag U_L)| (1 when the trace
    vanishes), the fidelity |tr(claim^dag U_L)|^2 / 4^m, and U_L must
    equal phase * claim in Frobenius norm.
    """
    m = len(circuit.blocks)
    _block_offsets(code, circuit, claimed)
    if circuit.register_size > MAX_DENSE_QUBITS:
        raise VerificationError(f"{circuit.register_size} qubits exceeds the dense cap")
    # gate_matrix's index bit i is operand claimed.qubits[i]; re-index so bit b is operand b
    order = [sum(((j >> q) & 1) << i for i, q in enumerate(claimed.qubits)) for j in range(1 << m)]
    claim = gates.gate_matrix(claimed)[np.ix_(order, order)]
    pair = codewords(code)
    # row j: block b in label (j >> b) & 1, block 0 on the lowest qubits
    states = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        states = np.kron(pair, states)
    amps = apply_circuit(states, circuit)
    for _ in range(m):  # the highest block leads each row
        amps = pair.conj() @ amps.reshape(-1, pair.shape[1], amps.shape[-1] // pair.shape[1])
    logical = amps.reshape(1 << m, 1 << m).T

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

    Passes when every stabilizer image is exactly a (signed) stabilizer and
    every logical image equals the claimed image up to exact stabilizer
    multiplication; this pins the action up to global phase.
    """
    if not circuit.is_clifford:
        raise VerificationError("Heisenberg check requires a Clifford circuit")
    if not claimed.is_clifford:
        raise VerificationError("claimed gate is not Clifford")
    m = len(circuit.blocks)
    offsets = _block_offsets(code, circuit, claimed)
    total = circuit.register_size

    def embed(p: Pauli, offset: int) -> Pauli:
        return p.embed(total, range(offset, offset + code.n))

    all_gens = [embed(g, offset) for offset in offsets for g in code.generators]
    logical_x = [embed(code.logical_x, offset) for offset in offsets]
    logical_z = [embed(code.logical_z, offset) for offset in offsets]

    def lift(logical: Pauli) -> Pauli:
        """Group-homomorphic lift of an m-qubit logical Pauli to physical reps."""
        out = Pauli(total, 0, 0, logical.phase_exp)
        for b in range(m):
            if (logical.x >> b) & 1:
                out = out * logical_x[b]
            if (logical.z >> b) & 1:
                out = out * logical_z[b]
        return out

    group = StabilizerGroup(all_gens, total)
    for g in all_gens:
        image = gates.conjugate_through(g, circuit.gates)
        if image not in group:
            return Certificate("heisenberg", False,
                               details=f"stabilizer {g} maps outside the group")
    for b in range(m):
        for letter in ("X", "Z"):
            source = Pauli.single(m, b, letter)
            source = Pauli(m, source.x, source.z, 0)
            got = gates.conjugate_through(lift(source), circuit.gates)
            want = lift(gates.conjugate_by_gate(source, claimed))
            if got * want.inverse() not in group:
                return Certificate("heisenberg", False,
                                   details=f"logical {letter}_{b} image mismatch")
    return Certificate("heisenberg", True, phase=None)


# -- coset-phase verification --------------------------------------------------------

def _trace_permutation(circuit: GadgetCircuit) -> tuple[list[int], int, list]:
    """Forward-tracked basis permutation, ``(rows, offsets, phase_terms)``:
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
        elif g.is_diagonal:
            terms.append((g.theta(), [(rows[q], (offs >> q) & 1) for q in g.qubits]))
        else:
            raise VerificationError(f"{g.kind} is outside the coset-phase gate set")
    return rows, offs, terms


def _support_space(code: StabilizerCode) -> tuple[list[int], list[int]]:
    """``(seeds, basis)``: the classical support of the codeword with each
    label is ``seeds[label] xor span(basis)`` on the code's own bits.

    The pure-Z stabilizers fix the support's parities, and a pure-Z element
    of the logical-Z coset, with target ``label xor sign``, fixes the label
    (the same rows for both labels, hence one basis).
    """
    group = stabilizer_group(code)
    gens = group.generators
    # combinations whose x-parts give logical Z's x-part, and the kernel:
    # combinations multiplying to pure-Z elements
    x_columns = [sum(((g.x >> q) & 1) << i for i, g in enumerate(gens)) for q in range(code.n)]
    lz = code.logical_z
    solution = solve_affine(x_columns, [(lz.x >> q) & 1 for q in range(code.n)], len(gens))
    if solution is None:
        raise VerificationError("logical Z has no pure-Z coset form; "
                                "coset-phase method inapplicable")
    lz_combo, kernel = solution
    rows: list[int] = []
    targets: list[int] = []
    for combo in kernel:
        product = group.product(combo)
        if product.x or product.display_phase_exp not in (0, 2):
            raise AssertionError("pure-Z reduction failed")
        rows.append(product.z)
        targets.append(1 if product.display_phase_exp == 2 else 0)
    # pure-Z element of the logical-Z coset
    pure = lz * group.product(lz_combo)
    if pure.x or pure.display_phase_exp not in (0, 2):
        raise AssertionError("logical-Z purification failed")
    sign = 1 if pure.display_phase_exp == 2 else 0
    supports = [solve_affine(rows + [pure.z], targets + [label ^ sign], code.n)
                for label in range(2)]
    if None in supports:
        raise VerificationError("inconsistent support constraints")
    return [seed for seed, _ in supports], supports[0][1]


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
        raise VerificationError("coset-phase method needs a diagonal claimed gate")
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
    (seed0, seed1), code_basis = _support_space(code)
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
    if not any(poly.values()):
        return Certificate("css-coset", True,
                           phase=complex(np.exp(1j * np.pi * global_phase / den)),
                           details=f"phase polynomial constant on {1 << len(basis)} "
                                   f"support words per label tuple")
    masks = (1 << len(basis)) - 1
    for labels in itertools.product(range(2), repeat=m):
        fixed = masks | sum(bit << (len(basis) + b) for b, bit in enumerate(labels))
        rest: dict[int, int] = {}  # P at these labels, less the global and claimed phase
        for mono, coef in poly.items():
            if not mono & ~fixed:
                rest[mono & masks] = (rest.get(mono & masks, 0) + coef) % modulus
        want = (global_phase + (claim if all(labels) else 0)) % modulus
        if any(coef for mono, coef in rest.items() if mono):
            return Certificate("css-coset", False,
                               details=f"phase varies over the support at labels {labels}")
        if rest.get(0):
            return Certificate("css-coset", False,
                               details=f"phase {Fraction((want + rest[0]) % modulus, den)} != "
                                       f"{Fraction(want, den)} at labels {labels}")
    raise AssertionError("a nonzero multilinear form vanishes at every point")
