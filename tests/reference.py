"""Reference implementations that only tests use: each is the slow,
obviously correct form of something the package does on arrays, or a
helper the package no longer needs."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from nuconcat import faults, gates
from nuconcat._bitlin import reduce, rref
from nuconcat.circuits import GadgetCircuit, GadgetDispatcher, TransversalRule
from nuconcat.codes import (LOGICAL_CLASSES, LookupDecoder, StabilizerCode, build_decoder,
                            min_weight_logical, normalizer_class, syndrome)
from nuconcat.concat import DistanceResult, Layout, bare_layout, lift
from nuconcat.gates import Gate
from nuconcat.pauli import LETTERS, DimensionError, Pauli
from nuconcat.simulate import (FIDELITY_TOL, NORM_TOL, Certificate, NotApplicable,
                               VerificationError, _block_offsets, _support_space,
                               _trace_permutation, apply_pauli)


def nullspace(rows: list[int], n_bits: int) -> list[int]:
    """Basis of {v : row & v has even parity for every row}."""
    reduced = rref(rows)
    pivots = {r.bit_length() - 1 for r in reduced}
    basis = []
    for free in range(n_bits):
        if free in pivots:
            continue
        vec = 1 << free
        for r in reduced:
            if (r >> free) & 1:
                vec |= 1 << (r.bit_length() - 1)
        basis.append(vec)
    return basis


def from_letters(n: int, letters: Mapping[int, str]) -> Pauli:
    """The product of ``letter`` on ``q`` for each entry, identity elsewhere."""
    p = Pauli(n, 0, 0)
    for q, letter in letters.items():
        p = p * Pauli.single(n, q, letter)
    return p


def restrict(p: Pauli, qubits: Iterable[int]) -> Pauli:
    """Sub-operator on the listed qubits (in the listed order), without a phase."""
    qubits = list(qubits)
    x = z = 0
    for i, q in enumerate(qubits):
        x |= ((p.x >> q) & 1) << i
        z |= ((p.z >> q) & 1) << i
    return Pauli(len(qubits), x, z, 0)


def display_phase(p: Pauli) -> complex:
    """The rendered phase of ``p`` as a complex number."""
    return 1j ** p.display_phase_exp


def pauli_matrix(p: Pauli) -> np.ndarray:
    """Dense matrix of a Pauli, basis index bit q = qubit q."""
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        letter = p.letter(q)
        m = np.kron(np.eye(2) if letter == "I" else gates.gate_matrix(gates.gate(letter, 0)), m)
    return display_phase(p) * m


def is_identity(p: Pauli) -> bool:
    return p.x == 0 and p.z == 0 and p.phase_exp == 0


def equals_up_to_phase(p: Pauli, other: Pauli) -> bool:
    return p.n == other.n and p.x == other.x and p.z == other.z


def pauli_on_vector(amps: np.ndarray, p: Pauli) -> np.ndarray:
    """``p`` applied to a dense vector: ``apply_pauli`` on the full range."""
    out = np.empty_like(amps)
    idx, image = apply_pauli(p, np.arange(len(amps)), amps)
    out[idx] = image
    return out


def reference_codewords(code: StabilizerCode) -> np.ndarray:
    """The (2, 2^n) codeword pair by dense projection: each seed basis
    state in turn through (v + g v)/2 for every generator and logical Z,
    on all 2^n amplitudes; the first that survives is |0>."""
    for seed in range(1 << code.n):
        zero = np.zeros(1 << code.n, dtype=complex)
        zero[seed] = 1.0
        for g in (*code.generators, code.logical_z):
            zero = (zero + pauli_on_vector(zero, g)) / 2
        nrm = np.linalg.norm(zero)
        if nrm > 1e-6:
            zero /= nrm
            return np.stack([zero, pauli_on_vector(zero, code.logical_x)])
    raise VerificationError("no computational seed projects onto the code space")


def densify(idx: np.ndarray, amps: np.ndarray, n: int) -> np.ndarray:
    """The batch ``(idx, amps)`` as a rows x 2^n array, zero off ``idx``."""
    assert len(set(idx.tolist())) == len(idx), "support indices repeat"
    out = np.zeros((len(amps), 1 << n), dtype=complex)
    out[:, idx] = amps
    return out


def reference_apply_circuit(states: np.ndarray, circuit: GadgetCircuit) -> np.ndarray:
    """Every row of ``states``, a C-contiguous complex rows x 2^n array,
    through the circuit in place, on all 2^n amplitudes: viewed as (rows,
    2, ..., 2), qubit q is axis n - q.  X and CNOT swap two half or quarter
    slices (Y swaps and signs them), a diagonal gate scales the slice where
    all its qubits are 1, and any other one-qubit gate mixes its qubit's
    two slices.  Every row must keep its norm."""
    n = circuit.register_size
    assert states.shape[1:] == (1 << n,) and states.dtype == complex
    assert states.flags.c_contiguous
    flat = states.view(float)
    norms = np.einsum("ij,ij->i", flat, flat)
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
    if (abs(np.einsum("ij,ij->i", flat, flat) - norms) > NORM_TOL).any():
        raise VerificationError("statevector norm drifted")
    return states


def reference_logical_action(code: StabilizerCode, circuit: GadgetCircuit,
                             claimed: Gate) -> Certificate:
    """The dense oracle on all 2^(mn) amplitudes: the logical basis states
    as Kronecker products of the projected codeword pair, run through
    ``reference_apply_circuit`` and contracted with the pair block by
    block; U_L judged as ``verify_logical_action`` judges it."""
    m = len(circuit.blocks)
    order = [sum(((j >> q) & 1) << i for i, q in enumerate(claimed.qubits)) for j in range(1 << m)]
    claim = gates.gate_matrix(claimed)[np.ix_(order, order)]
    pair = reference_codewords(code)
    states = np.ones((1, 1), dtype=complex)
    for _ in range(m):  # row j: block b in label (j >> b) & 1, block 0 on the lowest qubits
        states = np.kron(pair, states)
    amps = reference_apply_circuit(states, circuit)
    for _ in range(m):  # the highest block leads each row
        amps = pair.conj() @ amps.reshape(-1, pair.shape[1], amps.shape[-1] // pair.shape[1])
    logical = amps.reshape(1 << m, 1 << m).T
    leak = 1.0 - float(np.linalg.eigvalsh(logical.conj().T @ logical)[0])
    if leak > FIDELITY_TOL:
        return Certificate("dense", False, fidelity=1.0 - leak,
                           details=f"left the code space (leakage {leak:.3e})")
    overlap = np.vdot(claim, logical)
    phase = complex(overlap / abs(overlap)) if abs(overlap) > NORM_TOL else 1 + 0j
    fidelity = float(abs(overlap) ** 2 / 4 ** m)
    if np.linalg.norm(logical - phase * claim) > 1e-8:
        return Certificate("dense", False, fidelity=fidelity, phase=phase,
                           details="logical action mismatch")
    return Certificate("dense", fidelity >= 1 - FIDELITY_TOL, fidelity=fidelity, phase=phase)


def signed_product(generators, combo: int, n: int) -> Pauli:
    """The product of the generators whose bits are set in ``combo``, in
    index order, multiplied one ``Pauli`` at a time."""
    out = Pauli(n, 0, 0)
    for i, g in enumerate(generators):
        if combo >> i & 1:
            out = out * g
    return out


def signed_membership(generators, n: int):
    """A test of whether a Pauli is a signed product of the independent
    ``generators``: a tag-bit elimination finds the combination and
    ``signed_product`` its sign."""
    k = len(generators)
    reduced = rref([(g.x << n | g.z) << k | 1 << i for i, g in enumerate(generators)])

    def member(p: Pauli) -> bool:
        combo = reduce(reduced, (p.x << n | p.z) << k)
        return combo >> k == 0 and signed_product(generators, combo, n) == p
    return member


def reference_clifford_action(code: StabilizerCode, circuit: GadgetCircuit,
                              claimed: Gate) -> Certificate:
    """The Heisenberg oracle on the whole register: each stabilizer and
    logical image times the inverse of its expected image (I for a
    stabilizer) must be a signed product of all blocks' generators, found
    by ``signed_membership``; refusals as ``verify_clifford_action`` words them."""
    m = len(circuit.blocks)
    offsets = _block_offsets(code, circuit, claimed)
    if not circuit.is_clifford:
        raise NotApplicable("Heisenberg check requires a Clifford circuit")
    if not claimed.is_clifford:
        raise NotApplicable("claimed gate is not Clifford")
    total = circuit.register_size
    placed = [[Pauli(total, p.x << offset, p.z << offset, p.phase_exp)
               for p in (*code.generators, code.logical_x, code.logical_z)] for offset in offsets]
    stabilizers = [p for block in placed for p in block[:-2]]
    rows = stabilizers + [p for block in placed for p in block[-2:]]
    logicals = list(itertools.product(range(m), "XZ"))
    wants = [Pauli(total, 0, 0)] * len(stabilizers)
    for image in gates.conjugate_through([Pauli.single(m, *lg) for lg in logicals], [claimed]):
        want = Pauli(total, 0, 0, image.phase_exp)
        for c, (bits, rep) in itertools.product(range(m), ((image.x, -2), (image.z, -1))):
            want = want * placed[c][rep] if (bits >> c) & 1 else want
        wants.append(want)
    member = signed_membership(stabilizers, total)
    images = gates.conjugate_through(rows, circuit.gates)
    for row, image, want, logical in zip(rows, images, wants, [None] * len(stabilizers) + logicals):
        if not member(image * want.inverse()):
            return Certificate("heisenberg", False, details=(
                f"logical {logical[1]}_{logical[0]} image mismatch" if logical
                else f"stabilizer {row} maps outside the group"))
    return Certificate("heisenberg", True, phase=None)


def is_uniform(layout: Layout) -> bool:
    """Every outer qubit carries the same inner code."""
    return len({inner.name for inner in layout.assignment}) == 1


def staircase_gadget(code: StabilizerCode, k: int, theta: Fraction) -> GadgetCircuit:
    """Logical C^kZ(theta) on k+1 bare blocks of ``code``, coupling d qubits each."""
    return GadgetDispatcher({})._outer_staircase(bare_layout(code), k, theta)


def expand_transversal(code: StabilizerCode, kind: str, rule: TransversalRule) -> GadgetCircuit:
    """The rule ``rule`` for ``kind`` on bare blocks of ``code``, one per
    operand, expanded by a dispatcher that knows only that rule."""
    logical = Gate(kind, tuple(range(gates.ARITY[kind])))
    return GadgetDispatcher({code.name: {kind: rule}}).logical_gadget(bare_layout(code), logical)


def stabilizer_elements(code: StabilizerCode):
    """All 2^(n-1) group elements with exact signs (Gray-code walk)."""
    current = Pauli(code.n, 0, 0)
    yield current
    prev_code = 0
    for i in range(1, 1 << len(code.generators)):
        gray = i ^ (i >> 1)
        current = current * code.generators[(gray ^ prev_code).bit_length() - 1]
        prev_code = gray
        yield current


def concatenated_distance(layout: Layout) -> DistanceResult:
    """Python scan of the outer logical cosets, each outer letter charged
    its inner coset minimum; the least (cost, x, z) wins."""
    costs = [{"I": 0, **{c: min_weight_logical(inner, c).weight() for c in LOGICAL_CLASSES}}
             for inner in layout.assignment]
    best = None
    for cls in LOGICAL_CLASSES:
        rep = layout.outer.logical_rep(cls)
        for s in stabilizer_elements(layout.outer):
            elem = rep * s
            key = (sum(costs[q][elem.letter(q)] for q in range(elem.n)), elem.x, elem.z)
            if best is None or key < best[0]:
                best = key, elem, cls
    (weight, _, _), elem, cls = best
    witness = lift(layout, Pauli.hermitian(elem.n, elem.x, elem.z), min_weight_logical)
    return DistanceResult(weight, witness, elem, cls)


def lookup_correction(decoder: LookupDecoder, s: int) -> Pauli:
    """The minimum-weight correction the decoder's table holds for syndrome ``s``."""
    n, key = decoder.code.n, int(decoder.table[s])
    mask = (1 << n) - 1
    return Pauli(n, key >> n & mask, key & mask, 0)


def hierarchical_decode(layout: Layout, error: Pauli) -> str:
    """Residual logical class after inner-then-outer lookup decoding."""
    if error.n != layout.total_n:
        raise DimensionError("error register does not match layout")
    letters: dict[int, str] = {}
    for q in range(layout.outer.n):
        start, inner = layout.block(q)
        block_err = restrict(error, range(start, start + inner.n))
        correction = lookup_correction(build_decoder(inner), syndrome(inner, block_err))
        letter = normalizer_class(inner, correction * block_err)
        if letter != "I":
            letters[q] = letter
    outer_error = from_letters(layout.outer.n, letters)
    outer_decoder = build_decoder(layout.outer)
    correction = lookup_correction(outer_decoder, syndrome(layout.outer, outer_error))
    return normalizer_class(layout.outer, correction * outer_error)


def invert(c: GadgetCircuit) -> GadgetCircuit:
    """The inverse circuit: every gate daggered, in reverse order."""
    return GadgetCircuit(c.register_size, tuple(g.dagger() for g in reversed(c.gates)),
                         f"inv({c.label})", c.operands)


def reference_locations(circuit: GadgetCircuit):
    """Register-input faults (X, Y, Z per qubit), then every nontrivial
    Pauli on each gate's qubits, one location at a time."""
    locs = []
    for q in range(circuit.register_size):
        for xb, zb in ((1, 0), (1, 1), (0, 1)):
            locs.append(faults.FaultLocation(len(locs), -1, xb << q, zb << q))
    for gi, g in enumerate(circuit.gates):
        for pattern in range(1, 1 << (2 * len(g.qubits))):
            x = z = 0
            for i, q in enumerate(g.qubits):
                x |= ((pattern >> (2 * i)) & 1) << q
                z |= ((pattern >> (2 * i + 1)) & 1) << q
            locs.append(faults.FaultLocation(len(locs), gi, x, z))
    return locs


def _extract(mask, qubits):
    return sum(((mask >> q) & 1) << i for i, q in enumerate(qubits))


def _deposit(local, qubits):
    return sum(((local >> i) & 1) << q for i, q in enumerate(qubits))


@lru_cache(maxsize=None)
def _dense_image(kind: str, x: int, z: int) -> Pauli:
    """U X^x Z^z U^dagger for the Clifford gate ``kind`` on its own qubits,
    read off the dense matrices: the one Pauli with nonzero overlap."""
    k = gates.ARITY[kind]
    u = gates.gate_matrix(Gate(kind, tuple(range(k))))
    image = u @ pauli_matrix(Pauli(k, x, z, 0)) @ u.conj().T
    for qx in range(1 << k):
        for qz in range(1 << k):
            overlap = np.vdot(pauli_matrix(Pauli(k, qx, qz, 0)), image) / (1 << k)
            if abs(overlap) > 0.5:
                return Pauli(k, qx, qz, round(np.angle(overlap) / (np.pi / 2)))
    raise AssertionError(f"{kind} maps X^{x} Z^{z} outside the Pauli group")


def reference_conjugate(p: Pauli, g: Gate) -> Pauli:
    """``g p g^dagger`` for one Clifford gate: p = i^e (rest) (local), the
    local factor on the gate's qubits replaced by its dense image."""
    qs = g.qubits
    mask = _deposit((1 << len(qs)) - 1, qs)
    rest = Pauli(p.n, p.x & ~mask, p.z & ~mask, p.phase_exp)
    image = _dense_image(g.kind, _extract(p.x, qs), _extract(p.z, qs))
    return rest * Pauli(p.n, _deposit(image.x, qs), _deposit(image.z, qs), image.phase_exp)


def reference_propagate(circuit: GadgetCircuit, fault_list):
    """Gate-by-gate propagation of one fault group ``(place, x, z)``, with
    branches as a set of (x, z) ints: (set, deterministic), as
    ``faults.propagate`` defines it for one group."""
    injected = {}
    for place, x, z in fault_list:
        px, pz = injected.get(place, (0, 0))
        injected[place] = (px ^ x, pz ^ z)
    start = min(injected)
    branches = {injected.pop(start)}
    deterministic = True
    for gi in range(start + 1, len(circuit.gates)):
        g = circuit.gates[gi]
        qs = g.qubits
        qmask = _deposit((1 << len(qs)) - 1, qs)
        moved = set()
        for bx, bz in branches:
            if g.is_clifford:
                image = reference_conjugate(Pauli(circuit.register_size, bx, bz, 0), g)
                moved.add((image.x, image.z))
            elif bx & qmask:
                deterministic = False
                moved.update((bx, bz ^ _deposit(sub, qs)) for sub in range(1 << len(qs)))
            else:
                moved.add((bx, bz))
        branches = moved
        if gi in injected:
            ex, ez = injected.pop(gi)
            branches = {(bx ^ ex, bz ^ ez) for bx, bz in branches}
        if len(branches) > faults.BRANCH_CAP:
            raise faults.BudgetError(f"branch set exceeded {faults.BRANCH_CAP}")
    return branches, deterministic


def reference_block_word(code: StabilizerCode, x: int, z: int) -> int:
    """Block word of the error X^x Z^z from its definition: the syndrome bits
    (``codes.syndrome``), then whether the error anticommutes with logical Z
    (bit n - 1) and with logical X (bit n)."""
    error = Pauli(code.n, x, z, 0)
    return (syndrome(code, error) | (not error.commutes(code.logical_z)) << code.n - 1
            | (not error.commutes(code.logical_x)) << code.n)


def reference_block_words(ctx: faults.DecodeContext, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Dense block words of word-major x and z planes, (rows, columns): every
    column's word of every row, from its definition (``reference_block_word``)."""
    errors = [(gates.unpack(x[:, r]), gates.unpack(z[:, r])) for r in range(x.shape[1])]
    out = np.empty((len(errors), len(ctx.columns)), np.uint16)
    for k, (start, decoder, _) in enumerate(ctx.columns):
        code, mask, seen = decoder.code, (1 << decoder.code.n) - 1, {}
        for r, (ex, ez) in enumerate(errors):
            block = ex >> start & mask, ez >> start & mask
            if block not in seen:
                seen[block] = reference_block_word(code, *block)
            out[r, k] = seen[block]
    return out


def reference_residuals(ctx: faults.DecodeContext, data: np.ndarray) -> np.ndarray:
    """Residual class per row of dense block words, (rows, columns); 0 = I:
    each operand's outer word XORs the terms of all its columns, and a row's
    class is that of its first operand whose letter is not I."""
    words = np.zeros((ctx.n_operands, len(data)), np.uint16)
    for k in range(len(ctx.columns)):
        words[k // ctx.n_outer] ^= ctx.term(k, data[:, k])
    letters = ctx.outer_letters[words]
    return letters[(letters != 0).argmax(axis=0), np.arange(len(data))]


def densify_block_words(data, size: int) -> np.ndarray:
    """Sparse block words (``DecodeContext.data``) of ``size`` rows as the
    dense (rows, columns) array, after checking that every column's rows
    ascend and hold non-zero words."""
    data = list(data)
    out = np.zeros((size, len(data)), np.uint16)
    for k, (rows, words, _) in enumerate(data):
        assert (np.diff(rows) > 0).all() and words.all()
        out[rows, k] = words
    return out


def reference_pair_candidates(layout: Layout, circuit: GadgetCircuit) -> list[tuple[int, int]]:
    """The pair screen one first location at a time: for each end row of
    location i, decode its product with every end row of every later
    location, on dense block words; the (i, j) candidates in order of i,
    then j."""
    locations = faults.enumerate_locations(circuit)
    ctx = faults.DecodeContext(layout, circuit.operands)
    frame = faults.propagate(circuit, locations)
    order = np.argsort(frame.owner, kind="stable")
    owner = frame.owner[order]
    data = reference_block_words(ctx, frame.x[:, order], frame.z[:, order])
    bounds = np.searchsorted(owner, np.arange(len(locations) + 1))
    out = []
    for i in range(len(locations)):
        lo, hi = bounds[i], bounds[i + 1]
        later = data[hi:]
        hit = np.zeros(len(later), bool)
        for row in data[lo:hi]:
            hit |= reference_residuals(ctx, later ^ row) != 0
        out.extend((i, int(j)) for j in np.flatnonzero(np.bincount(owner[hi:][hit])))
    return out


def reference_find_min_uncorrectable(layout: Layout, circuit: GadgetCircuit) -> faults.FaultReport:
    """The pair search that confirms every candidate: the block screen
    (``faults.PairScreen`` in ``faults.PAIR_BLOCK`` steps), then each
    candidate, in order, walked with its partner as one group and decoded;
    the first pair with a failing row is the witness, its least failing
    (x, z) row the branch."""
    locations = faults.enumerate_locations(circuit)
    ctx = faults.DecodeContext(layout, circuit.operands)
    frame = faults.propagate(circuit, locations)
    order = np.argsort(frame.owner, kind="stable")
    owner = frame.owner[order]
    screen = faults.PairScreen(ctx, ctx.data(frame.x[:, order], frame.z[:, order]), len(owner))
    bounds = np.searchsorted(owner, np.arange(len(locations) + 1))
    report = faults.FaultReport(layout.descriptor, circuit.label, len(locations), len(owner),
                                searched=2)
    i, size = 0, 1
    while i < len(locations):
        later = bounds[i + 1]
        step = max(faults.PAIR_BLOCK // max(len(owner) - later, 1), 1)
        end = max(i + 1, min(i + size, np.searchsorted(bounds, bounds[i] + step, "right") - 1))
        keys = []
        for lo in range(bounds[i], bounds[end], step):
            hi = min(lo + step, bounds[end])
            words = screen.pair_words(slice(lo, hi), slice(later, len(owner)))
            rows, cols = np.nonzero(ctx.outer_letters[words].any(axis=0))
            first, second = owner[lo + rows], owner[later + cols]
            keys.append((first * len(locations) + second)[second > first])
        keys = np.sort(np.concatenate(keys))
        for key in keys[np.diff(keys, prepend=-1) != 0]:
            a, b = (locations[int(k)] for k in divmod(key, len(locations)))
            joint = faults.propagate(circuit, ((0, a.place, a.x, a.z), (0, b.place, b.x, b.z)))
            residual = ctx.decode(joint.x, joint.z)
            failing = sorted((*joint.branch(r), r) for r in np.flatnonzero(residual))
            if failing:
                x, z, r = failing[0]
                letter = LETTERS[residual[r]]
                report.failures.append(faults.Failure((a.index, b.index), (x, z), letter))
                report.witness = (a, b)
                return report
        i, size = end, 2 * (end - i)
    return report


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


def reference_diagonal_action(code: StabilizerCode, circuit: GadgetCircuit,
                              claimed: Gate) -> Certificate:
    """The css-coset check by dict polynomials: every diagonal gate's
    factors are multiplied out term by term into one multilinear polynomial
    P mod 2*den over the mask and label bits, and one pass over the label
    tuples, in product order, restricts P less the claimed phase on the
    labels' product to each; the first restriction that varies over the
    support or has a non-zero constant is the refusal."""
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
