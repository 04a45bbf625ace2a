"""Pauli-level reference implementations that only tests use: each is the
slow, obviously correct form of something the package does on arrays."""

from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from nuconcat import faults, gates
from nuconcat.circuits import GadgetCircuit, GadgetDispatcher
from nuconcat.codes import (LOGICAL_CLASSES, LookupDecoder, StabilizerCode, build_decoder,
                            min_weight_logical, normalizer_class, syndrome)
from nuconcat.concat import DistanceResult, Layout, _min_weight_lift, bare_layout
from nuconcat.pauli import DimensionError, Pauli
from nuconcat.simulate import VerificationError, apply_pauli


def from_letters(n: int, letters: Mapping[int, str]) -> Pauli:
    """The product of ``letter`` on ``q`` for each entry, identity elsewhere."""
    p = Pauli.identity(n)
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


def is_uniform(layout: Layout) -> bool:
    """Every outer qubit carries the same inner code."""
    return len({inner.name for inner in layout.assignment}) == 1


def staircase_gadget(code: StabilizerCode, k: int, theta: Fraction) -> GadgetCircuit:
    """Logical C^kZ(theta) on k+1 bare blocks of ``code``, coupling d qubits each."""
    return GadgetDispatcher({})._outer_staircase(bare_layout(code), k, theta)


def stabilizer_elements(code: StabilizerCode):
    """All 2^(n-1) group elements with exact signs (Gray-code walk)."""
    current = Pauli.identity(code.n)
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
    return DistanceResult(weight, _min_weight_lift(layout, elem), elem, cls)


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
                         f"inv({c.label})", c.blocks)


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
                image = gates._local_table(g.kind)[(_extract(bx, qs), _extract(bz, qs))]
                moved.add(((bx & ~qmask) | _deposit(image.x, qs),
                           (bz & ~qmask) | _deposit(image.z, qs)))
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
