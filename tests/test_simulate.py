import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuconcat import gates, library, simulate
from nuconcat.circuits import GadgetCircuit, expand_transversal, invert, staircase_gadget
from nuconcat.gates import Gate, gate
from nuconcat.pauli import Pauli
from nuconcat.simulate import (Operand, StateVector, VerificationError,
                               apply_circuit, apply_pauli, codeword, encode, tensor,
                               verify_clifford_action, verify_diagonal_action,
                               verify_logical_action)


def test_state_cap():
    with pytest.raises(VerificationError):
        StateVector(23)


def test_apply_pauli_bits_and_phase():
    s = StateVector(2)  # |00>
    out = apply_pauli(s, Pauli.from_string("XI"))
    assert abs(out.amplitudes[1] - 1) < 1e-12
    out = apply_pauli(out, Pauli.from_string("ZI"))
    assert abs(out.amplitudes[1] + 1) < 1e-12  # Z on |1> flips the sign


def test_apply_gate_examples():
    s = StateVector(3)
    s = apply_circuit(s, GadgetCircuit(3, (gate(gates.X, 0), gate(gates.X, 1),
                                           gate(gates.X, 2)), "x3", ((0, 3),)))
    assert abs(s.amplitudes[7] - 1) < 1e-12
    ccz = GadgetCircuit(3, (gate(gates.CCZ, 0, 1, 2),), "ccz", ((0, 3),))
    out = apply_circuit(s, ccz)
    assert abs(out.amplitudes[7] + 1) < 1e-12
    # X twice is the identity
    twice = GadgetCircuit(3, (gate(gates.X, 0), gate(gates.X, 0)), "xx", ((0, 3),))
    assert np.allclose(apply_circuit(out, twice).amplitudes, out.amplitudes)
    # empty circuit
    assert np.allclose(apply_circuit(out, GadgetCircuit(3, (), "id", ((0, 3),))).amplitudes,
                       out.amplitudes)


def test_gate_application_matches_kron_oracle():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    for g in (gate(gates.H, 1), gate(gates.K, 2), gate(gates.S, 0),
              gate(gates.T, 1), gate(gates.CNOT, 2, 0), gate(gates.CZ, 0, 2)):
        got = simulate.apply_gate(StateVector(3, amps.copy()), g).amplitudes
        u = np.eye(1, dtype=complex)
        mats = {q: np.eye(2, dtype=complex) for q in range(3)}
        if len(g.qubits) == 1:
            mats[g.qubits[0]] = gates.gate_matrix(g)
            for q in (2, 1, 0):
                u = np.kron(u, mats[q])
        else:
            dim = 8
            u = np.zeros((dim, dim), dtype=complex)
            small = gates.gate_matrix(g)
            for c in range(dim):
                local = sum((((c >> q) & 1) << i) for i, q in enumerate(g.qubits))
                for local_out in range(len(small)):
                    amp = small[local_out, local]
                    if abs(amp) < 1e-15:
                        continue
                    out_idx = c
                    for i, q in enumerate(g.qubits):
                        bit = (local_out >> i) & 1
                        out_idx = (out_idx & ~(1 << q)) | (bit << q)
                    u[out_idx, c] += amp
        assert np.allclose(got, u @ amps), g.kind


def test_encode_invariants(cat):
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        code = cat.code(name)
        state = encode(code, 1, 0)
        for g in (*code.generators, code.logical_z):
            image = apply_pauli(state, g)
            assert abs(np.vdot(state.amplitudes, image.amplitudes) - 1) < 1e-12
    rm = cat.code("rm15")
    zero = codeword(rm, 0)
    nonzero = np.abs(zero.amplitudes) > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(zero.amplitudes[nonzero]), 0.25)


def test_encode_one_is_logical_x_of_zero(cat):
    code = cat.code("steane")
    one = codeword(code, 1)
    lifted = apply_pauli(codeword(code, 0), code.logical_x)
    assert np.allclose(one.amplitudes, lifted.amplitudes)


def test_encode_requires_normalised_inputs(cat):
    with pytest.raises(VerificationError):
        encode(cat.code("steane"), 1, 1)


def test_tensor_order():
    a = StateVector(1, np.array([0, 1], dtype=complex))   # |1>
    b = StateVector(1, np.array([1, 0], dtype=complex))   # |0>
    joint = tensor([a, b])  # qubit 0 = |1>, qubit 1 = |0>
    assert abs(joint.amplitudes[1] - 1) < 1e-12


def test_identity_circuit_verifies_for_all_codes(cat):
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        code = cat.code(name)
        empty = GadgetCircuit(code.n, (), "id", ((0, code.n),))
        cert = verify_logical_action([Operand.from_code(code)], empty, np.eye(2))
        assert cert.passed and abs(cert.phase - 1) < 1e-9


def test_dense_catches_wrong_claim(cat):
    code = cat.code("steane")
    g = staircase_gadget(code, 0, Fraction(1, 4))
    cert = verify_logical_action([Operand.from_code(code)], g,
                                 gates.gate_matrix(gate(gates.S, 0)))
    assert not cert.passed


def test_heisenberg_catches_wrong_claim(cat):
    code = cat.code("steane")
    rule = cat.rules["steane"][gates.H]
    circuit = expand_transversal(code, gates.H, rule, 1)
    assert verify_clifford_action([Operand.from_code(code)], circuit,
                                  gate(gates.H, 0)).passed
    assert not verify_clifford_action([Operand.from_code(code)], circuit,
                                      gate(gates.S, 0)).passed


def test_css_coset_catches_wrong_claim(cat):
    code = cat.code("rm15")
    rule = cat.rules["rm15"][gates.T]
    circuit = expand_transversal(code, gates.T, rule, 1)
    assert verify_diagonal_action([Operand.from_code(code)], circuit,
                                  gate(gates.T, 0)).passed
    wrong = verify_diagonal_action([Operand.from_code(code)], circuit,
                                   gate(gates.S, 0))
    assert not wrong.passed
    # plain T per qubit implements logical T_dagger, not T
    plain = GadgetCircuit(15, tuple(gate(gates.T, q) for q in range(15)), "t15", ((0, 15),))
    assert not verify_diagonal_action([Operand.from_code(code)], plain,
                                      gate(gates.T, 0)).passed
    assert verify_diagonal_action([Operand.from_code(code)], plain,
                                  gate(gates.T_DAG, 0)).passed


def test_css_coset_detects_leakage(cat):
    code = cat.code("rm15")
    # half a staircase leaves the permutation uncomputed
    half = GadgetCircuit(15, (gate(gates.CNOT, 0, 1),), "broken", ((0, 15),))
    cert = verify_diagonal_action([Operand.from_code(code)], half, gate(gates.Z, 0))
    assert not cert.passed and "permutation" in cert.details


def test_oracle_agreement_dense_vs_heisenberg(cat, lib):
    """Every Clifford gadget small enough for dense simulation gets the
    same verdict from both oracles."""
    cases = []
    for name, kind in [("steane", gates.H), ("steane", gates.S), ("steane", gates.CNOT),
                       ("steane", gates.CZ), ("rm15", gates.S), ("five_prime", gates.K)]:
        code = cat.code(name)
        arity = gates.ARITY[kind]
        if arity * code.n > simulate.MAX_DENSE_QUBITS:
            continue
        cases.append((code, expand_transversal(code, kind, cat.rules[name][kind], arity),
                      kind, arity))
    assert cases
    for code, circuit, kind, arity in cases:
        ops = [Operand.from_code(code)] * arity
        claimed = Gate(kind, tuple(range(arity)))
        dense = verify_logical_action(ops, circuit, gates.gate_matrix(claimed))
        heis = verify_clifford_action(ops, circuit, claimed)
        assert dense.passed == heis.passed == True


def test_verify_gadget_router(cat, lib, layouts):
    # dense for small registers
    adm = lib.base_staircase(cat.code("steane"), 0, Fraction(1, 4))
    assert adm.certificate.method == "dense"
    # heisenberg for large Clifford
    adm = lib.gadget(layouts[49], library.logical_gate(gates.CNOT))
    assert adm.certificate.method == "heisenberg"
    # coset phases for large diagonal
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    assert adm.certificate.method == "css-coset"


# Method strings of every catalog declaration, frozen from the two-path
# css-coset oracle this check replaced; oracle routing must keep them.
RULE_METHODS = {
    ("five_prime", "K"): "heisenberg+dense", ("five_prime", "X"): "heisenberg+dense",
    ("five_prime", "Y"): "heisenberg+dense", ("five_prime", "Z"): "heisenberg+dense",
    ("five_qubit", "X"): "heisenberg+dense", ("five_qubit", "Y"): "heisenberg+dense",
    ("five_qubit", "Z"): "css-coset+heisenberg+dense",
    ("rm15", "CCZ"): "css-coset", ("rm15", "CNOT"): "heisenberg",
    ("rm15", "CZ"): "css-coset+heisenberg", ("rm15", "S"): "css-coset+heisenberg+dense",
    ("rm15", "T"): "css-coset+dense", ("rm15", "X"): "heisenberg+dense",
    ("rm15", "Y"): "heisenberg+dense", ("rm15", "Z"): "css-coset+heisenberg+dense",
    ("steane", "CNOT"): "heisenberg+dense", ("steane", "CZ"): "css-coset+heisenberg+dense",
    ("steane", "H"): "heisenberg+dense", ("steane", "S"): "css-coset+heisenberg+dense",
    ("steane", "X"): "heisenberg+dense", ("steane", "Y"): "heisenberg+dense",
    ("steane", "Z"): "css-coset+heisenberg+dense",
}


def test_rule_certificate_methods(cat, lib):
    got = {(name, kind): lib.rule_certificate(name, kind).method
           for name, rules in cat.rules.items() for kind in rules}
    assert got == RULE_METHODS


def test_css_coset_certifies_98_qubit_conjugated_cz(lib, layouts):
    """T ; CZ ; T^-1 on two code49 operands acts as CZ: a 98-qubit register
    with phases finer than pi on a support far too large to enumerate."""
    lay = layouts[49]
    t = lib.dispatcher.logical_gadget(lay, library.logical_gate(gates.T))
    cz = lib.dispatcher.logical_gadget(lay, library.logical_gate(gates.CZ))
    operands = [Operand.from_layout(lay)] * 2
    claim = library.logical_gate(gates.CZ)
    good = GadgetCircuit(98, t.gates + cz.gates + invert(t).gates, "T;CZ;T^-1", cz.blocks)
    cert = verify_diagonal_action(operands, good, claim)
    assert cert.passed and cert.method == "css-coset"
    broken = GadgetCircuit(98, t.gates + cz.gates, "T;CZ", cz.blocks)
    assert not verify_diagonal_action(operands, broken, claim).passed


DYADIC = st.builds(Fraction, st.integers(0, 15), st.sampled_from([1, 2, 4, 8]))


# k = 2 is one fixed example: a 21-qubit dense check takes seconds and
# close to a gigabyte.
@settings(max_examples=20, deadline=None)
@given(k=st.integers(0, 1), theta=DYADIC)
@example(k=2, theta=Fraction(3, 8))
def test_staircase_css_coset_agrees_with_dense(cat, k, theta):
    code = cat.code("steane")
    circuit = staircase_gadget(code, k, theta)
    operands = [Operand.from_code(code)] * (k + 1)
    for claim_theta, expected in ((theta, True), (theta + Fraction(1, 4), False)):
        claim = gates.diagonal_gate(tuple(range(k + 1)), claim_theta)
        assert verify_diagonal_action(operands, circuit, claim).passed == expected
        assert verify_logical_action(operands, circuit,
                                     gates.gate_matrix(claim)).passed == expected


def _draw_conjugated_diagonal(data, code, m: int) -> tuple[GadgetCircuit, Gate]:
    """Random X/CNOT prefix, diagonal middle and inverse prefix on m copies
    of ``code``, with a random diagonal claim on all m operands."""
    n = code.n * m
    qubit = st.integers(0, n - 1)
    perm = data.draw(st.lists(st.one_of(
        qubit.map(lambda q: gate(gates.X, q)),
        st.lists(qubit, min_size=2, max_size=2, unique=True).map(
            lambda ab: gate(gates.CNOT, *ab))), max_size=4))
    quarter = st.integers(0, 7).map(lambda j: Fraction(j, 4))
    # Z strings of Z-type stabilizers and logical Z keep the phase constant
    strings = [g.z for g in (*code.generators, code.logical_z) if not g.x]
    pool = [tuple(gate(gates.Z, b * code.n + q) for q in range(code.n) if (z >> q) & 1)
            for b in range(m) for z in strings]
    middle = data.draw(st.lists(st.one_of(
        st.sampled_from(pool),
        st.builds(lambda qs, t: (gates.diagonal_gate(tuple(qs), t),),
                  st.lists(qubit, min_size=1, max_size=3, unique=True), quarter)),
        max_size=4))
    circuit = GadgetCircuit(n, (*perm, *(g for part in middle for g in part), *reversed(perm)),
                            "random", ((0, n),))
    return circuit, gates.diagonal_gate(tuple(range(m)), data.draw(quarter))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_diagonal_circuits_css_coset_vs_dense(cat, data):
    """Both oracles accept the same circuits, with the same global phase."""
    name, m = data.draw(st.sampled_from([("steane", 1), ("steane", 2), ("rm15", 1)]))
    code = cat.code(name)
    circuit, claim = _draw_conjugated_diagonal(data, code, m)
    operands = [Operand.from_code(code)] * m
    coset = verify_diagonal_action(operands, circuit, claim)
    dense = verify_logical_action(operands, circuit, gates.gate_matrix(claim))
    assert coset.passed == dense.passed
    if coset.passed:
        assert abs(coset.phase - dense.phase) < 1e-9


def _enumerated_verdict(operands: list[Operand], circuit: GadgetCircuit, claimed: Gate) -> bool:
    """Brute-force reference for CSS operands: run every word of every
    codeword support through the circuit and sum the phases it picks up;
    the first word, at labels (0, ..., 0), fixes the global phase."""
    offsets = [sum(op.n for op in operands[:b]) for b in range(len(operands))]
    global_phase = None
    for labels in itertools.product(range(2), repeat=len(operands)):
        seed, span = 0, []
        for op, off, label in zip(operands, offsets, labels):
            seed ^= (op.logical_x.x << off) * label
            span += [g.x << off for g in op.generators if g.x]
        want = claimed.theta() if all(labels) else 0
        for mask in range(1 << len(span)):
            word = seed
            for i, v in enumerate(span):
                if (mask >> i) & 1:
                    word ^= v
            start, phase = word, Fraction(0)
            for g in circuit.gates:
                if g.kind == gates.X:
                    word ^= 1 << g.qubits[0]
                elif g.kind == gates.CNOT:
                    word ^= ((word >> g.qubits[0]) & 1) << g.qubits[1]
                elif all((word >> q) & 1 for q in g.qubits):
                    phase += g.theta()
            if global_phase is None:
                global_phase = phase
            if word != start or (phase - global_phase - want) % 2:
                return False
    return True


def test_css_coset_matches_enumeration_beyond_dense_cap(cat):
    code = cat.code("rm15")
    circuit = expand_transversal(code, gates.CCZ, cat.rules["rm15"][gates.CCZ], 3)
    operands = [Operand.from_code(code)] * 3
    for theta in (Fraction(1), Fraction(1, 2)):
        claim = gates.diagonal_gate((0, 1, 2), theta)
        assert verify_diagonal_action(operands, circuit, claim).passed \
            == _enumerated_verdict(operands, circuit, claim) == (theta == 1)


def test_css_coset_accepts_a_global_phase(cat):
    """X^7 Z^7 X^7 on Steane is -Z: both oracles certify Z with phase -1."""
    code = cat.code("steane")
    xs = tuple(gate(gates.X, q) for q in range(7))
    zs = tuple(gate(gates.Z, q) for q in range(7))
    circuit = GadgetCircuit(7, xs + zs + xs, "-Z", ((0, 7),))
    operands = [Operand.from_code(code)]
    claim = library.logical_gate(gates.Z)
    for cert in (verify_diagonal_action(operands, circuit, claim),
                 verify_logical_action(operands, circuit, gates.gate_matrix(claim))):
        assert cert.passed and abs(cert.phase + 1) < 1e-9


def test_css_coset_accepts_a_global_phase_beyond_dense_cap(cat):
    """X0 Z0 X0 Z0 = -I ahead of the rm15 transversal CZ on 30 qubits."""
    code = cat.code("rm15")
    cz = expand_transversal(code, gates.CZ, cat.rules["rm15"][gates.CZ], 2)
    prefix = (gate(gates.X, 0), gate(gates.Z, 0)) * 2
    circuit = GadgetCircuit(30, prefix + cz.gates, "-CZ", cz.blocks)
    operands = [Operand.from_code(code)] * 2
    claim = library.logical_gate(gates.CZ)
    cert = verify_diagonal_action(operands, circuit, claim)
    assert cert.passed and abs(cert.phase + 1) < 1e-9
    assert _enumerated_verdict(operands, circuit, claim)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_diagonal_circuits_css_coset_vs_enumeration(cat, data):
    """Two rm15 operands: 30 qubits, past the dense cap."""
    code = cat.code("rm15")
    circuit, claim = _draw_conjugated_diagonal(data, code, 2)
    operands = [Operand.from_code(code)] * 2
    assert verify_diagonal_action(operands, circuit, claim).passed \
        == _enumerated_verdict(operands, circuit, claim)
