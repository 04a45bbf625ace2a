import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuconcat import codes, gates, library, simulate
from nuconcat.circuits import GadgetCircuit, expand_transversal
from nuconcat.codes import StabilizerCode
from nuconcat.concat import flatten
from nuconcat.gates import Gate, gate
from nuconcat.pauli import Pauli
from nuconcat.simulate import (VerificationError, apply_circuit, apply_pauli,
                               codewords, verify_clifford_action, verify_diagonal_action,
                               verify_logical_action)
from reference import invert, pauli_on_vector, reference_codewords, staircase_gadget


def test_state_cap(cat):
    blocks = tuple((7 * b, 7) for b in range(4))
    with pytest.raises(VerificationError, match="dense cap"):
        verify_logical_action(cat.code("steane"), GadgetCircuit(28, (), "id", blocks),
                              gates.diagonal_gate((0, 1, 2, 3), 0))


def test_apply_pauli_bits_and_phase():
    s = np.array([1, 0, 0, 0], dtype=complex)  # |00>
    out = pauli_on_vector(s, Pauli.from_string("XI"))
    assert abs(out[1] - 1) < 1e-12
    out = pauli_on_vector(out, Pauli.from_string("ZI"))
    assert abs(out[1] + 1) < 1e-12  # Z on |1> flips the sign
    # on listed amplitudes only: Y|1> = -i|0>, Y|0> = i|1>
    idx, amps = apply_pauli(Pauli.from_string("YI"), np.array([1, 0]), np.array([1, 2j]))
    assert idx.tolist() == [0, 1] and np.allclose(amps, [-1j, -2])


def test_apply_gate_examples():
    s = np.zeros((1, 8), dtype=complex)
    s[0, 0] = 1
    out = apply_circuit(s, GadgetCircuit(3, (gate(gates.X, 0), gate(gates.X, 1),
                                             gate(gates.X, 2)), "x3", ((0, 3),)))
    assert out is s  # in place
    assert abs(s[0, 7] - 1) < 1e-12
    ccz = GadgetCircuit(3, (gate(gates.CCZ, 0, 1, 2),), "ccz", ((0, 3),))
    apply_circuit(s, ccz)
    assert abs(s[0, 7] + 1) < 1e-12
    before = s.copy()
    # X twice is the identity
    twice = GadgetCircuit(3, (gate(gates.X, 0), gate(gates.X, 0)), "xx", ((0, 3),))
    assert np.allclose(apply_circuit(s, twice), before)
    # empty circuit
    assert np.allclose(apply_circuit(s, GadgetCircuit(3, (), "id", ((0, 3),))), before)
    with pytest.raises(VerificationError):  # rows of the wrong width
        apply_circuit(np.zeros((1, 4), dtype=complex), ccz)


def _kron_reference(g: Gate, n: int) -> np.ndarray:
    """The gate as a 2^n x 2^n matrix: a Kronecker product of 2 x 2 blocks
    for one-qubit gates, entry by entry from the local matrix otherwise."""
    if len(g.qubits) == 1:
        u = np.eye(1, dtype=complex)
        for q in reversed(range(n)):
            u = np.kron(u, gates.gate_matrix(g) if q == g.qubits[0] else np.eye(2))
        return u
    dim = 1 << n
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
    return u


ONE_QUBIT_KINDS = [k for k, arity in gates.ARITY.items() if arity == 1]
EIGHTHS = st.integers(0, 15).map(lambda j: Fraction(j, 8))


@st.composite
def random_circuits(draw):
    """A circuit on 1-6 qubits drawing every gate kind, including Z_THETA
    and CKZ_THETA, and CNOTs with the control above or below the target."""
    n = draw(st.integers(1, 6))
    kinds = ONE_QUBIT_KINDS + [gates.Z_THETA] + [
        k for k in (gates.CNOT, gates.CZ, gates.CCZ, gates.CKZ_THETA)
        if gates.ARITY.get(k, 2) <= n]
    gate_list = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind in gates.ARITY:
            width, theta = gates.ARITY[kind], None
        else:
            width = 1 if kind == gates.Z_THETA else draw(st.integers(2, n))
            theta = draw(EIGHTHS)
        gate_list.append(Gate(kind, tuple(draw(st.permutations(range(n)))[:width]), theta))
    return GadgetCircuit(n, tuple(gate_list), "random", ((0, n),))


@settings(max_examples=80, deadline=None)
@given(circuit=random_circuits(), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(circuit=GadgetCircuit(3, (gate(gates.CNOT, 2, 0), gate(gates.H, 1),
                                   gate(gates.CNOT, 0, 2), gate(gates.Y, 2),
                                   gate(gates.K_DAG, 0), gate(gates.S_DAG, 1)),
                               "both-cnots", ((0, 3),)), rows=2, seed=11)
def test_gate_application_matches_kron_oracle(circuit, rows, seed):
    """One in-place pass over a batch of rows equals the product of the
    per-gate Kronecker matrices applied to each row."""
    rng = np.random.default_rng(seed)
    dim = 1 << circuit.register_size
    states = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = _kron_reference(g, circuit.register_size) @ u
    want = states @ u.T
    assert apply_circuit(states, circuit) is states
    assert np.allclose(states, want)


def test_encode_invariants(cat):
    """Both codewords are +1 eigenstates of every generator; logical Z
    reads +1 on |0> and -1 on |1>."""
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        code = cat.code(name)
        pair = codewords(code)
        assert pair.shape == (2, 1 << code.n)
        for label, word in enumerate(pair):
            assert abs(np.vdot(word, word) - 1) < 1e-12
            for g in code.generators:
                assert abs(np.vdot(word, pauli_on_vector(word, g)) - 1) < 1e-12
            assert abs(np.vdot(word, pauli_on_vector(word, code.logical_z)) - (-1) ** label) < 1e-12
    zero = codewords(cat.code("rm15"))[0]
    nonzero = np.abs(zero) > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(zero[nonzero]), 0.25)


def test_encode_one_is_logical_x_of_zero(cat):
    code = cat.code("steane")
    zero, one = codewords(code)
    assert np.allclose(one, pauli_on_vector(zero, code.logical_x))


def test_codewords_equal_the_dense_projection_exactly(cat):
    """The projection on reached states runs the dense loop's float
    operations on every reached entry.  The dense oracle's fidelities and
    phases are pinned outputs, so the comparison is exact, not allclose."""
    for code in (*cat.codes.values(), codes.BARE):
        assert np.array_equal(codewords(code), reference_codewords(code)), code.name


def test_identity_circuit_verifies_for_all_codes(cat):
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        code = cat.code(name)
        empty = GadgetCircuit(code.n, (), "id", ((0, code.n),))
        cert = verify_logical_action(code, empty, gates.diagonal_gate((0,), 0))
        assert cert.passed and abs(cert.phase - 1) < 1e-9


def test_dense_keeps_distinct_operands_in_order(cat):
    """Block 0 on the lowest qubits and label bit 0, block 1 above it: the
    transversal CNOT from block 1 onto block 0 is a logical CNOT controlled
    by operand 1, not by operand 0."""
    code = cat.code("steane")
    circuit = GadgetCircuit(14, tuple(gate(gates.CNOT, 7 + q, q) for q in range(7)),
                            "CNOT(1->0)", ((0, 7), (7, 7)))
    assert verify_logical_action(code, circuit, gate(gates.CNOT, 1, 0)).passed
    assert not verify_logical_action(code, circuit, gate(gates.CNOT, 0, 1)).passed


def test_dense_catches_wrong_claim(cat):
    code = cat.code("steane")
    g = staircase_gadget(code, 0, Fraction(1, 4))
    cert = verify_logical_action(code, g, gate(gates.S, 0))
    assert not cert.passed


def test_dense_refuses_a_claim_orthogonal_to_the_action(cat):
    """tr(claim^dag U_L) = 0 for Z claimed as X or Y and for the identity
    claimed as X: the phase falls back to 1 and the claim is refused, by
    the dense oracle and by the router, which picks dense at these sizes."""
    steane = cat.code("steane")
    z7 = GadgetCircuit(7, tuple(gate(gates.Z, q) for q in range(7)), "Z7", ((0, 7),))
    cases = [(steane, z7, gates.X), (steane, z7, gates.Y)]
    for name in ("steane", "rm15"):
        code = cat.code(name)
        cases.append((code, GadgetCircuit(code.n, (), "id", ((0, code.n),)), gates.X))
    for code, circuit, kind in cases:
        claimed = gate(kind, 0)
        for cert in (verify_logical_action(code, circuit, claimed),
                     library.verify_gadget(code, circuit, claimed)):
            assert cert.method == "dense" and not cert.passed, (code.name, circuit.label, kind)
            assert cert.details == "logical action mismatch"
            assert np.isfinite(cert.phase) and cert.fidelity < 1e-12


def test_dense_reports_the_worst_case_leakage(cat):
    """A lone H (and a lone T) on qubit 0 of Steane: the reported leakage
    is 1 - lambda_min(U_L^dag U_L), with U_L built here from the dense
    codeword projection and the gate's full 2^7 matrix."""
    code = cat.code("steane")
    pair = reference_codewords(code)
    for kind in (gates.H, gates.T):
        u = np.kron(np.eye(1 << 6), gates.gate_matrix(gate(kind, 0)))  # qubit 0 = lowest bit
        logical = pair.conj() @ u @ pair.T
        leak = 1 - np.linalg.eigvalsh(logical.conj().T @ logical)[0]
        circuit = GadgetCircuit(7, (gate(kind, 0),), f"{kind}@0", ((0, 7),))
        cert = verify_logical_action(code, circuit, gate(kind, 0))
        assert not cert.passed and cert.details == f"left the code space (leakage {leak:.3e})"
        assert abs(cert.fidelity - (1 - leak)) < 1e-12


def test_heisenberg_catches_wrong_claim(cat):
    code = cat.code("steane")
    rule = cat.rules["steane"][gates.H]
    circuit = expand_transversal(code, gates.H, rule)
    assert verify_clifford_action(code, circuit, gate(gates.H, 0)).passed
    assert not verify_clifford_action(code, circuit, gate(gates.S, 0)).passed


def test_css_coset_catches_wrong_claim(cat):
    code = cat.code("rm15")
    rule = cat.rules["rm15"][gates.T]
    circuit = expand_transversal(code, gates.T, rule)
    assert verify_diagonal_action(code, circuit, gate(gates.T, 0)).passed
    assert not verify_diagonal_action(code, circuit, gate(gates.S, 0)).passed
    # plain T per qubit implements logical T_dagger, not T
    plain = GadgetCircuit(15, tuple(gate(gates.T, q) for q in range(15)), "t15", ((0, 15),))
    assert not verify_diagonal_action(code, plain, gate(gates.T, 0)).passed
    assert verify_diagonal_action(code, plain, gate(gates.T_DAG, 0)).passed


def test_css_coset_names_the_first_failing_label_tuple(cat):
    """A refusal reads the first failing label tuple, in product order,
    off the one polynomial: a constant off the claim, or a phase that
    varies over the support."""
    code = cat.code("rm15")
    ccz = expand_transversal(code, gates.CCZ, cat.rules["rm15"][gates.CCZ])
    cert = verify_diagonal_action(code, ccz, gates.diagonal_gate((0, 1, 2), Fraction(1, 2)))
    assert not cert.passed and cert.details == "phase 1 != 1/2 at labels (1, 1, 1)"
    lone = GadgetCircuit(15, (gate(gates.T_DAG, 3),), "T_DAG@3", ((0, 15),))
    cert = verify_diagonal_action(code, lone, gate(gates.Z, 0))
    assert not cert.passed and cert.details == "phase varies over the support at labels (0,)"
    # logical T on operand 1 only, claimed as CZ: labels (0, 1) fail before (1, 0)
    t_on_1 = GadgetCircuit(30, tuple(gate(gates.T_DAG, 15 + q) for q in range(15)), "T@1",
                           ((0, 15), (15, 15)))
    cert = verify_diagonal_action(code, t_on_1, gate(gates.CZ, 0, 1))
    assert not cert.passed and cert.details == "phase 1/4 != 0 at labels (0, 1)"


def test_css_coset_detects_leakage(cat):
    code = cat.code("rm15")
    # half a staircase leaves the permutation uncomputed
    half = GadgetCircuit(15, (gate(gates.CNOT, 0, 1),), "broken", ((0, 15),))
    cert = verify_diagonal_action(code, half, gate(gates.Z, 0))
    assert not cert.passed and "permutation" in cert.details


def test_every_oracle_refuses_blocks_that_are_not_copies_of_the_code(cat):
    """Steane's 7-qubit transversal H checked against rm15 (15 qubits):
    each oracle refuses instead of judging the circuit."""
    steane = cat.code("steane")
    circuit = expand_transversal(steane, gates.H, cat.rules["steane"][gates.H])
    h = gate(gates.H, 0)
    for oracle in (verify_logical_action, verify_clifford_action, verify_diagonal_action):
        with pytest.raises(VerificationError,
                           match=r"a block of 7 qubits is not a copy of rm15 \(15 qubits\)"):
            oracle(cat.code("rm15"), circuit, h)


def test_every_oracle_refuses_a_claim_of_the_wrong_arity(cat):
    """Steane's transversal Z on one operand claimed as a two-operand CZ:
    each oracle refuses instead of judging the circuit."""
    code = cat.code("steane")
    circuit = expand_transversal(code, gates.Z, cat.rules["steane"][gates.Z])
    cz = gate(gates.CZ, 0, 1)
    for oracle in (verify_logical_action, verify_clifford_action, verify_diagonal_action):
        with pytest.raises(VerificationError, match="claim does not act on exactly the 1 operands"):
            oracle(code, circuit, cz)


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
        cases.append((code, expand_transversal(code, kind, cat.rules[name][kind]),
                      kind, arity))
    assert cases
    for code, circuit, kind, arity in cases:
        claimed = Gate(kind, tuple(range(arity)))
        dense = verify_logical_action(code, circuit, claimed)
        heis = verify_clifford_action(code, circuit, claimed)
        assert dense.passed == heis.passed == True


def test_verify_gadget_router(cat, lib, layouts):
    # dense for small registers
    code = cat.code("steane")
    claim = gates.diagonal_gate((0,), Fraction(1, 4))
    cert = library.verify_gadget(code, staircase_gadget(code, 0, Fraction(1, 4)), claim)
    assert cert.method == "dense"
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
    code = flatten(lay)
    claim = library.logical_gate(gates.CZ)
    good = GadgetCircuit(98, t.gates + cz.gates + invert(t).gates, "T;CZ;T^-1", cz.blocks)
    cert = verify_diagonal_action(code, good, claim)
    assert cert.passed and cert.method == "css-coset"
    broken = GadgetCircuit(98, t.gates + cz.gates, "T;CZ", cz.blocks)
    assert not verify_diagonal_action(code, broken, claim).passed


DYADIC = st.builds(Fraction, st.integers(0, 15), st.sampled_from([1, 2, 4, 8]))


# k = 2 is one fixed example: one dense call on its 21 qubits takes about
# 2 s and peaks at 420 MB RSS (2-core x86 VM, Python 3.11, numpy 2.4).
# Z_THETA pi/3 and CKZ_THETA 2pi/3 have denominator 3: mod 2*den no power
# of two vanishes, so the xor polynomials keep every degree.
@settings(max_examples=20, deadline=None)
@given(k=st.integers(0, 1), theta=DYADIC)
@example(k=2, theta=Fraction(3, 8))
@example(k=0, theta=Fraction(1, 3))
@example(k=1, theta=Fraction(2, 3))
def test_staircase_css_coset_agrees_with_dense(cat, k, theta):
    code = cat.code("steane")
    circuit = staircase_gadget(code, k, theta)
    for claim_theta, expected in ((theta, True), (theta + Fraction(1, 4), False)):
        claim = gates.diagonal_gate(tuple(range(k + 1)), claim_theta)
        assert verify_diagonal_action(code, circuit, claim).passed == expected
        assert verify_logical_action(code, circuit, claim).passed == expected


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
                            "random", tuple((b * code.n, code.n) for b in range(m)))
    return circuit, gates.diagonal_gate(tuple(range(m)), data.draw(quarter))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_diagonal_circuits_css_coset_vs_dense(cat, data):
    """Both oracles accept the same circuits, with the same global phase."""
    name, m = data.draw(st.sampled_from([("steane", 1), ("steane", 2), ("rm15", 1)]))
    code = cat.code(name)
    circuit, claim = _draw_conjugated_diagonal(data, code, m)
    coset = verify_diagonal_action(code, circuit, claim)
    dense = verify_logical_action(code, circuit, claim)
    assert coset.passed == dense.passed
    if coset.passed:
        assert abs(coset.phase - dense.phase) < 1e-9


def _enumerated_verdict(code: StabilizerCode, circuit: GadgetCircuit, claimed: Gate) -> bool:
    """Brute-force reference for a CSS code: run every word of every
    codeword support, one copy of ``code`` per block, through the circuit
    and sum the phases it picks up; the first word, at labels (0, ..., 0),
    fixes the global phase."""
    global_phase = None
    for labels in itertools.product(range(2), repeat=len(circuit.blocks)):
        seed, span = 0, []
        for (off, _), label in zip(circuit.blocks, labels):
            seed ^= (code.logical_x.x << off) * label
            span += [g.x << off for g in code.generators if g.x]
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
    circuit = expand_transversal(code, gates.CCZ, cat.rules["rm15"][gates.CCZ])
    for theta in (Fraction(1), Fraction(1, 2)):
        claim = gates.diagonal_gate((0, 1, 2), theta)
        assert verify_diagonal_action(code, circuit, claim).passed \
            == _enumerated_verdict(code, circuit, claim) == (theta == 1)


def test_css_coset_accepts_a_global_phase(cat):
    """X^7 Z^7 X^7 on Steane is -Z: both oracles certify Z with phase -1."""
    code = cat.code("steane")
    xs = tuple(gate(gates.X, q) for q in range(7))
    zs = tuple(gate(gates.Z, q) for q in range(7))
    circuit = GadgetCircuit(7, xs + zs + xs, "-Z", ((0, 7),))
    claim = library.logical_gate(gates.Z)
    for cert in (verify_diagonal_action(code, circuit, claim),
                 verify_logical_action(code, circuit, claim)):
        assert cert.passed and abs(cert.phase + 1) < 1e-9


def test_css_coset_accepts_a_global_phase_beyond_dense_cap(cat):
    """X0 Z0 X0 Z0 = -I ahead of the rm15 transversal CZ on 30 qubits."""
    code = cat.code("rm15")
    cz = expand_transversal(code, gates.CZ, cat.rules["rm15"][gates.CZ])
    prefix = (gate(gates.X, 0), gate(gates.Z, 0)) * 2
    circuit = GadgetCircuit(30, prefix + cz.gates, "-CZ", cz.blocks)
    claim = library.logical_gate(gates.CZ)
    cert = verify_diagonal_action(code, circuit, claim)
    assert cert.passed and abs(cert.phase + 1) < 1e-9
    assert _enumerated_verdict(code, circuit, claim)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_diagonal_circuits_css_coset_vs_enumeration(cat, data):
    """Two rm15 operands: 30 qubits, past the dense cap."""
    code = cat.code("rm15")
    circuit, claim = _draw_conjugated_diagonal(data, code, 2)
    assert verify_diagonal_action(code, circuit, claim).passed \
        == _enumerated_verdict(code, circuit, claim)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), theta=DYADIC,
       shift=st.one_of(st.just(Fraction(0)),
                       st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)])))
def test_three_steane_blocks_css_coset_vs_enumeration(cat, data, theta, shift):
    """Three label variables on 21 qubits: a C^2Z(theta) staircase puts
    theta on the degree-3 label monomial, a random conjugated diagonal
    rides along, and the claim is off by ``shift``."""
    code = cat.code("steane")
    noise, _ = _draw_conjugated_diagonal(data, code, 3)
    stair = staircase_gadget(code, 2, theta)
    circuit = GadgetCircuit(21, stair.gates + noise.gates, "stair+noise", noise.blocks)
    claim = gates.diagonal_gate((0, 1, 2), theta + shift)
    assert verify_diagonal_action(code, circuit, claim).passed \
        == _enumerated_verdict(code, circuit, claim)
