import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nuconcat
from nuconcat import catalog as cataloglib
from nuconcat import codes, gates, library, simulate
from nuconcat.circuits import GadgetCircuit, SynthesisError, TransversalRule
from nuconcat.codes import StabilizerCode
from nuconcat.concat import flatten
from nuconcat.gates import Gate, gate
from nuconcat.pauli import Pauli
from nuconcat.simulate import (VerificationError, apply_circuit, apply_pauli,
                               codewords, verify_clifford_action, verify_diagonal_action,
                               verify_logical_action)
from reference import (densify, expand_transversal, invert, pauli_on_vector,
                       reference_apply_circuit, reference_clifford_action, reference_codewords,
                       reference_diagonal_action, reference_logical_action, staircase_gadget)


def test_state_cap(cat):
    with pytest.raises(simulate.NotApplicable, match="dense cap"):
        verify_logical_action(cat.code("steane"), GadgetCircuit(28, (), "id", 4),
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
    full = np.arange(8)
    s = np.zeros((1, 8), dtype=complex)
    s[0, 0] = 1
    x3 = GadgetCircuit(3, (gate(gates.X, 0), gate(gates.X, 1), gate(gates.X, 2)), "x3", 1)
    s = densify(*apply_circuit(full, s, x3), 3)
    assert abs(s[0, 7] - 1) < 1e-12
    ccz = GadgetCircuit(3, (gate(gates.CCZ, 0, 1, 2),), "ccz", 1)
    s = densify(*apply_circuit(full, s, ccz), 3)
    assert abs(s[0, 7] + 1) < 1e-12
    before = s.copy()
    # X twice is the identity
    twice = GadgetCircuit(3, (gate(gates.X, 0), gate(gates.X, 0)), "xx", 1)
    assert np.allclose(densify(*apply_circuit(full, s, twice), 3), before)
    # empty circuit
    assert np.allclose(densify(*apply_circuit(full, s, GadgetCircuit(3, (), "id", 1)), 3),
                       before)
    assert np.array_equal(s, before)  # the inputs are left as they were
    with pytest.raises(VerificationError):  # rows of the wrong width
        apply_circuit(full, np.zeros((1, 4), dtype=complex), ccz)


@pytest.mark.parametrize("scale", [2.0, 1 + 1e-9])
def test_apply_circuit_refuses_a_drifting_norm(monkeypatch, scale):
    """An H matrix scaled off unitarity, grossly or by 1e-9, changes the
    norm of every row it mixes: the dense pass refuses the batch."""
    gate_matrix = gates.gate_matrix
    monkeypatch.setattr(gates, "gate_matrix",
                        lambda g: scale * gate_matrix(g) if g.kind == gates.H else gate_matrix(g))
    states = np.zeros((2, 4), dtype=complex)
    states[0, 0] = states[1, 3] = 1
    h = GadgetCircuit(2, (gate(gates.X, 1), gate(gates.H, 0)), "XH", 1)
    with pytest.raises(VerificationError, match="statevector norm drifted"):
        apply_circuit(np.arange(4), states, h)


@pytest.mark.parametrize("idx, amps, match", [
    ([0, 3, 1, 3], np.eye(1, 4, dtype=complex), "indices must be distinct"),
    ([0, -1], np.eye(1, 2, dtype=complex), r"must be a 1-D array of integers in \[0, 2\^2\)"),
    ([0, 4], np.eye(1, 2, dtype=complex), r"integers in \[0, 2\^2\)"),
    ([0.0, 1.0], np.eye(1, 2, dtype=complex), r"integers in \[0, 2\^2\)"),
    ([0, 1, 2], np.eye(1, 2, dtype=complex), r"rows x 3 indices, not complex128 \(1, 2\)"),
    ([0, 1], np.eye(1, 2, dtype=complex)[0], r"rows x 2 indices, not complex128 \(2,\)"),
    ([0, 1], np.eye(1, 2), r"must be a complex array .* not float64"),
    ([0, 1], np.eye(1, 2, dtype=np.complex64), r"must be a complex array .* not complex64"),
])
def test_apply_circuit_refuses_malformed_batches(idx, amps, match):
    """Repeated or out-of-range indices and amplitudes of the wrong shape
    or dtype are refused before any gate runs."""
    h = GadgetCircuit(2, (gate(gates.H, 0),), "H", 1)
    with pytest.raises(VerificationError, match=match):
        apply_circuit(np.array(idx), amps, h)


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
THIRDS = st.integers(0, 5).map(lambda j: Fraction(j, 3))


@st.composite
def random_circuits(draw, max_qubits=6, angles=EIGHTHS):
    """A circuit on 1 to ``max_qubits`` qubits drawing every gate kind,
    including Z_THETA and CKZ_THETA at ``angles``, and CNOTs with the
    control above or below the target."""
    n = draw(st.integers(1, max_qubits))
    kinds = ONE_QUBIT_KINDS + [gates.Z_THETA] + [
        k for k in (gates.CNOT, gates.CZ, gates.CCZ, gates.CKZ_THETA)
        if gates.ARITY.get(k, 2) <= n]
    gate_list = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind in gates.ARITY:
            width, theta = gates.ARITY[kind], None
        else:
            width = 1 if kind == gates.Z_THETA else draw(st.integers(2, n))
            theta = draw(angles)
        gate_list.append(Gate(kind, tuple(draw(st.permutations(range(n)))[:width]), theta))
    return GadgetCircuit(n, tuple(gate_list), "random", 1)


@settings(max_examples=80, deadline=None)
@given(circuit=random_circuits(), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(circuit=GadgetCircuit(3, (gate(gates.CNOT, 2, 0), gate(gates.H, 1),
                                   gate(gates.CNOT, 0, 2), gate(gates.Y, 2),
                                   gate(gates.K_DAG, 0), gate(gates.S_DAG, 1)),
                               "both-cnots", 1), rows=2, seed=11)
@example(circuit=GadgetCircuit(5, (gate(gates.CNOT, 0, 2), gate(gates.CNOT, 4, 1),
                                   gate(gates.CNOT, 3, 0)), "cnot-layer-both-ways", 1),
         rows=2, seed=12)
@example(circuit=GadgetCircuit(6, (gate(gates.CZ, 1, 0), gate(gates.CZ, 2, 4),
                                   gate(gates.CCZ, 4, 1, 0), gate(gates.CCZ, 5, 3, 2)),
                               "high-first", 1), rows=1, seed=13)
@example(circuit=GadgetCircuit(4, (Gate(gates.Z_THETA, (0,), Fraction(1, 8)),
                                   Gate(gates.Z_THETA, (2,), Fraction(3, 4)),
                                   Gate(gates.Z_THETA, (3,), Fraction(1, 8)),
                                   gate(gates.Y, 1), gate(gates.Y, 3), gate(gates.Y, 0)),
                               "two-angles-then-ys", 1), rows=2, seed=14)
@example(circuit=GadgetCircuit(5, (Gate(gates.CKZ_THETA, (3, 0), Fraction(1, 4)),
                                   Gate(gates.CKZ_THETA, (1, 4, 2), Fraction(3, 8))),
                               "two-arities", 1), rows=1, seed=15)
def test_gate_application_matches_kron_oracle(circuit, rows, seed):
    """One in-place pass over a batch of rows equals the product of the
    per-gate Kronecker matrices applied to each row.  The examples put in
    one layer CNOTs moving control to target by offsets of both signs, CZ
    and CCZ gates listed high qubit first, Z_THETA gates at two angles,
    three Ys and CKZ_THETA gates of two arities."""
    rng = np.random.default_rng(seed)
    dim = 1 << circuit.register_size
    states = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = _kron_reference(g, circuit.register_size) @ u
    want = states @ u.T
    idx, amps = apply_circuit(np.arange(dim), states, circuit)
    assert np.allclose(densify(idx, amps, circuit.register_size), want)


@settings(max_examples=150, deadline=None)
@given(circuit=random_circuits(8, st.one_of(EIGHTHS, THIRDS)), rows=st.integers(1, 4),
       data=st.data())
def test_sparse_simulation_matches_the_slicing_reference(circuit, rows, data):
    """A batch on a random support, listed in random order, ends where
    the view-slicing pass over all 2^n amplitudes ends: the reached support
    holds each basis state once and every amplitude agrees to 1e-12."""
    n = circuit.register_size
    idx = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                      max_size=1 << n, unique=True)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(rows, len(idx))) + 1j * rng.normal(size=(rows, len(idx)))
    want = reference_apply_circuit(densify(idx, amps, n), circuit)
    got = densify(*apply_circuit(idx, amps, circuit), n)
    assert np.abs(got - want).max() < 1e-12


def test_encode_invariants(cat):
    """Both codewords are +1 eigenstates of every generator; logical Z
    reads +1 on |0> and -1 on |1>."""
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        code = cat.code(name)
        idx, amps = codewords(code)
        assert amps.shape == (2, len(idx)) and (idx < 1 << code.n).all()
        pair = densify(idx, amps, code.n)
        for label, word in enumerate(pair):
            assert abs(np.vdot(word, word) - 1) < 1e-12
            for g in code.generators:
                assert abs(np.vdot(word, pauli_on_vector(word, g)) - 1) < 1e-12
            assert abs(np.vdot(word, pauli_on_vector(word, code.logical_z)) - (-1) ** label) < 1e-12
    zero = densify(*codewords(cat.code("rm15")), 15)[0]
    nonzero = np.abs(zero) > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(zero[nonzero]), 0.25)


def test_encode_one_is_logical_x_of_zero(cat):
    code = cat.code("steane")
    zero, one = densify(*codewords(code), code.n)
    assert np.allclose(one, pauli_on_vector(zero, code.logical_x))


CATALOG_CODES = (*cataloglib.default_catalog().codes.values(), codes.BARE)
LOCAL_CLIFFORDS = [gates.H, gates.S, gates.S_DAG, gates.K, gates.K_DAG, gates.X, gates.Y, gates.Z]


@st.composite
def local_clifford_codes(draw):
    """A small base code conjugated by a random layer of one-qubit
    Cliffords, which adds signs and non-CSS phases."""
    base = draw(st.sampled_from([codes.steane, codes.five_qubit, codes.five_prime]))()
    layer = [gate(draw(st.sampled_from(LOCAL_CLIFFORDS)), q)
             for q in range(base.n) if draw(st.booleans())]
    return codes.transform_code(base, layer)


def with_catalog_examples(test):
    """``test`` with one explicit example per catalog code and ``BARE``."""
    for code in CATALOG_CODES:
        test = example(code=code)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(code=local_clifford_codes())
@with_catalog_examples
def test_codewords_equal_the_dense_projection_exactly(code):
    """The exact sum over the code space equals the dense projection of
    the least surviving seed, global phase included: |0-bar> is real and
    positive on the least word of its support.  The dense oracle's
    fidelities and phases are pinned outputs, so the comparison is exact,
    not allclose.  The support is sorted and holds no word off both codewords."""
    idx, pair = codewords(code)
    dense = reference_codewords(code)
    assert np.array_equal(densify(idx, pair, code.n), dense), code
    assert idx.tolist() == np.flatnonzero(dense.any(axis=0)).tolist(), code


@settings(max_examples=150, deadline=None)
@given(code=local_clifford_codes())
@with_catalog_examples
def test_support_space_matches_the_dense_codewords(code):
    """``seeds[l] xor span(basis)`` is the support of the codeword with
    label l.  The coset-phase method is refused exactly when the two
    codewords share one support."""
    supports = [set(np.flatnonzero(row).tolist()) for row in reference_codewords(code)]
    try:
        seeds, basis = simulate._support_space(code)
    except VerificationError as exc:
        assert "no pure-Z coset form" in str(exc)
        assert supports[0] == supports[1]
        return
    span = [0]
    for v in basis:
        span += [s ^ v for s in span]
    assert [{seed ^ s for s in span} for seed in seeds] == supports


def test_coset_phase_refuses_a_logical_z_without_pure_z_form(cat):
    """H on every qubit of Steane turns logical Z into X^7, and no
    stabilizer cancels its X part."""
    code = codes.transform_code(cat.code("steane"), [gate(gates.H, q) for q in range(7)])
    empty = GadgetCircuit(7, (), "id", 1)
    with pytest.raises(simulate.NotApplicable, match="logical Z has no pure-Z coset form; "
                                                     "coset-phase method inapplicable"):
        verify_diagonal_action(code, empty, gate(gates.Z, 0))


def test_identity_circuit_verifies_for_all_codes(cat):
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        code = cat.code(name)
        empty = GadgetCircuit(code.n, (), "id", 1)
        cert = verify_logical_action(code, empty, gates.diagonal_gate((0,), 0))
        assert cert.passed and abs(cert.phase - 1) < 1e-9


def test_dense_keeps_distinct_operands_in_order(cat):
    """Block 0 on the lowest qubits and label bit 0, block 1 above it: the
    transversal CNOT from block 1 onto block 0 is a logical CNOT controlled
    by operand 1, not by operand 0."""
    code = cat.code("steane")
    circuit = GadgetCircuit(14, tuple(gate(gates.CNOT, 7 + q, q) for q in range(7)),
                            "CNOT(1->0)", 2)
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
    z7 = GadgetCircuit(7, tuple(gate(gates.Z, q) for q in range(7)), "Z7", 1)
    cases = [(steane, z7, gates.X), (steane, z7, gates.Y)]
    for name in ("steane", "rm15"):
        code = cat.code(name)
        cases.append((code, GadgetCircuit(code.n, (), "id", 1), gates.X))
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
        circuit = GadgetCircuit(7, (gate(kind, 0),), f"{kind}@0", 1)
        cert = verify_logical_action(code, circuit, gate(kind, 0))
        assert not cert.passed and cert.details == f"left the code space (leakage {leak:.3e})"
        assert abs(cert.fidelity - (1 - leak)) < 1e-12


def test_heisenberg_catches_wrong_claim(cat):
    code = cat.code("steane")
    rule = cat.rules["steane"][gates.H]
    circuit = expand_transversal(code, gates.H, rule)
    assert verify_clifford_action(code, circuit, gate(gates.H, 0)).passed
    assert not verify_clifford_action(code, circuit, gate(gates.S, 0)).passed


def test_heisenberg_refusals_name_the_first_failing_row(cat):
    """Every block's stabilizer rows are judged before the logical rows
    X_0, Z_0, X_1, ...; a refusal names the first row that fails, a
    stabilizer as placed on the register."""
    code = cat.code("steane")
    z_on_1 = GadgetCircuit(14, (gate(gates.Z, 7),), "Z@7", 2)
    cert = verify_clifford_action(code, z_on_1, gate(gates.CZ, 0, 1))
    assert not cert.passed and cert.details == "stabilizer +IIIIIIIXIXIXIX maps outside the group"
    h = expand_transversal(code, gates.H, cat.rules["steane"][gates.H])
    cert = verify_clifford_action(code, h, gate(gates.S, 0))
    assert not cert.passed and cert.details == "logical X_0 image mismatch"
    y = expand_transversal(code, gates.Y, cat.rules["steane"][gates.Y])
    cert = verify_clifford_action(code, y, gate(gates.Z, 0))
    assert not cert.passed and cert.details == "logical Z_0 image mismatch"


def test_heisenberg_walks_the_tableau_once_per_call(cat, monkeypatch):
    """The circuit and the claim, moved onto one extra qubit per operand,
    are one walk of every row: one ``gates.conjugate_masks`` call, on the
    register and the extra qubits, for a one-operand and a two-operand rule,
    and none for the three-operand CCZ, which is refused before any work."""
    walks = []
    monkeypatch.setattr(gates, "conjugate_masks",
                        lambda *args, real=gates.conjugate_masks: walks.append(args) or real(*args))
    for name, kind in (("steane", gates.H), ("rm15", gates.CNOT), ("rm15", gates.CCZ)):
        code, claim = cat.code(name), Gate(kind, tuple(range(gates.ARITY[kind])))
        circuit = expand_transversal(code, kind, cat.rules[name][kind])
        walks.clear()
        if circuit.is_clifford:
            assert verify_clifford_action(code, circuit, claim).passed
            assert [w[0] for w in walks] == [circuit.register_size + circuit.operands]
        else:
            with pytest.raises(simulate.NotApplicable):
                verify_clifford_action(code, circuit, claim)
            assert walks == []


def test_css_coset_catches_wrong_claim(cat):
    code = cat.code("rm15")
    rule = cat.rules["rm15"][gates.T]
    circuit = expand_transversal(code, gates.T, rule)
    assert verify_diagonal_action(code, circuit, gate(gates.T, 0)).passed
    assert not verify_diagonal_action(code, circuit, gate(gates.S, 0)).passed
    # plain T per qubit implements logical T_dagger, not T
    plain = GadgetCircuit(15, tuple(gate(gates.T, q) for q in range(15)), "t15", 1)
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
    lone = GadgetCircuit(15, (gate(gates.T_DAG, 3),), "T_DAG@3", 1)
    cert = verify_diagonal_action(code, lone, gate(gates.Z, 0))
    assert not cert.passed and cert.details == "phase varies over the support at labels (0,)"
    # logical T on operand 1 only, claimed as CZ: labels (0, 1) fail before (1, 0)
    t_on_1 = GadgetCircuit(30, tuple(gate(gates.T_DAG, 15 + q) for q in range(15)), "T@1",
                           2)
    cert = verify_diagonal_action(code, t_on_1, gate(gates.CZ, 0, 1))
    assert not cert.passed and cert.details == "phase 1/4 != 0 at labels (0, 1)"


def test_css_coset_refuses_angles_past_its_integer_range(cat):
    """den * 2^kmax must stay below 2^32, where every count it keeps is exact."""
    code = cat.code("steane")
    fine = GadgetCircuit(7, (gates.diagonal_gate((0,), Fraction(1, 1 << 31)),), "fine", 1)
    with pytest.raises(simulate.NotApplicable, match="too fine for the coset-phase method"):
        verify_diagonal_action(code, fine, gate(gates.Z, 0))
    coarse = GadgetCircuit(7, (gates.diagonal_gate((0,), Fraction(1, 1 << 30)),), "coarse", 1)
    assert not verify_diagonal_action(code, coarse, gate(gates.Z, 0)).passed


def test_css_coset_detects_leakage(cat):
    code = cat.code("rm15")
    # half a staircase leaves the permutation uncomputed
    half = GadgetCircuit(15, (gate(gates.CNOT, 0, 1),), "broken", 1)
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


def _clifford_pools(cat, name: str, m: int) -> dict[str, list[tuple[Gate, ...]]]:
    """Gate tuples on m copies of a code: its declared Clifford rules on
    every ordered choice of blocks, and each block's stabilizer generators
    and logical representatives written as X/Y/Z gates."""
    code = cat.code(name)
    n = code.n

    def letters(p: Pauli, b: int) -> tuple[Gate, ...]:
        return tuple(gate(p.letter(q), b * n + q) for q in p.support)

    rules = []
    for kind, rule in cat.rules[name].items():
        circuit = expand_transversal(code, kind, rule)
        if circuit.is_clifford and gates.ARITY[kind] <= m:
            for blocks in itertools.permutations(range(m), gates.ARITY[kind]):
                rules.append(tuple(Gate(g.kind, tuple(blocks[q // n] * n + q % n for q in g.qubits))
                                   for g in circuit.gates))
    return {"rule": rules,
            "stabilizer": [letters(g, b) for b in range(m) for g in code.generators],
            "logical": [letters(p, b) for b in range(m) for p in (code.logical_x, code.logical_z)]}


@st.composite
def clifford_cases(draw):
    """(code, m, prefix, middle, claim): prefix gates as (kind, a, b), their
    qubits taken mod the register; middle parts as (pool, index), the index
    taken mod the pool; a Clifford claim on all m operands."""
    name, m = draw(st.sampled_from([("steane", 1), ("steane", 2), ("five_prime", 1)]))
    qubit = st.integers(0, 21)
    prefix = draw(st.lists(st.tuples(st.sampled_from(sorted(gates.CLIFFORD_KINDS)), qubit, qubit),
                           max_size=4))
    middle = draw(st.lists(st.tuples(st.sampled_from(["rule", "stabilizer", "logical"]),
                                     st.integers(0, 63)), max_size=3))
    kind = draw(st.sampled_from([k for k in sorted(gates.CLIFFORD_KINDS) if gates.ARITY[k] == m]))
    return name, m, prefix, middle, Gate(kind, tuple(draw(st.permutations(range(m)))))


@settings(max_examples=60, deadline=None)
@given(case=clifford_cases())
# X_2, a stabilizer, logical X, X_2: a signed logical X, so both accept
@example(case=("steane", 1, [("X", 2, 0)], [("stabilizer", 1), ("logical", 0)],
               gate(gates.X, 0)))
# H_2 turns one letter of logical X into Z: the code space leaks, both refuse
@example(case=("steane", 1, [("H", 2, 0)], [("logical", 0)], gate(gates.X, 0)))
def test_random_clifford_circuits_heisenberg_vs_dense(cat, case):
    """P, a middle, then P^dagger, for a random Clifford prefix P: the
    Heisenberg and dense oracles give the same verdict."""
    name, m, prefix, middle, claim = case
    code = cat.code(name)
    n = code.n * m
    p = tuple(gate(kind, a % n) if gates.ARITY[kind] == 1
              else gate(kind, a % n, (a + 1 + b % (n - 1)) % n) for kind, a, b in prefix)
    pools = _clifford_pools(cat, name, m)
    body = tuple(g for pool, i in middle for g in pools[pool][i % len(pools[pool])])
    circuit = GadgetCircuit(n, p + body + tuple(g.dagger() for g in reversed(p)), "random",
                            m)
    assert verify_clifford_action(code, circuit, claim).passed \
        == verify_logical_action(code, circuit, claim).passed


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


def test_router_skips_an_oracle_that_cannot_judge_the_code(cat):
    """Steane conjugated by H on every qubit has logical Z = X^7, so
    coset-phase analysis cannot judge its rules: the Pauli rules certify
    by the other two oracles, and bitwise S_DAG, which is not its logical
    S, is refused by Heisenberg's verdict."""
    code = codes.transform_code(cat.code("steane"), [gate(gates.H, q) for q in range(7)],
                                name="steane_h")
    catalog = cataloglib.Catalog()
    catalog.add(code, {gates.X: TransversalRule(), gates.Y: TransversalRule(),
                       gates.Z: TransversalRule(), gates.S: TransversalRule(gates.S_DAG)})
    lib = library.GadgetLibrary(catalog)
    for kind in (gates.X, gates.Y, gates.Z):
        cert = lib.rule_certificate("steane_h", kind)
        assert cert.passed and cert.method == "heisenberg+dense", kind
    with pytest.raises(library.AdmissionError, match="failed its heisenberg check"):
        lib.rule_certificate("steane_h", gates.S)


def test_gadget_for_the_wrong_gate_is_not_admitted(cat, layouts, monkeypatch):
    """A dispatcher that hands back the T_DAG gadget for T is caught by
    the oracle, not cached."""
    lib = library.GadgetLibrary(cat)
    # rule certificates expand through the dispatcher too: admit them first
    lib.verify_code_rules("steane")
    lib.verify_code_rules("rm15")
    real = lib.dispatcher.logical_gadget
    monkeypatch.setattr(lib.dispatcher, "logical_gadget",
                        lambda layout, logical: real(layout, library.logical_gate(gates.T_DAG)))
    with pytest.raises(library.AdmissionError, match="failed its css-coset check"):
        lib.gadget(layouts[49], library.logical_gate(gates.T))


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


WRONG_CLAIM = {gates.X: gates.Z, gates.Y: gates.X, gates.Z: gates.X, gates.H: gates.S,
               gates.S: gates.S_DAG, gates.T: gates.T_DAG, gates.K: gates.K_DAG,
               gates.CNOT: gates.CZ, gates.CZ: gates.CNOT}


def test_dense_verdicts_match_the_kron_reference(cat):
    """Every catalog rule within the dense cap, claimed as itself and as a
    wrong gate, and its first gate alone, which leaves the code space: the
    support-sparse oracle and the dense Kronecker reference agree on the
    verdict and its details, and on fidelity and phase to 1e-12."""
    checked = set()
    for name, rules in cat.rules.items():
        code = cat.code(name)
        for kind, rule in rules.items():
            circuit = expand_transversal(code, kind, rule)
            if circuit.register_size > simulate.MAX_DENSE_QUBITS:
                continue
            checked.add((name, kind))
            first = GadgetCircuit(circuit.register_size, circuit.gates[:1], "first", circuit.operands)
            for body, claim_kind in ((circuit, kind), (circuit, WRONG_CLAIM[kind]), (first, kind)):
                claim = Gate(claim_kind, tuple(range(gates.ARITY[kind])))
                got = verify_logical_action(code, body, claim)
                want = reference_logical_action(code, body, claim)
                case = (name, kind, body.label, claim_kind)
                assert (got.method, got.passed, got.details) == \
                    (want.method, want.passed, want.details), case
                assert abs(got.fidelity - want.fidelity) < 1e-12, case
                if want.phase is not None:
                    assert abs(got.phase - want.phase) < 1e-12, case
                assert got.passed == (body is circuit and claim_kind == kind), case
    assert checked == {rule for rule, method in RULE_METHODS.items() if "dense" in method}


def test_css_coset_certifies_98_qubit_conjugated_cz(lib, layouts):
    """T ; CZ ; T^-1 on two code49 operands acts as CZ: a 98-qubit register
    with phases finer than pi on a support far too large to enumerate."""
    lay = layouts[49]
    t = lib.dispatcher.logical_gadget(lay, library.logical_gate(gates.T))
    cz = lib.dispatcher.logical_gadget(lay, library.logical_gate(gates.CZ))
    code = flatten(lay)
    claim = library.logical_gate(gates.CZ)
    good = GadgetCircuit(98, t.gates + cz.gates + invert(t).gates, "T;CZ;T^-1", cz.operands)
    cert = verify_diagonal_action(code, good, claim)
    assert cert.passed and cert.method == "css-coset"
    broken = GadgetCircuit(98, t.gates + cz.gates, "T;CZ", cz.operands)
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
                            "random", m)
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
    circuit = GadgetCircuit(7, xs + zs + xs, "-Z", 1)
    claim = library.logical_gate(gates.Z)
    for cert in (verify_diagonal_action(code, circuit, claim),
                 verify_logical_action(code, circuit, claim)):
        assert cert.passed and abs(cert.phase + 1) < 1e-9


def test_css_coset_accepts_a_global_phase_beyond_dense_cap(cat):
    """X0 Z0 X0 Z0 = -I ahead of the rm15 transversal CZ on 30 qubits."""
    code = cat.code("rm15")
    cz = expand_transversal(code, gates.CZ, cat.rules["rm15"][gates.CZ])
    prefix = (gate(gates.X, 0), gate(gates.Z, 0)) * 2
    circuit = GadgetCircuit(30, prefix + cz.gates, "-CZ", cz.operands)
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
    circuit = GadgetCircuit(21, stair.gates + noise.gates, "stair+noise", noise.operands)
    claim = gates.diagonal_gate((0, 1, 2), theta + shift)
    assert verify_diagonal_action(code, circuit, claim).passed \
        == _enumerated_verdict(code, circuit, claim)


def _oracle_outcome(oracle, code: StabilizerCode, circuit: GadgetCircuit, claim: Gate) -> str:
    """The certificate's repr, or the refusal's type and message."""
    try:
        return repr(oracle(code, circuit, claim))
    except VerificationError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_css_coset_certificates_match_the_dict_polynomial_reference(cat, lib, layouts):
    """The parity form and the dict-polynomial expansion give byte-identical
    certificates and refusals: every catalog rule against every diagonal
    claim kind, the T, CCZ, S and CZ gadgets of the six table layouts with
    the right claim and claims off by pi/4 and pi/2, and bare staircases with
    angles over 3, 6, 8 and 12."""
    claims = [Gate(kind, tuple(range(gates.ARITY[kind])))
              for kind in (gates.Z, gates.S, gates.S_DAG, gates.T, gates.T_DAG, gates.CZ, gates.CCZ)]
    cases = [(cat.code(name), expand_transversal(cat.code(name), kind, rule), claim)
             for name, rules in cat.rules.items() for kind, rule in rules.items()
             for claim in [*claims, gates.diagonal_gate((0,), Fraction(1, 3))]]
    for lay, kind in itertools.product(layouts.values(), (gates.T, gates.CCZ, gates.S, gates.CZ)):
        try:
            circuit = lib.dispatcher.logical_gadget(lay, library.logical_gate(kind))
        except SynthesisError:
            continue
        theta, qubits = library.logical_gate(kind).theta(), tuple(range(gates.ARITY[kind]))
        cases += [(flatten(lay), circuit, gates.diagonal_gate(qubits, theta + shift))
                  for shift in (0, Fraction(1, 4), Fraction(1, 2))]
    stairs = [*itertools.product(("steane", "rm15"), (0, 1, 2),
                                 (Fraction(1, 3), Fraction(5, 6), Fraction(7, 12))),
              ("steane", 3, Fraction(1, 8)), ("steane", 3, Fraction(1, 3))]
    for name, k, theta in stairs:  # k = 3 reaches the degree-4 label monomial
        circuit = staircase_gadget(cat.code(name), k, theta)
        cases += [(cat.code(name), circuit, gates.diagonal_gate(tuple(range(k + 1)), theta + shift))
                  for shift in (0, Fraction(1, 4), Fraction(1, 3))]
    passed = set()
    for code, circuit, claim in cases:
        got = _oracle_outcome(verify_diagonal_action, code, circuit, claim)
        assert got == _oracle_outcome(reference_diagonal_action, code, circuit, claim), \
            (code.name, circuit.label, claim)
        passed.add("passed=True" in got)
    assert passed == {True, False}


def test_heisenberg_certificates_match_the_whole_register_reference(cat, lib, layouts):
    """Block-by-block membership by the phase form and whole-register
    membership by Pauli products give byte-identical certificates and
    refusals: every catalog rule against every claim kind of its arity, and
    the S, CZ, CNOT and H gadgets of code105, code49 and code47 with the
    right claim, a wrong one, and the right one with the last gate cut."""
    cases = [(cat.code(name), expand_transversal(cat.code(name), kind, rule),
              Gate(claim, tuple(range(gates.ARITY[kind]))))
             for name, rules in cat.rules.items() for kind, rule in rules.items()
             for claim in sorted(gates.ARITY) if gates.ARITY[claim] == gates.ARITY[kind]]
    wrong = {gates.S: gates.Z, gates.CZ: gates.CNOT, gates.CNOT: gates.CZ, gates.H: gates.S}
    for size, (kind, other) in itertools.product((105, 49, 47), wrong.items()):
        try:
            c = lib.gadget(layouts[size], library.logical_gate(kind)).circuit
        except SynthesisError:
            continue
        cut = GadgetCircuit(c.register_size, c.gates[:-1], c.label, c.operands)
        cases += [(flatten(layouts[size]), circuit, library.logical_gate(claim))
                  for circuit, claim in ((c, kind), (c, other), (cut, kind))]
    outcomes = []
    for code, circuit, claim in cases:
        outcomes.append(_oracle_outcome(verify_clifford_action, code, circuit, claim))
        assert outcomes[-1] == _oracle_outcome(reference_clifford_action, code, circuit, claim), \
            (code.name, circuit.label, claim)
    assert len(outcomes) == 209 and sum("passed=True" in o for o in outcomes) == 30
    for refusal in ("NotApplicable: Heisenberg check requires", "NotApplicable: claimed gate",
                    "image mismatch", "maps outside the group"):
        assert any(refusal in o for o in outcomes), refusal

ANGLE = st.builds(Fraction, st.integers(0, 23), st.sampled_from([3, 4, 8]))


def _draw_mixed_diagonal(data, code, m: int) -> tuple[GadgetCircuit, Gate]:
    """Random X/CNOT prefix, a middle of Z_THETA, CZ, CCZ and CKZ_THETA on
    up to 4 qubits with angles over 3, 4 and 8, and the inverse prefix, on
    m copies of ``code``; when drawn, a logical C^(m-1)Z staircase goes
    first, and the claim is its angle, if any, plus 0 or a drawn angle."""
    n = code.n * m
    qubit = st.integers(0, n - 1)
    perm = data.draw(st.lists(st.one_of(
        qubit.map(lambda q: gate(gates.X, q)),
        st.lists(qubit, min_size=2, max_size=2, unique=True).map(
            lambda ab: gate(gates.CNOT, *ab))), max_size=3))
    middle = data.draw(st.lists(st.one_of(
        st.builds(lambda qs, t: gates.diagonal_gate(tuple(qs), t),
                  st.lists(qubit, min_size=1, max_size=4, unique=True), ANGLE),
        st.lists(qubit, min_size=2, max_size=3, unique=True).map(
            lambda qs: gate(gates.CZ if len(qs) == 2 else gates.CCZ, *qs))), max_size=4))
    stair = data.draw(st.one_of(st.none(), ANGLE))
    body = (*(staircase_gadget(code, m - 1, stair).gates if stair is not None else ()),
            *perm, *middle, *reversed(perm))
    theta = (stair or 0) + data.draw(st.one_of(st.just(Fraction(0)), ANGLE))
    return GadgetCircuit(n, body, "mixed", m), gates.diagonal_gate(tuple(range(m)), theta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_mixed_diagonal_circuits_match_the_dict_polynomial_reference(cat, data):
    """Verdict, details and global phase of the parity form equal those of
    the dict-polynomial expansion, with angles over 3, 4 and 8 and up to
    4-qubit CKZ_THETA, so the padding to kmax factors, the gcd, an odd
    modulus and degrees past 3 all run."""
    code = cat.code("steane")
    circuit, claim = _draw_mixed_diagonal(data, code, data.draw(st.integers(1, 2)))
    assert _oracle_outcome(verify_diagonal_action, code, circuit, claim) == \
        _oracle_outcome(reference_diagonal_action, code, circuit, claim)


def test_table1_extended_never_imports_numpy_ma():
    """``table1 --extended`` runs every dense rule check, support merges
    included, without importing numpy.ma: np.unique would pull it in, at
    about 0.7 MB of resident memory."""
    src = str(Path(nuconcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\nfrom nuconcat import cli\n"
              "assert cli.main(['table1', '--extended']) == 0\n"
              "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
