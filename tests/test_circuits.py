import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nuconcat import catalog as cataloglib
from nuconcat import cli, gates, library, simulate
from nuconcat.circuits import (GadgetCircuit, GadgetDispatcher, SynthesisError,
                               TransversalRule, block_logical_gadget, circuit_from_text,
                               circuit_to_text, encoding_circuit, expand_transversal,
                               normalization_gates)
from nuconcat.codes import distance
from nuconcat.concat import non_uniform_layout, parse_layout, uniform_layout
from nuconcat.pauli import Pauli
from nuconcat.simulate import apply_circuit, codewords
from reference import invert, staircase_gadget


def test_steane_t_staircase_structure(cat):
    g = staircase_gadget(cat.code("steane"), 0, Fraction(1, 4))
    assert [str(x) for x in g.gates] == [
        "CNOT 0 1", "CNOT 1 2", "T 2", "CNOT 1 2", "CNOT 0 1"]
    assert g.touched_qubits() == {0, 1, 2}


@pytest.mark.parametrize("name,k", [("steane", 0), ("steane", 2),
                                    ("five_prime", 0), ("five_prime", 2),
                                    ("five_qubit", 1)])
def test_staircase_couples_exactly_d_qubits(cat, name, k):
    code = cat.code(name)
    g = staircase_gadget(code, k, Fraction(1) if k else Fraction(1, 4))
    d = distance(code)
    for b in range(k + 1):
        touched = {q - b * code.n for q in g.touched_qubits()
                   if b * code.n <= q < (b + 1) * code.n}
        assert len(touched) == d


def test_five_prime_staircase_gate_kinds(cat):
    """The transformed code needs no local-Clifford box: CNOTs, the
    diagonal collector gate, and at most Paulis."""
    for k in range(3):
        g = staircase_gadget(cat.code("five_prime"), k, Fraction(1, 4) if k == 0 else Fraction(1))
        kinds = {x.kind for x in g.gates}
        assert kinds <= {gates.CNOT, gates.T, gates.CZ, gates.CCZ,
                         gates.X, gates.Y, gates.Z, gates.Z_THETA, gates.CKZ_THETA}


def test_five_qubit_staircase_has_local_cliffords(cat):
    g = staircase_gadget(cat.code("five_qubit"), 0, Fraction(1, 4))
    kinds = Counter(x.kind for x in g.gates)
    assert kinds[gates.H] > 0  # mixed-letter representative needs normalisation


def test_normalization_fixes_sign():
    rep = Pauli.from_string("-ZIZIZ")
    lc, transformed = normalization_gates(rep)
    assert transformed.display_phase_exp == 0
    assert any(g.kind == gates.X for g in lc)


def test_invert_involution(cat):
    g = staircase_gadget(cat.code("five_prime"), 1, Fraction(1))
    assert invert(invert(g)).gates == g.gates
    assert invert(GadgetCircuit(2, (), "noop", ((0, 2),))).gates == ()
    two = GadgetCircuit(2, (gates.gate(gates.CNOT, 0, 1), gates.gate(gates.T, 0)),
                        "demo", ((0, 2),))
    inv = invert(two)
    assert [x.kind for x in inv.gates] == [gates.T_DAG, gates.CNOT]


def test_invert_is_dense_inverse(cat):
    g = staircase_gadget(cat.code("five_prime"), 0, Fraction(1, 4))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    out = apply_circuit(apply_circuit(amps[None].copy(), g), invert(g))
    assert np.allclose(out[0], amps)


def test_circuit_text_round_trip(cat):
    g = staircase_gadget(cat.code("steane"), 2, Fraction(1))
    text = circuit_to_text(g)
    back = circuit_from_text(text)
    assert back.gates == g.gates
    assert back.register_size == g.register_size
    assert back.blocks == g.blocks
    assert circuit_to_text(back) == text


def test_circuit_text_with_exotic_angle():
    g = GadgetCircuit(1, (gates.Gate(gates.Z_THETA, (0,), Fraction(2, 3)),), "z23", ((0, 1),))
    back = circuit_from_text(circuit_to_text(g))
    assert back.gates[0].theta_over_pi == Fraction(2, 3)


def test_encoder_builds_codewords(cat):
    for name in ("steane", "rm15"):
        code = cat.code(name)
        enc, q_in = encoding_circuit(code)
        starts = np.zeros((2, 1 << code.n), dtype=complex)
        starts[0, 0] = starts[1, 1 << q_in] = 1  # |0...0> and X on the input qubit
        got = apply_circuit(starts, GadgetCircuit(code.n, enc, "enc", ((0, code.n),)))
        want = codewords(code)
        for b in range(2):
            assert abs(abs(np.vdot(got[b], want[b])) - 1) < 1e-10


def test_encoder_refuses_non_css(cat):
    with pytest.raises(SynthesisError):
        encoding_circuit(cat.code("five_prime"))


def test_block_logical_h_on_rm15(cat):
    code = cat.code("rm15")
    g = block_logical_gadget(code, gates.H)
    assert simulate.verify_logical_action(code, g, gates.gate(gates.H, 0)).passed
    assert simulate.verify_clifford_action(code, g, gates.gate(gates.H, 0)).passed


def test_49_t_gadget_structure(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    hist = Counter(g.kind for g in adm.circuit.gates)
    assert hist == {gates.CNOT: 60, gates.T_DAG: 15}
    touched = adm.circuit.touched_qubits()
    assert touched <= set(range(45))  # bare b2 qubits untouched
    assert len(adm.circuit.gates) == 75


def test_49_ccz_gadget_spans_three_blocks(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.CCZ))
    assert len(adm.circuit.blocks) == 3
    assert adm.circuit.register_size == 3 * 49
    hist = Counter(g.kind for g in adm.circuit.gates)
    assert hist[gates.CCZ] == 15


def test_five_prime_k_transversal_with_fixup(lib, layouts, cat):
    adm = lib.gadget(layouts[47], library.logical_gate(gates.K))
    kinds = Counter(g.kind for g in adm.circuit.gates)
    assert kinds[gates.K] == 5  # two bare physical K + one per encoded block
    assert kinds[gates.Z] == 15  # the fixup on the encoded outer qubit


def test_dispatch_refuses_five_qubit_with_rm_inner(lib, cat):
    lay = non_uniform_layout(cat.code("five_qubit"), cat.code("rm15"))
    with pytest.raises(SynthesisError) as err:
        lib.dispatcher.logical_gadget(lay, library.logical_gate(gates.T))
    message = str(err.value)
    assert "K_DAG" in message
    assert "rm15" in message


def test_dispatch_refuses_rule_arity_mismatch(cat):
    """A two-operand kind declared with a one-qubit physical gate is refused
    on bare blocks and on a concatenated layout alike, not expanded on
    operand 0 only."""
    steane = cat.code("steane")
    bogus = TransversalRule("bitwise", gates.H)
    with pytest.raises(SynthesisError, match="arity does not match"):
        expand_transversal(steane, gates.CZ, bogus)
    rules = {**cat.rules, "steane": {**cat.rules["steane"], gates.CZ: bogus}}
    lay = non_uniform_layout(steane, cat.code("rm15"))
    with pytest.raises(SynthesisError, match="arity does not match"):
        GadgetDispatcher(rules).logical_gadget(lay, library.logical_gate(gates.CZ))


def test_rep_rule_realises_an_encoded_collector(layouts):
    """Without a Z rule on the outer Steane code, logical Z on code49 is a
    staircase whose rm15 collector expands rm15's own ``rep`` rule: Z on
    every qubit of its logical-Z representative."""
    custom = cataloglib.default_catalog()
    del custom.rules["steane"][gates.Z]
    adm = library.GadgetLibrary(custom).gadget(layouts[49], library.logical_gate(gates.Z))
    assert len(adm.circuit.gates) == 75
    assert adm.certificate.passed and adm.certificate.method == "heisenberg"
    collector = [g for g in adm.circuit.gates if g.kind == gates.Z]
    assert len(collector) == 15 and {g.qubits[0] // 15 for g in collector} == {2}


def test_dispatch_refuses_unknown_nontransversal(lib, cat):
    lay = uniform_layout(cat.code("steane"), cat.code("rm15"))
    with pytest.raises(SynthesisError):
        lib.dispatcher.logical_gadget(lay, library.logical_gate(gates.K))


PINNED_THETAS = (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
PINNED_CODES = ("steane", "rm15", "five_qubit", "five_prime")


def _outcome(build) -> str:
    try:
        c = build()
    except SynthesisError as exc:
        return f"refused: {exc}"
    return repr((c.label, c.register_size, c.blocks, [str(g) for g in c.gates]))


def dispatcher_outcomes(cat):
    """One line per dispatcher output: every named kind and C^kZ(theta),
    k <= 2, on the shortcut, bare, uniform and non-uniform layouts; the
    base staircases; and every catalog rule's expansion."""
    dispatcher = GadgetDispatcher(cat.rules)
    descriptors = [*cli.LAYOUT_SHORTCUTS.values(), *(f"bare:{o}" for o in PINNED_CODES),
                   *(f"{form}:{o}:{i}" for form in ("uniform", "nonuniform")
                     for o in PINNED_CODES for i in PINNED_CODES)]
    diagonals = [gates.diagonal_gate(tuple(range(k + 1)), t)
                 for k in range(3) for t in PINNED_THETAS]
    logicals = [library.logical_gate(kind) for kind in gates.ARITY] + diagonals
    for descriptor in descriptors:
        layout = parse_layout(descriptor, cat.code)
        for logical in logicals:
            yield _outcome(lambda: dispatcher.logical_gadget(layout, logical))
    for name in PINNED_CODES:
        for k in range(3):
            for t in PINNED_THETAS:
                yield _outcome(lambda: staircase_gadget(cat.code(name), k, t))
    for name, rules in cat.rules.items():
        for kind, rule in rules.items():
            yield _outcome(lambda: expand_transversal(cat.code(name), kind, rule))


def test_dispatcher_outputs_are_pinned(cat):
    """Gates, label, register size and blocks of every dispatcher output,
    or its refusal message, hashed together."""
    digest = hashlib.sha256()
    for line in dispatcher_outcomes(cat):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "4d38f0762b4f50a57ae7f50fd875f6637e2ae5f3805998a0ff12efcf0e521f0d"
