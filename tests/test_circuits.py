import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuconcat import catalog as cataloglib
from nuconcat import cli, gates, library, simulate
from nuconcat.circuits import (GadgetCircuit, GadgetDispatcher, SynthesisError,
                               TransversalRule, block_logical_gadget, circuit_from_text,
                               circuit_to_text, encoding_circuit, normalization_gates)
from nuconcat.codes import distance
from nuconcat.concat import non_uniform_layout, parse_layout, uniform_layout
from nuconcat.pauli import Pauli
from nuconcat.simulate import apply_circuit, codewords
from reference import densify, expand_transversal, invert, staircase_gadget


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
    assert invert(GadgetCircuit(2, (), "noop", 1)).gates == ()
    two = GadgetCircuit(2, (gates.gate(gates.CNOT, 0, 1), gates.gate(gates.T, 0)),
                        "demo", 1)
    inv = invert(two)
    assert [x.kind for x in inv.gates] == [gates.T_DAG, gates.CNOT]


def test_invert_is_dense_inverse(cat):
    g = staircase_gadget(cat.code("five_prime"), 0, Fraction(1, 4))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    out = apply_circuit(*apply_circuit(np.arange(32), amps[None], g), invert(g))
    assert np.allclose(densify(*out, 5)[0], amps)


def test_circuit_text_round_trip(cat):
    g = staircase_gadget(cat.code("steane"), 2, Fraction(1))
    text = circuit_to_text(g)
    back = circuit_from_text(text)
    assert back.gates == g.gates
    assert back.register_size == g.register_size
    assert back.blocks == g.blocks
    assert back.operands == g.operands == 3
    assert circuit_to_text(back) == text


@st.composite
def equal_block_circuits(draw):
    """A circuit on 1-4 equal blocks of 1-5 qubits: named gates and
    diagonal gates with angles over 1 to 8, on distinct drawn qubits."""
    operands, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n = operands * size
    gate_list = []
    for kind in draw(st.lists(st.sampled_from([*gates.ARITY, gates.Z_THETA]), max_size=8)):
        arity = min(gates.ARITY.get(kind, draw(st.integers(1, 3))), n)
        qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity,
                                     unique=True)))
        if kind in gates.ARITY and len(qubits) == gates.ARITY[kind]:
            gate_list.append(gates.gate(kind, *qubits))
        else:
            angle = Fraction(draw(st.integers(0, 15)), draw(st.integers(1, 8)))
            gate_list.append(gates.diagonal_gate(qubits, angle))
    label = draw(st.text("abcXYZ019[]():;^-_", min_size=1, max_size=12))
    return GadgetCircuit(n, tuple(gate_list), label, operands)


@settings(max_examples=60, deadline=None)
@given(circuit=equal_block_circuits())
def test_random_circuits_round_trip_through_text(circuit):
    """Reading a written circuit gives the circuit back, operands included."""
    assert circuit_from_text(circuit_to_text(circuit)) == circuit


@pytest.mark.parametrize("register,operands", [(7, 0), (7, 2), (0, 1), (2, 3)])
def test_operands_must_tile_the_register(register, operands):
    """The operand count is at least 1 and divides the register."""
    with pytest.raises(ValueError, match=f"{operands} operands do not tile the register "
                                         f"of {register}"):
        GadgetCircuit(register, (), "id", operands)


def test_circuit_text_with_exotic_angle():
    g = GadgetCircuit(1, (gates.Gate(gates.Z_THETA, (0,), Fraction(2, 3)),), "z23", 1)
    back = circuit_from_text(circuit_to_text(g))
    assert back.gates[0].theta_over_pi == Fraction(2, 3)


def test_encoder_builds_codewords(cat):
    for name in ("steane", "rm15"):
        code = cat.code(name)
        enc, q_in = encoding_circuit(code)
        starts = np.zeros((2, 1 << code.n), dtype=complex)
        starts[0, 0] = starts[1, 1 << q_in] = 1  # |0...0> and X on the input qubit
        enc_circuit = GadgetCircuit(code.n, enc, "enc", 1)
        got = densify(*apply_circuit(np.arange(1 << code.n), starts, enc_circuit), code.n)
        want = densify(*codewords(code), code.n)
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
    bogus = TransversalRule(gates.H)
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
    assert digest.hexdigest() == "b2b43746c33f8ca4cf199f6e3e9c1c7141e5e9807f63b96eead9e52b2aa50092"
