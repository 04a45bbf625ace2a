from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuconcat import gates
from nuconcat.circuits import GadgetCircuit
from nuconcat.gates import Gate, UnsupportedGateError, gate
from nuconcat.pauli import DimensionError, Pauli
from reference import _deposit, pauli_matrix, reference_apply_circuit, reference_conjugate


def test_y_equals_i_x_z():
    x, y, z = (gates.gate_matrix(gate(kind, 0)) for kind in (gates.X, gates.Y, gates.Z))
    assert np.allclose(y, [[0, -1j], [1j, 0]])
    assert np.allclose(y, 1j * x @ z)


def test_named_one_qubit_diagonals_match_their_angles():
    kinds = sorted(k for k in gates.DIAGONAL_KINDS if gates.ARITY.get(k) == 1)
    assert kinds == sorted([gates.Z, gates.S, gates.S_DAG, gates.T, gates.T_DAG])
    for kind in kinds:
        g = gate(kind, 0)
        want = np.diag([1, np.exp(1j * np.pi * float(g.theta()))])
        assert np.allclose(gates.gate_matrix(g), want), kind


def test_k_equals_s_times_h():
    assert np.allclose(gates._M1[gates.K], gates._M1[gates.S] @ gates._M1[gates.H])
    assert np.allclose(gates._M1[gates.H], gates._M1[gates.S_DAG] @ gates._M1[gates.K])


# disjoint copies of a gate; two-qubit copies move a bit by +1, -1 and +1
COPY_QUBITS = {1: [(0,), (2,), (1,)], 2: [(0, 1), (3, 2), (4, 5)]}


@pytest.mark.parametrize("kind", sorted(gates.CLIFFORD_KINDS))
def test_conjugation_matches_dense(kind):
    """A gate, and layers of two and three disjoint copies of it, map each
    Pauli on their qubits, sign included, as their dense matrices do: every
    Pauli on up to four qubits, and 300 random ones on six."""
    for copies in (1, 2, 3):
        layer = [Gate(kind, qs) for qs in COPY_QUBITS[gates.ARITY[kind]][:copies]]
        assert len(gates.layers(layer)) == 1
        n = 1 + max(q for g in layer for q in g.qubits)
        u = reference_apply_circuit(np.eye(1 << n, dtype=complex),
                                    GadgetCircuit(n, tuple(layer), "layer", 1)).T
        everything = range(1 << 2 * n)
        picks = everything if n <= 4 else np.random.default_rng(7).choice(everything, 300, False)
        paulis = [Pauli(n, int(xz) & (1 << n) - 1, int(xz) >> n, 0) for xz in picks]
        for p, image in zip(paulis, gates.conjugate_through(paulis, layer)):
            want = u @ pauli_matrix(p) @ u.conj().T
            assert np.allclose(pauli_matrix(image), want), (kind, copies, str(p))


def test_k_conjugation_cycle():
    k = gate(gates.K, 0)
    assert str(gates.conjugate_through([Pauli.from_string("X")], [k])[0]) == "+Z"
    assert str(gates.conjugate_through([Pauli.from_string("Z")], [k])[0]) == "+Y"
    assert str(gates.conjugate_through([Pauli.from_string("Y")], [k])[0]) == "+X"


def test_cnot_propagation():
    cnot = gate(gates.CNOT, 0, 1)
    assert str(gates.conjugate_through([Pauli.from_string("XI")], [cnot])[0]) == "+XX"
    assert str(gates.conjugate_through([Pauli.from_string("IZ")], [cnot])[0]) == "+ZZ"
    assert str(gates.conjugate_through([Pauli.from_string("IX")], [cnot])[0]) == "+IX"
    assert str(gates.conjugate_through([Pauli.from_string("ZI")], [cnot])[0]) == "+ZI"


def test_weight_change_bounds():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = 4
        p = Pauli(n, int(rng.integers(0, 16)), int(rng.integers(0, 16)), 0)
        for kind in (gates.H, gates.S, gates.K, gates.X, gates.Y, gates.Z):
            (q,) = gates.conjugate_through([p], [gate(kind, int(rng.integers(0, n)))])
            assert q.weight() == p.weight()
        a, b = rng.choice(n, size=2, replace=False)
        (q,) = gates.conjugate_through([p], [gate(gates.CNOT, int(a), int(b))])
        assert abs(q.weight() - p.weight()) <= 1


# both sides of every word boundary of a 200-qubit register
WORD_EDGES = (0, 1, 62, 63, 64, 65, 127, 128, 199)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2**200 - 1), st.integers(0, 2**200 - 1),
                               st.tuples(st.integers(0, 511), st.integers(0, 511)),
                               st.integers(0, 3)), min_size=1, max_size=4),
       runs=st.lists(st.tuples(st.sampled_from(sorted(gates.CLIFFORD_KINDS)),
                               st.permutations(WORD_EDGES), st.integers(1, 4)), max_size=8))
def test_conjugate_through_matches_dense_reference_across_words(rows, runs):
    """The packed walk of a batch of 1-4 Paulis on one register equals,
    row by row and sign included, gate-by-gate conjugation by images read
    off dense matrices.  Each run is 1-4 gates of one kind on disjoint
    qubits, one layer, on both sides of each word boundary, so two-qubit
    copies move bits by mixed shifts across words; ``edges`` draws the
    letters there apart from the rest."""
    batch = [Pauli(200, x ^ _deposit(edges[0], WORD_EDGES), z ^ _deposit(edges[1], WORD_EDGES),
                   phase) for x, z, edges, phase in rows]
    circuit = [Gate(kind, qs[a * c:a * c + a]) for kind, qs, copies in runs
               for a in [gates.ARITY[kind]] for c in range(min(copies, len(qs) // a))]
    want = list(batch)
    for g in circuit:
        want = [reference_conjugate(p, g) for p in want]
    assert gates.conjugate_through(batch, circuit) == want


def test_conjugate_through_takes_one_register():
    with pytest.raises(DimensionError):
        gates.conjugate_through([Pauli.from_string("X"), Pauli.from_string("XX")], [])


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.integers(0, (1 << 200) - 1), min_size=1, max_size=6),
       cols=st.lists(st.integers(0, (1 << 200) - 1), min_size=1, max_size=6))
def test_parities_are_the_gf2_inner_products(rows, cols):
    """Masks of up to 200 bits, over several words, the 0 mask included."""
    want = [[(r & c).bit_count() & 1 for c in cols] for r in rows]
    got = gates.parities(rows, cols)
    assert got.dtype == np.uint8 and got.tolist() == want


def test_non_clifford_conjugation_rejected():
    with pytest.raises(UnsupportedGateError):
        gates.conjugate_through([Pauli.from_string("X")], [gate(gates.T, 0)])


def test_named_diagonal_identities():
    t = gates.diagonal_gate((3,), Fraction(1, 4))
    assert t.kind == gates.T and t.qubits == (3,)
    assert gates.diagonal_gate((0,), Fraction(1, 2)).kind == gates.S
    assert gates.diagonal_gate((0,), Fraction(-1, 4)).kind == gates.T_DAG
    assert gates.diagonal_gate((0, 1), Fraction(1)).kind == gates.CZ
    assert gates.diagonal_gate((0, 1, 2), Fraction(1)).kind == gates.CCZ
    odd = gates.diagonal_gate((0,), Fraction(1, 3))
    assert odd.kind == gates.Z_THETA and odd.theta() == Fraction(1, 3)
    assert np.allclose(gates.gate_matrix(gate(gates.T, 0)),
                       np.diag([1, np.exp(1j * np.pi / 4)]))
    assert np.allclose(gates.gate_matrix(gate(gates.CCZ, 0, 1, 2)),
                       np.diag([1] * 7 + [-1]))


def test_dagger_involution():
    for kind in sorted(gates.ARITY):
        g = Gate(kind, tuple(range(gates.ARITY[kind])))
        assert g.dagger().dagger() == g
    zt = Gate(gates.Z_THETA, (0,), Fraction(1, 3))
    assert zt.dagger().dagger() == zt
    assert np.allclose(gates.gate_matrix(zt.dagger()),
                       gates.gate_matrix(zt).conj().T)


@pytest.mark.parametrize("text,value", [
    ("pi/4", Fraction(1, 4)), ("-pi/4", Fraction(-1, 4)), ("3pi/2", Fraction(3, 2)),
    ("pi", Fraction(1)), ("-pi", Fraction(-1)), ("0", Fraction(0)), ("7pi/4", Fraction(7, 4)),
])
def test_theta_parse_format(text, value):
    assert gates.parse_theta(text) == value
    assert gates.parse_theta(gates.format_theta(value)) == value


def test_theta_parse_rejects_floats():
    for bad in ("0.785", "pi/0", "2*pi", "pie", "1/pi", "3/pi/4"):
        with pytest.raises(ValueError):
            gates.parse_theta(bad)
