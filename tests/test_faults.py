import hashlib
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nuconcat import cli, faults, gates, library
from nuconcat.circuits import GadgetCircuit, GadgetDispatcher
from nuconcat.concat import bare_layout, parse_layout
from nuconcat.faults import (DecodeContext, check_single_fault_ft,
                             enumerate_locations, find_min_uncorrectable,
                             propagate)
from nuconcat.gates import gate
from nuconcat.pauli import LETTERS, Pauli
from reference import (_deposit, densify_block_words, hierarchical_decode, pauli_matrix,
                       reference_apply_circuit, reference_block_words,
                       reference_find_min_uncorrectable, reference_locations,
                       reference_pair_candidates, reference_propagate, reference_residuals,
                       staircase_gadget)


def make_circuit(n, *gs):
    return GadgetCircuit(n, tuple(gs), "demo", 1)


def branches(frame, group=0):
    """A group's end rows as ({(x, z)}, deterministic), the form of
    ``reference_propagate``."""
    return ({frame.branch(r) for r in np.flatnonzero(frame.owner == group)},
            bool(frame.deterministic[group]))


ONE_QUBIT = [gates.H, gates.S, gates.S_DAG, gates.K, gates.K_DAG, gates.X, gates.Y,
             gates.Z, gates.T, gates.T_DAG, gates.Z_THETA]
MULTI_QUBIT = [gates.CNOT, gates.CZ, gates.CCZ, gates.CKZ_THETA]


@st.composite
def circuits_with_faults(draw, max_groups=1):
    """Random circuits on <= 6 active qubits, placed either at 0..5 or
    across the word boundaries of a 200-qubit register, with 1 to
    ``max_groups`` fault groups of 1-2 faults each."""
    n_active = draw(st.integers(1, 6))
    if draw(st.booleans()):
        register = 200
        active = draw(st.lists(st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 190, 199]),
                               min_size=n_active, max_size=n_active, unique=True))
    else:
        register, active = n_active, list(range(n_active))
    gate_list = []
    for _ in range(draw(st.integers(0, 10))):
        kinds = ONE_QUBIT + [k for k in MULTI_QUBIT if n_active >= (3 if k == gates.CCZ else 2)]
        kind = draw(st.sampled_from(kinds))
        theta = draw(st.sampled_from([Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)]))
        if kind == gates.CKZ_THETA:
            arity = draw(st.integers(2, n_active))
        else:
            arity = gates.ARITY.get(kind, 1)
            theta = theta if kind == gates.Z_THETA else None
        qubits = tuple(draw(st.permutations(active))[:arity])
        gate_list.append(gates.Gate(kind, qubits, theta))

    def pauli_on_active():
        x, z = draw(st.integers(0, (1 << n_active) - 1)), draw(st.integers(0, (1 << n_active) - 1))
        return _deposit(x, active), _deposit(z, active)

    places = st.integers(-1, len(gate_list) - 1)

    def fault_list():
        first = draw(places)
        group = [(first, *pauli_on_active())]
        if draw(st.booleans()):
            second = first if draw(st.booleans()) else draw(places)
            group.append((second, *pauli_on_active()))
        return group

    circuit = GadgetCircuit(register, tuple(gate_list), "random", 1)
    return circuit, [fault_list() for _ in range(draw(st.integers(1, max_groups)))]


@settings(max_examples=300, deadline=None)
@given(circuits_with_faults())
def test_propagate_matches_reference(case):
    circuit, (fault_list,) = case
    frame = propagate(circuit, [(0, *f) for f in fault_list])
    assert branches(frame) == reference_propagate(circuit, fault_list)


@settings(max_examples=200, deadline=None)
@given(circuits_with_faults(), st.integers(1, 4))
def test_branch_cap_refusal_matches_reference(case, cap):
    circuit, (fault_list,) = case
    group = [(0, *f) for f in fault_list]
    with mock.patch.object(faults, "BRANCH_CAP", cap):
        try:
            expected = reference_propagate(circuit, fault_list)
        except faults.BudgetError:
            with pytest.raises(faults.BudgetError):
                propagate(circuit, group)
        else:
            assert branches(propagate(circuit, group)) == expected


@settings(max_examples=200, deadline=None)
@given(circuits_with_faults(max_groups=5))
def test_groups_walked_together_match_reference_alone(case):
    """Several groups in one walk, each with faults at its own places,
    end as each group does on its own."""
    circuit, groups = case
    frame = propagate(circuit, [(g, *f) for g, fault_list in enumerate(groups)
                                for f in fault_list])
    for g, fault_list in enumerate(groups):
        assert branches(frame, g) == reference_propagate(circuit, fault_list)


# dyadic angles and angles of denominator 3, as theta/pi
DENSE_ANGLES = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
                Fraction(7, 4), Fraction(1, 3), Fraction(2, 3), Fraction(4, 3)]


# both sides of the word boundaries of a 130-qubit register
LAYER_SPOTS = (0, 1, 61, 62, 63, 64, 65, 66, 127, 128, 129)
ONE_QUBIT_CLIFFORD = [k for k in ONE_QUBIT if k in gates.CLIFFORD_KINDS]


@st.composite
def layered_circuits_with_faults(draw):
    """Runs of gates of one kind on disjoint qubits of a 130-qubit register,
    on 4-7 active qubits that include both sides of the boundary at 64:
    CNOT runs whose first two copies move bits by a positive and a negative
    shift, one-qubit Clifford runs, and diagonal runs with dyadic and
    denominator-3 angles.  Then 1-4 groups of one or two faults, each after
    a gate drawn anywhere, so often mid-run, on that gate's qubits or, at
    even odds, on any active qubit."""
    rest = [q for q in LAYER_SPOTS if q not in (63, 64)]
    active = [63, 64] + draw(st.lists(st.sampled_from(rest), min_size=2, max_size=5, unique=True))
    gate_list = []
    for _ in range(draw(st.integers(1, 5))):
        spots = draw(st.permutations(active))
        shape = draw(st.sampled_from(["cnot", "one-qubit", "diagonal"]))
        if shape == "cnot":
            pairs = [sorted(spots[:2]), sorted(spots[2:4], reverse=True), spots[4:6]]
            gate_list += [gate(gates.CNOT, *p) for p in pairs if len(p) == 2]
            continue
        kind = draw(st.sampled_from(ONE_QUBIT_CLIFFORD if shape == "one-qubit" else
                                    [gates.T, gates.Z_THETA, gates.CZ, gates.CCZ, gates.CKZ_THETA]))
        while spots:
            arity = draw(st.integers(2, 3)) if kind == gates.CKZ_THETA else gates.ARITY.get(kind, 1)
            theta = draw(st.sampled_from(DENSE_ANGLES)) if kind in (gates.Z_THETA, gates.CKZ_THETA) else None
            if len(spots) < arity or (gate_list and draw(st.integers(0, 3)) == 0):
                break
            gate_list.append(gates.Gate(kind, tuple(spots[:arity]), theta))
            spots = spots[arity:]
    circuit = GadgetCircuit(130, tuple(gate_list), "layered", 1)
    assume(circuit.gates)

    def fault():
        place = draw(st.integers(-1, len(gate_list) - 1))
        qubits = active if place < 0 or draw(st.booleans()) else circuit.gates[place].qubits
        x, z = (draw(st.integers(0, (1 << len(qubits)) - 1)) for _ in range(2))
        return place, _deposit(x, qubits), _deposit(z, qubits)

    return circuit, [[fault() for _ in range(draw(st.integers(1, 2)))]
                     for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=120, deadline=None)
@given(layered_circuits_with_faults())
def test_layered_walk_matches_reference(case):
    """Walking layers ends every group as the gate-by-gate reference does,
    and so does every location at the last group's places, walked as a
    campaign, where each enters after its gate's layer."""
    circuit, groups = case
    frame = propagate(circuit, [(g, *f) for g, fault_list in enumerate(groups)
                                for f in fault_list])
    for g, fault_list in enumerate(groups):
        assert branches(frame, g) == reference_propagate(circuit, fault_list)
    locations = enumerate_locations(circuit)
    frame = propagate(circuit, locations)
    for i in np.flatnonzero(np.isin(locations.place, [f[0] for f in groups[-1]])):
        loc = locations[i]
        assert branches(frame, i) == reference_propagate(circuit, [(loc.place, loc.x, loc.z)])


@pytest.mark.parametrize("cap", [8, 255, 256])
def test_branch_cap_refusal_on_a_layered_diagonal_run(cap):
    """X on all eight qubits of one layer of T gates across the word
    boundary doubles the group at each gate, to 256 branches: the layered
    walk refuses exactly when the gate-by-gate reference does."""
    qubits = range(60, 68)
    circuit = GadgetCircuit(130, tuple(gate(gates.T, q) for q in qubits), "t-layer", 1)
    assert len(circuit.layers) == 1
    fault = (-1, sum(1 << q for q in qubits), 0)
    with mock.patch.object(faults, "BRANCH_CAP", cap):
        if cap < 256:
            for walk in (lambda: propagate(circuit, [(0, *fault)]),
                         lambda: reference_propagate(circuit, [fault])):
                with pytest.raises(faults.BudgetError):
                    walk()
        else:
            rows, deterministic = branches(propagate(circuit, [(0, *fault)]))
            assert len(rows) == 256
            assert (rows, deterministic) == reference_propagate(circuit, [fault])


@pytest.mark.parametrize("n_groups, cap", [(2, 7), (2, 8), (3, 8), (3, 16)])
def test_one_diagonal_gate_on_fresh_and_branched_groups_matches_reference(n_groups, cap):
    """The T layer on qubits 0 and 3 branches groups 0 (X on 0, two rows)
    and 2 (X on 0 and 3, four rows), so the CCZ on qubits 0-2 hits them
    together with group 1 (X on 1), still one row.  The CCZ leaves groups 0
    and 1 eight rows each and group 2 sixteen: the walk refuses exactly
    when the reference does, else every group's rows and ``deterministic``,
    and per diagonal gate the groups whose rows it hits, match it."""
    circuit = make_circuit(4, gate(gates.T, 0), gate(gates.T, 3), gate(gates.CCZ, 0, 1, 2))
    groups = [[(-1, 0b0001, 0)], [(-1, 0b0010, 0)], [(-1, 0b1001, 0)]][:n_groups]
    walk = [(g, *f) for g, fault_list in enumerate(groups) for f in fault_list]
    with mock.patch.object(faults, "BRANCH_CAP", cap):
        try:
            expected = [reference_propagate(circuit, fault_list) for fault_list in groups]
        except faults.BudgetError:
            with pytest.raises(faults.BudgetError):
                propagate(circuit, walk)
            return
        frame = propagate(circuit, walk)
    assert [branches(frame, g) for g in range(n_groups)] == expected
    hits = []   # per gate that hits a row, the owner of each reference row with X on its qubits
    for j, g in enumerate(circuit.gates):
        before = GadgetCircuit(4, circuit.gates[:j], "prefix", 1)
        hits.append(sorted(owner for owner, fault_list in enumerate(groups)
                           for x, _ in reference_propagate(before, fault_list)[0]
                           if x & _deposit(7, g.qubits)))
    assert [set(h.tolist()) for h in frame.hits] == [set(h) for h in hits if h]


def reference_hits(circuit, groups):
    """Per diagonal gate that meets a row, the owner of each row of the gate-by-gate
    reference walk with X on the gate's qubits as it reaches the gate, sorted."""
    hits = []
    for j, g in enumerate(circuit.gates):
        before = GadgetCircuit(circuit.register_size, circuit.gates[:j], "prefix", 1)
        entered = [[f for f in fault_list if f[0] < j] for fault_list in groups]
        hits.append(sorted(owner for owner, fault_list in enumerate(entered) if fault_list
                           for x, _ in reference_propagate(before, fault_list)[0]
                           if not g.is_clifford and x & _deposit((1 << len(g.qubits)) - 1, g.qubits)))
    return [h for h in hits if h]


@st.composite
def spans_turned_by_cliffords(draw):
    """Two diagonal layers on a 130-qubit register, with Cliffords between them
    that carry the first layer's pending spans onto the second: H or K on qubits
    of the first layer, which turn its Z directions into X, and/or a chain of
    CNOTs from such a qubit, which copies X onward.  Group 0 has X on a qubit
    of the first layer, so it is branched there, and one more fault enters
    after that layer; up to two more groups have one input fault each."""
    spots = list(draw(st.permutations(LAYER_SPOTS)))

    def diagonal_layer(qubits):
        kind = draw(st.sampled_from([gates.T, gates.Z_THETA, gates.CZ, gates.CCZ, gates.CKZ_THETA]))
        layer = []
        while True:
            arity = draw(st.integers(2, 3)) if kind == gates.CKZ_THETA else gates.ARITY.get(kind, 1)
            if len(qubits) < arity:
                return layer
            theta = draw(st.sampled_from(DENSE_ANGLES)) if kind in (gates.Z_THETA, gates.CKZ_THETA) else None
            layer.append(gates.Gate(kind, tuple(qubits[:arity]), theta))
            qubits = qubits[arity:]

    first = diagonal_layer(spots[:draw(st.integers(3, 6))])
    assume(first)
    met = [q for g in first for q in g.qubits]
    turned, middle = [], []
    if draw(st.booleans()):
        turned = draw(st.lists(st.sampled_from(met), min_size=1, max_size=3, unique=True))
        middle += [gate(draw(st.sampled_from([gates.H, gates.K])), q) for q in turned]
    if not turned or draw(st.booleans()):
        chain = [draw(st.sampled_from(met))] + draw(st.lists(st.sampled_from(spots), min_size=1,
                                                               max_size=3, unique=True))
        assume(len(set(chain)) == len(chain))
        middle += [gate(gates.CNOT, a, b) for a, b in zip(chain, chain[1:])]
        turned = list(dict.fromkeys(turned + chain[1:]))
    rest = [q for q in draw(st.permutations(spots)) if q not in turned]
    second = diagonal_layer(turned + rest[:draw(st.integers(0, 3))])
    assume(second)
    circuit = GadgetCircuit(130, (*first, *middle, *second), "spans", 1)
    assume(sum(not layer[0].is_clifford for layer in circuit.layers) == 2)

    def pauli():
        x, z = (draw(st.integers(0, (1 << len(spots)) - 1)) for _ in range(2))
        return _deposit(x, spots), _deposit(z, spots)

    x, z = pauli()
    groups = [[(-1, x | 1 << draw(st.sampled_from(met)), z), (len(first) - 1, *pauli())]]
    groups += [[(-1, *pauli())] for _ in range(draw(st.integers(0, 2)))]
    return circuit, groups


@settings(max_examples=150, deadline=None)
@given(spans_turned_by_cliffords())
def test_pending_spans_carried_onto_a_second_diagonal_layer_match_reference(case):
    """A span the first layer left pending reaches the second layer through
    its directions or its key: every group's rows and ``deterministic``, and
    per diagonal gate the groups whose rows it meets, match the reference walk."""
    circuit, groups = case
    frame = propagate(circuit, [(g, *f) for g, fault_list in enumerate(groups) for f in fault_list])
    assert not frame.deterministic[0]
    for g, fault_list in enumerate(groups):
        assert branches(frame, g) == reference_propagate(circuit, fault_list)
    assert [set(h.tolist()) for h in frame.hits] == [set(h) for h in reference_hits(circuit, groups)]


def test_hits_record_each_hit_row_once():
    """Group 0 (X on 0 and 1) meets both T gates of the layer and group 1 (X on 1)
    the second: each gate lists the owner of each row it hits once, not once per
    row a gate-by-gate walk would have made of it by then."""
    circuit = make_circuit(3, gate(gates.T, 0), gate(gates.T, 1), gate(gates.CZ, 0, 2))
    frame = propagate(circuit, [(0, -1, 0b011, 0), (1, -1, 0b010, 0)])
    assert [h.tolist() for h in frame.hits] == [[0], [0, 1]]
    assert frame.rows == 6


def test_branch_cap_refuses_a_layer_before_writing_its_rows():
    """X on 17 qubits under one layer of 17 T gates across the word boundary
    at 64 would branch one group into 2^17 rows, over the default cap: the
    walk refuses before it writes them, within 1 MB traced."""
    qubits = range(56, 73)
    circuit = GadgetCircuit(130, tuple(gate(gates.T, q) for q in qubits), "t-layer", 1)
    assert len(circuit.layers) == 1 and faults.BRANCH_CAP < 1 << 17
    tracemalloc.start()
    try:
        with pytest.raises(faults.BudgetError):
            propagate(circuit, [(0, -1, sum(1 << q for q in qubits), 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@st.composite
def dense_circuits_with_faults(draw):
    """A random Clifford+diagonal circuit on 1-8 qubits and one fault
    group per place: group p + 1 is one random Pauli after gate p."""
    n = draw(st.integers(1, 8))
    kinds = ONE_QUBIT + [k for k in MULTI_QUBIT if n >= (3 if k == gates.CCZ else 2)]
    gate_list = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        theta = draw(st.sampled_from(DENSE_ANGLES))
        if kind == gates.CKZ_THETA:
            arity = draw(st.integers(2, n))
        else:
            arity, theta = gates.ARITY.get(kind, 1), theta if kind == gates.Z_THETA else None
        gate_list.append(gates.Gate(kind, tuple(draw(st.permutations(range(n)))[:arity]), theta))
    paulis = st.integers(0, (1 << n) - 1)
    return (GadgetCircuit(n, tuple(gate_list), "random", 1),
            [(p + 1, p, draw(paulis), draw(paulis)) for p in range(-1, len(gate_list))])


def walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """out[:, z] = sum over i of (-1)^(z.i) rows[:, i], by butterflies."""
    out = rows.copy()
    h = 1
    while h < out.shape[1]:
        lo, hi = out.reshape(len(out), -1, 2, h).transpose(2, 0, 1, 3)
        lo[...], hi[...] = lo + hi, lo - hi
        h *= 2
    return out


def dense_pauli_support(f: np.ndarray) -> set[tuple[int, int]]:
    """The (x, z) of every Pauli with a nonzero coefficient in the dense
    operator f: row x holds f[i ^ x, i], whose transform is 2^n times the
    coefficients of X^x Z^z for every z."""
    i = np.arange(len(f))
    coefficients = walsh_hadamard(f[i[:, None] ^ i, i]) / len(f)
    return {(int(x), int(z)) for x, z in zip(*np.nonzero(abs(coefficients) > 1e-9))}


@settings(max_examples=60, deadline=None)
@given(dense_circuits_with_faults())
def test_propagate_covers_the_dense_pauli_support(case):
    """A fault E after gate p ends as F = U_{>p} E U_{>p}^dagger.  Every
    Pauli in F's expansion is an end row of its group, and a deterministic
    group's one row is all of F."""
    circuit, group_faults = case
    n = circuit.register_size
    frame = propagate(circuit, group_faults)
    for group, place, x, z in group_faults:
        rest = GadgetCircuit(n, circuit.gates[place + 1:], "rest", 1)
        u = reference_apply_circuit(np.eye(1 << n, dtype=complex), rest).T
        support = dense_pauli_support(u @ pauli_matrix(Pauli(n, x, z, 0)) @ u.conj().T)
        rows, deterministic = branches(frame, group)
        assert support <= rows
        if deterministic:
            assert rows == support and len(rows) == 1


@st.composite
def faults_after_branching(draw):
    """A circuit from ``circuits_with_faults`` with a non-Clifford diagonal
    gate d, and 1-5 groups of faults after d.  The first group, and each
    later one with even odds, also gets an X on a qubit of d just before
    it, so d branches it before its later faults enter."""
    circuit, _ = draw(circuits_with_faults())
    diagonal = [p for p, g in enumerate(circuit.gates) if not g.is_clifford]
    assume(diagonal)
    d = draw(st.sampled_from(diagonal))
    active = sorted({q for g in circuit.gates for q in g.qubits})

    def pauli_on_active():
        x, z = (draw(st.integers(0, (1 << len(active)) - 1)) for _ in range(2))
        return _deposit(x, active), _deposit(z, active)

    groups = []
    for _ in range(draw(st.integers(1, 5))):
        group = [(draw(st.integers(d, len(circuit.gates) - 1)), *pauli_on_active())
                 for _ in range(draw(st.integers(1, 2)))]
        if not groups or draw(st.booleans()):
            x = 1 << draw(st.sampled_from(circuit.gates[d].qubits))
            group.insert(0, (d - 1, x, draw(st.sampled_from([0, x]))))
        groups.append(group)
    return circuit, groups


@settings(max_examples=200, deadline=None)
@given(faults_after_branching())
def test_faults_after_branching_match_reference(case):
    """A fault entering a group that a diagonal gate has branched reaches
    every row the group owns, in the slots the expansion reused or
    appended, while other groups take theirs in their own row.  Row g
    stays group g's slot through every merge and expansion."""
    circuit, groups = case
    frame = propagate(circuit, [(g, *f) for g, fault_list in enumerate(groups)
                                for f in fault_list])
    assert not frame.deterministic[0]
    for g, fault_list in enumerate(groups):
        assert branches(frame, g) == reference_propagate(circuit, fault_list)
    assert np.array_equal(frame.owner[:len(groups)], np.arange(len(groups)))


@settings(max_examples=100, deadline=None)
@given(circuits_with_faults())
def test_locations_match_reference(case):
    """The array-built locations equal the per-gate loop in index, place
    and masks, on registers of one and of four words."""
    circuit, _ = case
    locs = enumerate_locations(circuit)
    want = reference_locations(circuit)
    assert [locs[i] for i in range(len(locs))] == want


def test_location_counts():
    t = make_circuit(1, gate(gates.T, 0))
    assert len(enumerate_locations(t)) == 3 + 3
    cnot = make_circuit(2, gate(gates.CNOT, 0, 1))
    assert len(enumerate_locations(cnot)) == 6 + 15
    ccz = make_circuit(3, gate(gates.CCZ, 0, 1, 2))
    assert len(enumerate_locations(ccz)) == 9 + 63


def test_location_count_49_t_gadget(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    locs = enumerate_locations(adm.circuit)
    assert len(locs) == 3 * 49 + 60 * 15 + 15 * 3


def test_x_spreads_through_staircase():
    c = make_circuit(3, gate(gates.CNOT, 0, 1), gate(gates.CNOT, 1, 2))
    # X on qubit 0 before anything
    assert branches(propagate(c, [(0, -1, 1, 0)])) == ({(0b111, 0)}, True)


def test_z_commutes_through_diagonals():
    c = make_circuit(2, gate(gates.T, 0), gate(gates.CZ, 0, 1), gate(gates.S, 1))
    assert branches(propagate(c, [(0, -1, 0, 0b01)])) == ({(0, 0b01)}, True)


def test_x_branches_at_t():
    c = make_circuit(1, gate(gates.T, 0))
    assert branches(propagate(c, [(0, -1, 1, 0)])) == ({(1, 0), (1, 1)}, False)  # {X, Y}


def test_x_branches_at_ccz_spray_z():
    c = make_circuit(3, gate(gates.CCZ, 0, 1, 2))
    assert branches(propagate(c, [(0, -1, 0b001, 0)])) == ({(0b001, z) for z in range(8)}, False)


def test_clifford_only_is_deterministic(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.CNOT))
    locs = enumerate_locations(adm.circuit)
    frame = propagate(adm.circuit, locs)
    assert frame.deterministic.all()
    assert np.array_equal(np.bincount(frame.owner), np.ones(len(locs)))


DECODER_LAYOUTS = [*cli.LAYOUT_SHORTCUTS, "bare:steane", "bare:five_prime", "bare:five_qubit"]


def rows(errors, n):
    """(x, z) int pairs as packed rows on an n-qubit register."""
    n_words = (n + 63) // 64
    return (gates.pack((x for x, _ in errors), n_words),
            gates.pack((z for _, z in errors), n_words))


def random_errors(rng, n, count):
    """Sparse errors (weight 1-4), which mostly decode to I, and dense ones."""
    out = []
    for i in range(count):
        if i % 2:
            out.append((rng.getrandbits(n), rng.getrandbits(n)))
            continue
        x = z = 0
        for q in rng.sample(range(n), rng.randint(1, 4)):
            letter = rng.randint(1, 3)
            x |= (letter & 1) << q
            z |= (letter >> 1) << q
        out.append((x, z))
    return out


def test_fast_decoder_matches_reference(cat):
    """The table-driven decoder agrees with the Pauli-level one on all six
    table layouts and the bare layouts (one test, so that its name stays)."""
    for name in DECODER_LAYOUTS:
        lay = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
        n = lay.total_n
        errors = random_errors(random.Random(17), n, 200)
        ctx = DecodeContext(lay, 1)
        got = [LETTERS[r] for r in ctx.decode(*rows(errors, n))]
        want = [hierarchical_decode(lay, Pauli(n, x, z, 0)) for x, z in errors]
        assert got == want, name
        assert "I" in want and len(set(want)) == 4, name


@pytest.mark.parametrize("name", ["code49", "code75", "bare:steane"])
def test_decoder_data_is_linear(cat, name):
    """Block words of a product are the XOR of the factors' block words, on
    every operand of a two-operand register."""
    lay = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    n = lay.total_n
    ctx = DecodeContext(lay, 2)
    rng = random.Random(5)
    first = random_errors(rng, 2 * n, 100)
    second = random_errors(rng, 2 * n, 100)
    product = [(x1 ^ x2, z1 ^ z2) for (x1, z1), (x2, z2) in zip(first, second)]
    first_data, second_data, product_data = (
        densify_block_words(ctx.data(*rows(errors, 2 * n)), len(errors))
        for errors in (first, second, product))
    xored = first_data ^ second_data
    assert np.array_equal(xored, product_data)
    decoded = ctx.decode(*rows(product, 2 * n))
    assert np.array_equal(reference_residuals(ctx, xored), decoded)
    for (x, z), r in zip(product, decoded):
        per_operand = [hierarchical_decode(lay, Pauli(n, (x >> off) & ((1 << n) - 1),
                                                      (z >> off) & ((1 << n) - 1), 0))
                       for off in (0, n)]
        assert LETTERS[r] == next((res for res in per_operand if res != "I"), "I")


@st.composite
def stabilizer_laden_errors(draw, lay, operands):
    """An error on ``operands`` copies of a layout's register: the product
    of 0-3 factors, each an inner block's stabilizer (a random product of
    its generators, so often a non-zero error with block word 0) or a
    single-qubit Pauli inside a block."""
    x = z = 0
    for _ in range(draw(st.integers(0, 3))):
        start, code = lay.block(draw(st.integers(0, lay.outer.n - 1)))
        off = start + lay.total_n * draw(st.integers(0, operands - 1))
        if draw(st.booleans()):
            for g in code.generators:
                if draw(st.booleans()):
                    x, z = x ^ g.x << off, z ^ g.z << off
        else:
            q, letter = off + draw(st.integers(0, code.n - 1)), draw(st.integers(1, 3))
            x, z = x ^ (letter & 1) << q, z ^ (letter >> 1) << q
    return x, z


@pytest.mark.parametrize("name", ["code49", "code75", "bare:steane", "code105"])
@pytest.mark.parametrize("operands", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sparse_block_words_match_the_dense_reference(cat, name, operands, data):
    """The sparse block words densify to the dense reference array, with
    no entry on an all-zero row or on an inner stabilizer, and ``decode``
    agrees with the Pauli-level decoder on every operand."""
    lay = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    n = lay.total_n
    ctx = DecodeContext(lay, operands)
    drawn = data.draw(st.lists(stabilizer_laden_errors(lay, operands), max_size=8))
    # rows without an entry: all-zero, and one inner generator on each block that has one
    errors = drawn + [(0, 0)] + [(g.x << start, g.z << start) for start, code in
                                 map(lay.block, range(lay.outer.n)) for g in code.generators[:1]]
    planes = rows(errors, operands * n)
    sparse = list(ctx.data(*planes))
    assert np.array_equal(densify_block_words(sparse, len(errors)),
                          reference_block_words(ctx, *planes))
    assert all((kept < len(drawn)).all() for kept, _, _ in sparse)
    mask = (1 << n) - 1

    def expected(x, z):
        per_operand = (hierarchical_decode(lay, Pauli(n, x >> off & mask, z >> off & mask, 0))
                       for off in range(0, operands * n, n))
        return next((res for res in per_operand if res != "I"), "I")

    assert [LETTERS[r] for r in ctx.decode(*planes)] == [expected(x, z) for x, z in errors]


@st.composite
def block_error_lists(draw, blocks, lists=2):
    """``lists`` lists of 1-4 errors, each a product of 1-3 single-qubit Paulis
    inside inner blocks ``(start, size)`` drawn from a few that all lists
    share, so that factors often meet in one inner block."""
    hot = draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=3))

    def error():
        x = z = 0
        for _ in range(draw(st.integers(1, 3))):
            start, size = draw(st.sampled_from(hot))
            q, letter = start + draw(st.integers(0, size - 1)), draw(st.integers(1, 3))
            x ^= (letter & 1) << q
            z ^= (letter >> 1) << q
        return x, z

    return [[error() for _ in range(draw(st.integers(1, 4)))] for _ in range(lists)]


@pytest.mark.parametrize("name", ["code49", "code75", "bare:steane"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_outer_words_decode_like_the_product(cat, name, data):
    """The split screen's outer words W(a) ^ W(b) ^ P give every product of
    a first and a second error the class that decoding the product gives,
    on both operands of a two-operand register."""
    lay = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    n = lay.total_n
    ctx = DecodeContext(lay, 2)
    blocks = [(off + start, code.n) for off in (0, n)
              for start, code in map(lay.block, range(lay.outer.n))]
    first, second = data.draw(block_error_lists(blocks))
    screen = faults.PairScreen(ctx, ctx.data(*rows(first + second, 2 * n)), len(first + second))
    words = screen.pair_words(slice(0, len(first)), slice(len(first), len(first) + len(second)))
    product = [(x1 ^ x2, z1 ^ z2) for x1, z1 in first for x2, z2 in second]
    assert np.array_equal(ctx.classes(words).ravel(), ctx.decode(*rows(product, 2 * n)))


@pytest.mark.parametrize("name", ["code49", "code75", "bare:steane"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_outer_words_decode_like_the_product_on_offset_slices(cat, name, data):
    """Slices inside a larger set of rows: filler rows come before the first
    slice, between the two and after the second, in the same inner blocks.
    Every product still gets the outer words and the class that decoding it gives."""
    lay = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    n = lay.total_n
    ctx = DecodeContext(lay, 2)
    blocks = [(off + start, code.n) for off in (0, n)
              for start, code in map(lay.block, range(lay.outer.n))]
    before, first, between, second, after = data.draw(block_error_lists(blocks, 5))
    errors = before + first + between + second + after
    screen = faults.PairScreen(ctx, ctx.data(*rows(errors, 2 * n)), len(errors))
    a = slice(len(before), len(before) + len(first))
    b = slice(a.stop + len(between), a.stop + len(between) + len(second))
    words = screen.pair_words(a, b)
    assert words.shape == (2, len(first), len(second))
    product = rows([(x1 ^ x2, z1 ^ z2) for x1, z1 in first for x2, z2 in second], 2 * n)
    assert np.array_equal(words.reshape(2, -1), ctx.words(ctx.data(*product), product[0].shape[1]))
    assert np.array_equal(ctx.classes(words).ravel(), ctx.decode(*product))


def test_single_fault_pass_examples(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    report = check_single_fault_ft(layouts[49], adm.circuit)
    assert report.passed
    assert report.locations_checked == 3 * 49 + 60 * 15 + 15 * 3


def test_branch_confinement_single_fault(lib, layouts):
    """A single fault never leaves more than one physical error per inner
    block at the end of the 49-qubit T gadget."""
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    frame = propagate(adm.circuit, ((loc.index, loc.place, loc.x, loc.z)
                                    for loc in enumerate_locations(adm.circuit)))
    for r in range(len(frame.owner)):
        bx, bz = frame.branch(r)
        support = bx | bz
        for block in range(3):
            mask = ((1 << 15) - 1) << (15 * block)
            assert (support & mask).bit_count() <= 1
        assert (support >> 45).bit_count() <= 1


def test_negative_control_half_staircase(cat):
    """Dropping the uncompute half leaves single faults uncorrectable, and
    the mutilated gadget no longer verifies as a logical gate."""
    code = cat.code("steane")
    full = staircase_gadget(code, 0, Fraction(1, 4))
    half = GadgetCircuit(7, full.gates[:3], "broken-T", 1)
    lay = bare_layout(code)
    report = check_single_fault_ft(lay, half)
    assert not report.passed
    assert report.min_uncorrectable_size == 1
    from nuconcat.simulate import verify_logical_action
    cert = verify_logical_action(code, half, gate(gates.T, 0))
    assert not cert.passed


def test_single_level_staircase_is_not_fault_tolerant(cat):
    """On a bare block even the full staircase spreads one fault into a
    multi-qubit error: an input X branches into a Y at the collector gate
    whose Z part the uncompute chain fans back out.  This is why the
    coupled qubits must be encoded blocks."""
    code = cat.code("steane")
    full = staircase_gadget(code, 0, Fraction(1, 4))
    report = check_single_fault_ft(bare_layout(code), full)
    assert not report.passed


def test_pair_witness_on_49(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    report = find_min_uncorrectable(layouts[49], adm.circuit)
    assert report.min_uncorrectable_size == 2
    assert report.witness is not None
    a, b = report.witness
    assert a.place == -1 and b.place == -1  # earliest failing pair: two inputs


def test_pair_witness_replay_consistency(lib, layouts):
    """The reported witness fails under joint propagation as well."""
    lay = layouts[49]
    adm = lib.gadget(lay, library.logical_gate(gates.T))
    report = find_min_uncorrectable(lay, adm.circuit)
    a, b = report.witness
    frame = propagate(adm.circuit, [(0, a.place, a.x, a.z), (0, b.place, b.x, b.z)])
    assert DecodeContext(lay, adm.circuit.operands).decode(frame.x, frame.z).any()


def test_bare_transversal_pairs_fail_without_spreading(cat, lib):
    """On a bare distance-3 block, two independent faults already exceed
    the code capability, so transversal gadgets have pair witnesses too;
    the point is that the faults never spread (each branch is a product of
    two weight-1 errors on their own qubits)."""
    lay = bare_layout(cat.code("steane"))
    gadgets = [lib.gadget(lay, library.logical_gate(k))
               for k in (gates.H, gates.S)]
    result = faults.effective_distance_report(lay, [a.circuit for a in gadgets])
    assert result.value == 3
    a, b = result.witness_report.witness
    for loc in (a, b):
        ends, det = branches(propagate(gadgets[0].circuit, [(0, loc.place, loc.x, loc.z)]))
        assert det
        for bx, bz in ends:
            assert (bx | bz).bit_count() <= 1


def test_budget_refusal(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    with pytest.raises(faults.BudgetError):
        find_min_uncorrectable(layouts[49], adm.circuit, budget=10)


def test_propagate_rejects_places_outside_the_circuit():
    c = make_circuit(3, gate(gates.CNOT, 0, 1), gate(gates.T, 1), gate(gates.CNOT, 0, 1))
    for place in (-5, -2, 3, 99):
        with pytest.raises(ValueError, match="outside"):
            propagate(c, [(0, place, 1, 0)])
        with pytest.raises(ValueError, match="outside"):
            propagate(c, [(0, 0, 1, 0), (0, place, 1, 0)])
    for joint in ([(0, 0, 1, 0), (0, 2, 1, 0)], [(0, 2, 1, 0), (0, 0, 1, 0)]):
        assert branches(propagate(c, joint))[0] == {(0b010, 0)}
    for x, z in ((1 << 3, 0), (0, 1 << 70), (-1, 0)):
        with pytest.raises(ValueError, match="outside the register"):
            propagate(c, [(0, 0, x, z)])


def test_propagate_merges_faults_at_one_place():
    c = make_circuit(3, gate(gates.CNOT, 0, 1), gate(gates.T, 1), gate(gates.CNOT, 0, 1))
    assert branches(propagate(c, [(0, -1, 1, 0), (0, -1, 1, 0)])) == ({(0, 0)}, True)
    assert (branches(propagate(c, [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 2)]))
            == branches(propagate(c, [(0, 0, 1, 1), (0, 1, 0, 2)])))


def test_effective_distance_names_budget_refusals(lib, layouts):
    """A refused pair search leaves the distance open and says why."""
    lay = layouts[49]
    circuits = [lib.gadget(lay, library.logical_gate(k)).circuit for k in (gates.T, gates.CCZ)]
    result = faults.effective_distance_report(lay, circuits, budget=10)
    assert result.value is None and result.witness_report is None
    assert "refused" in result.statement and ">=" not in result.statement
    for c in circuits:
        assert c.label in result.statement


def test_effective_distance_broken_gadget(cat):
    code = cat.code("steane")
    full = staircase_gadget(code, 0, Fraction(1, 4))
    half = GadgetCircuit(7, full.gates[:3], "broken-T", 1)
    result = faults.effective_distance_report(bare_layout(code), [half])
    assert result.value == 1


def test_effective_distance_runs_every_single_fault_suite(cat):
    """A broken gadget ahead of a bare staircase T: both suites are
    reported, the first failing one is the witness and no pair is searched."""
    code = cat.code("steane")
    full = staircase_gadget(code, 0, Fraction(1, 4))
    half = GadgetCircuit(7, full.gates[:3], "broken-T", 1)
    result = faults.effective_distance_report(bare_layout(code), [half, full])
    assert result.value == 1 and result.statement == "single fault uncorrectable in broken-T"
    assert [rep.gadget for rep in result.single_fault_reports] == ["broken-T", full.label]
    assert result.witness_report is result.single_fault_reports[0]
    assert result.pair_reports == []


@st.composite
def circuits_with_diagonal_layers(draw):
    """Clifford+diagonal circuits on the seven qubits of a bare Steane
    block: two or three layers of non-Clifford diagonal gates on disjoint
    qubits, a layer of H on some qubits between each two, and random
    Clifford gates before, between and after them."""
    n, gate_list = 7, []

    def cliffords():
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from([gates.H, gates.S, gates.CNOT, gates.CZ]))
            qubits = draw(st.permutations(range(n)))[:gates.ARITY.get(kind, 1)]
            gate_list.append(gates.Gate(kind, tuple(qubits)))

    cliffords()
    for layer in range(draw(st.integers(2, 3))):
        if layer:
            spots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            gate_list += [gate(gates.H, q) for q in spots]
            cliffords()
        kind = draw(st.sampled_from([gates.T, gates.Z_THETA, gates.CCZ, gates.CKZ_THETA]))
        theta = Fraction(1, 4) if kind in (gates.Z_THETA, gates.CKZ_THETA) else None
        spots = draw(st.permutations(range(n)))
        for _ in range(draw(st.integers(1, 2))):
            arity = draw(st.integers(2, 3)) if kind == gates.CKZ_THETA else gates.ARITY.get(kind, 1)
            if len(spots) >= arity:
                gate_list.append(gates.Gate(kind, tuple(spots[:arity]), theta))
                spots = spots[arity:]
    cliffords()
    return GadgetCircuit(n, tuple(gate_list), "diagonal-layers", 1)


@settings(max_examples=60, deadline=None)
@given(circuits_with_diagonal_layers(), st.data())
def test_pair_verdicts_are_exact_by_product(cat, circuit, data):
    """Two locations walked as one group end with rows that the products of
    their own end rows contain, as sets: at a gate both hit, the joint walk
    expands only where x_a ^ x_b has X, the products wherever either has.
    Unless a gate is hit by both, the two are equal.  Every pair's verdict,
    walked or read off the products, is the gate-by-gate reference walk's
    least failing row and its class."""
    layout = bare_layout(cat.code("steane"))
    campaign = faults.Campaign(layout, circuit)
    hitting = np.flatnonzero(campaign.hits.any(axis=1)).tolist()
    everyone = range(len(campaign.locations))
    for _ in range(6):
        pool = hitting if len(hitting) > 1 and data.draw(st.booleans()) else everyone
        a, b = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2,
                                         unique=True)))
        joint = [(loc.place, loc.x, loc.z) for loc in map(campaign.locations.__getitem__, (a, b))]
        ends, _ = reference_propagate(circuit, joint)
        ends = sorted(ends)
        residual = campaign.ctx.decode(*rows(ends, 7))
        failing = [(xz, LETTERS[r]) for xz, r in zip(ends, residual) if r]
        assert campaign.verdict(a, b) == (failing[0] if failing else None)
        own = [branches(campaign.frame, g)[0] for g in (a, b)]
        products = {(xa ^ xb, za ^ zb) for xa, za in own[0] for xb, zb in own[1]}
        walked = branches(propagate(circuit, [(0, *f) for f in joint]))[0]
        assert walked <= products
        assert walked == products or (campaign.hits[a] & campaign.hits[b]).any()


def test_effective_distance_drops_pair_searches_before_a_broken_gadget(cat):
    """A sound transversal H ahead of a broken gadget: H's pair search runs
    on its campaign before the broken suite, and the report drops it."""
    layout = bare_layout(cat.code("steane"))
    h = GadgetDispatcher(cat.rules).logical_gadget(layout, library.logical_gate(gates.H))
    half = GadgetCircuit(7, staircase_gadget(cat.code("steane"), 0, Fraction(1, 4)).gates[:3],
                         "broken-T", 1)
    assert find_min_uncorrectable(layout, h).witness is not None
    result = faults.effective_distance_report(layout, [h, half])
    assert result.value == 1 and result.statement == "single fault uncorrectable in broken-T"
    assert result.witness_report is result.single_fault_reports[1] and result.pair_reports == []


# -- ordered outputs: these depend on the scan order ---------------------------------

def oracle_free_gadget(cat, name, kind):
    layout = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    circuit = GadgetDispatcher(cat.rules).logical_gadget(layout, library.logical_gate(kind))
    return layout, circuit


@pytest.mark.parametrize("name,kind,count", [
    ("bare:steane", gates.T, 2874),   # branched groups
    ("code49", gates.CNOT, 2454),     # two operands, shared columns
    ("code105", gates.S, 0),
])
def test_pair_candidates_follow_the_per_row_screen(cat, monkeypatch, name, kind, count):
    """The block screen yields the candidates of the per-row reference
    screen in the same order, whatever the block size."""
    layout, circuit = oracle_free_gadget(cat, name, kind)
    want = reference_pair_candidates(layout, circuit)
    assert len(want) == count
    for cap in (faults.PAIR_BLOCK, 1, 3):
        monkeypatch.setattr(faults, "PAIR_BLOCK", cap)
        screen, _, _, bounds = faults.Campaign(layout, circuit).screen
        seen = [pair for first, second in screen.candidates(bounds)
                for pair in zip(first.tolist(), second.tolist())]
        assert seen == want, cap


@pytest.mark.parametrize("name,kind", [("code105", gates.S), ("code49", gates.CNOT)])
def test_pair_screen_allocates_at_most_9_bytes_per_row_pair(cat, name, kind):
    """The traced peak of one full ``candidates`` run stays within 9 bytes per
    row pair of a ``PAIR_BLOCK`` step per operand: the screen holds one step's
    words, letters and cells, with no block-sized intp copy."""
    layout, circuit = oracle_free_gadget(cat, name, kind)
    screen, _, _, bounds = faults.Campaign(layout, circuit).screen
    tracemalloc.start()
    try:
        for _ in screen.candidates(bounds):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * faults.PAIR_BLOCK * circuit.operands, peak


@pytest.mark.parametrize("name", ["code105", "code49", "code75"])
def test_decode_allocates_at_most_48_bytes_per_row(cat, name):
    """The traced peak of one ``decode`` of a CCZ campaign frame, after a warm-up
    call, stays within 48 bytes per row: a column holds its every-row lookup and
    its non-zero words, and no gathered run of columns."""
    layout, circuit = oracle_free_gadget(cat, name, gates.CCZ)
    campaign = faults.Campaign(layout, circuit)
    ctx, frame = campaign.ctx, campaign.frame
    ctx.decode(frame.x, frame.z)
    tracemalloc.start()
    try:
        ctx.decode(frame.x, frame.z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * frame.rows, peak


@pytest.mark.parametrize("name", ["code105", "code49", "code75"])
def test_walk_peak_is_at_most_two_and_a_half_times_its_end_rows(cat, name):
    """The traced peak of one warm walk of a CCZ campaign stays within 2.5
    times the bytes of its end rows' x and z planes: the walk carries one key
    per hit row and writes the spans once, into room made for them."""
    _, circuit = oracle_free_gadget(cat, name, gates.CCZ)
    locations = enumerate_locations(circuit)
    propagate(circuit, locations)
    tracemalloc.start()
    try:
        frame = propagate(circuit, locations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (frame.x.nbytes + frame.z.nbytes), peak


@pytest.mark.parametrize("name,kind,walked", [
    ("bare:steane", gates.T, [(0, 1)]),   # one T gate: every pair that meets it shares it
    ("code49", gates.CNOT, []),
    ("code105", gates.S, []),
    ("code49", gates.T, []),              # the witness (0, 3) hits two different T gates
])
def test_only_pairs_that_share_a_hit_gate_are_walked(cat, monkeypatch, name, kind, walked):
    """``_confirm_pair`` sees only candidates that share a hit gate, in
    order, whatever the block size; on bare:steane T the walk clears the
    first one, which the product rows alone would fail."""
    layout, circuit = oracle_free_gadget(cat, name, kind)
    confirm = faults._confirm_pair
    for cap in (faults.PAIR_BLOCK, 1, 3):
        seen = []

        def record(ctx, circuit, a, b):
            seen.append((a.index, b.index))
            return confirm(ctx, circuit, a, b)

        monkeypatch.setattr(faults, "PAIR_BLOCK", cap)
        monkeypatch.setattr(faults, "_confirm_pair", record)
        campaign = faults.Campaign(layout, circuit)
        find_min_uncorrectable(layout, circuit, campaign=campaign)
        assert seen == walked, cap
        assert all((campaign.hits[a] & campaign.hits[b]).any() for a, b in seen)
    if walked:
        screen, _, _, bounds = campaign.screen
        (a, b), = walked
        assert confirm(campaign.ctx, circuit, campaign.locations[a], campaign.locations[b]) is None
        products = screen.pair_words(slice(*bounds[a:a + 2]), slice(*bounds[b:b + 2]))
        assert campaign.ctx.classes(products).any()


@pytest.mark.parametrize("name,kind", [
    ("code49", gates.T), ("code47", gates.T), ("code49", gates.CNOT), ("code105", gates.S),
    ("bare:steane", gates.T),   # branched groups
])
def test_pair_search_matches_the_confirming_oracle(cat, monkeypatch, name, kind):
    """Witness, ``Failure.branch`` and residual equal those of the scan
    that walks every candidate, whatever the block size."""
    layout, circuit = oracle_free_gadget(cat, name, kind)
    for cap in (faults.PAIR_BLOCK, 1, 3):
        monkeypatch.setattr(faults, "PAIR_BLOCK", cap)
        assert find_min_uncorrectable(layout, circuit) == reference_find_min_uncorrectable(
            layout, circuit), cap


def test_effective_distance_matches_the_confirming_oracle(cat, monkeypatch):
    """The code49 report, on one campaign per gadget, equals standalone
    single-fault suites and the confirming scan in gadget order."""
    layout = parse_layout(cli.LAYOUT_SHORTCUTS["code49"], cat.code)
    dispatcher = GadgetDispatcher(cat.rules)
    circuits = [dispatcher.logical_gadget(layout, library.logical_gate(k))
                for k in cli.CAMPAIGN_GATES[layout.outer.name]]
    singles = [check_single_fault_ft(layout, c) for c in circuits]
    for cap in (faults.PAIR_BLOCK, 1, 3):
        monkeypatch.setattr(faults, "PAIR_BLOCK", cap)
        pairs = []
        for c in circuits:
            pairs.append((c.label, reference_find_min_uncorrectable(layout, c)))
            if pairs[-1][1].witness:
                break
        result = faults.effective_distance_report(layout, circuits)
        assert (result.value, result.statement) == (3, "2-fault witness in T")
        assert result.single_fault_reports == singles
        assert result.pair_reports == pairs and result.witness_report == pairs[-1][1], cap


def test_bare_steane_t_campaign_order(cat):
    layout, circuit = oracle_free_gadget(cat, "bare:steane", gates.T)
    report = check_single_fault_ft(layout, circuit)
    assert (report.locations_checked, report.branches_checked, len(report.failures)) == (84, 106, 46)
    assert [(f.locations, f.branch, f.residual) for f in report.failures[:2]] == [
        ((0,), (1, 7), "Z"), ((1,), (1, 6), "Z")]
    keys = [(f.locations, f.branch) for f in report.failures]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name,kind,expected", [
    ("code105", gates.CCZ, (4590, 11520, 0)),
    ("code49", gates.CCZ, (4086, 11016, 0)),
    ("code75", gates.CCZ, (4320, 11250, 0)),
    ("code49", gates.T, (1092, 1422, 0)),
    ("code47", gates.T, (1086, 1416, 0)),
])
def test_campaign_counts(cat, name, kind, expected):
    """(locations, branches, failures) of the single-fault campaigns behind
    the table's T and CCZ rows."""
    layout, circuit = oracle_free_gadget(cat, name, kind)
    report = check_single_fault_ft(layout, circuit)
    assert (report.locations_checked, report.branches_checked, len(report.failures)) == expected


@pytest.mark.parametrize("name,kind,digest", [("code49", gates.CCZ, "4f073d0bd5edb991"),
                                               ("code49", gates.T, "339b111ef9ddb402"),
                                               ("code105", gates.CCZ, "3c7bee9c564b51ad"),
                                               ("code75", gates.CCZ, "a42bb1bf6e99a3ef")])
def test_campaign_frames_are_pinned(cat, name, kind, digest):
    """A walk's rows, owners and hits, in frame order, are pinned: each
    location's row stays in its slot, as the key of its span once the diagonal
    layer hits it; the spans follow, by dimension, then subset by subset, one
    row per key in slot order.  Hits list a gate's rows in slot order."""
    _, circuit = oracle_free_gadget(cat, name, kind)
    frame = propagate(circuit, enumerate_locations(circuit))
    arrays = (frame.x, frame.z, frame.owner, *frame.hits)
    assert hashlib.sha256(b"".join(a.astype("<i8").tobytes() for a in arrays)).hexdigest()[:16] \
        == digest


@pytest.mark.parametrize("name,kind,expected", [
    ("code49", gates.T, (0, 3)),
    ("code49", gates.CNOT, (135, 138)),
    ("code105", gates.S, None),
])
def test_first_pair_witness(cat, name, kind, expected):
    layout, circuit = oracle_free_gadget(cat, name, kind)
    report = find_min_uncorrectable(layout, circuit)
    if expected is None:
        assert report.min_uncorrectable_size == "none <= 2" and report.witness is None
    else:
        assert report.min_uncorrectable_size == 2
        assert tuple(loc.index for loc in report.witness) == expected


def test_a_layout_of_another_size_is_refused(cat):
    """Both suites refuse a circuit whose operand blocks are not copies of
    the layout: the code49 T gadget on the 47-qubit code47 layout."""
    _, circuit = oracle_free_gadget(cat, "code49", gates.T)
    code47 = parse_layout(cli.LAYOUT_SHORTCUTS["code47"], cat.code)
    for suite in (check_single_fault_ft, find_min_uncorrectable):
        with pytest.raises(ValueError, match="gadget blocks do not match the layout"):
            suite(code47, circuit)


def test_a_campaign_of_another_gadget_is_refused(cat):
    """Both suites refuse a campaign walked for another circuit or layout,
    instead of reporting its walk under their own gadget's name; the
    gadget's own campaign, or an equal one, is taken."""
    layout, t_circuit = oracle_free_gadget(cat, "code49", gates.T)
    _, ccz_circuit = oracle_free_gadget(cat, "code49", gates.CCZ)
    bare, bare_t = oracle_free_gadget(cat, "bare:steane", gates.T)
    ccz = faults.Campaign(layout, ccz_circuit)
    with pytest.raises(ValueError, match="campaign walks another gadget, not T on"):
        check_single_fault_ft(layout, t_circuit, campaign=ccz)
    with pytest.raises(ValueError, match="campaign walks another gadget, not T on"):
        find_min_uncorrectable(layout, t_circuit, campaign=ccz)
    t = faults.Campaign(layout, t_circuit)
    with pytest.raises(ValueError, match="not T on outer=steane;assign=bare"):
        find_min_uncorrectable(bare, bare_t, campaign=t)
    with pytest.raises(ValueError, match="not T on outer=steane;assign=bare"):
        check_single_fault_ft(bare, t_circuit, campaign=t)
    twin = faults.Campaign(*oracle_free_gadget(cat, "code49", gates.T))
    report = check_single_fault_ft(layout, t_circuit, campaign=twin)
    assert (report.locations_checked, report.branches_checked) == (1092, 1422)
