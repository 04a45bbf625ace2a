import random
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
from nuconcat.pauli import Pauli
from reference import (_deposit, hierarchical_decode, reference_locations,
                       reference_propagate, staircase_gadget)


def make_circuit(n, *gs):
    return GadgetCircuit(n, tuple(gs), "demo", ((0, n),))


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

    circuit = GadgetCircuit(register, tuple(gate_list), "random", ((0, register),))
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
    appended, while other groups take theirs in their own row."""
    circuit, groups = case
    frame = propagate(circuit, [(g, *f) for g, fault_list in enumerate(groups)
                                for f in fault_list])
    assert not frame.deterministic[0]
    for g, fault_list in enumerate(groups):
        assert branches(frame, g) == reference_propagate(circuit, fault_list)


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
    return (faults._pack((x for x, _ in errors), n_words),
            faults._pack((z for _, z in errors), n_words))


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
        ctx = DecodeContext(lay, ((0, n),))
        got = [faults.RESIDUAL[r] for r in ctx.decode(*rows(errors, n))]
        want = [hierarchical_decode(lay, Pauli(n, x, z, 0)) for x, z in errors]
        assert got == want, name
        assert "I" in want and len(set(want)) == 4, name


@pytest.mark.parametrize("name", ["code49", "code75", "bare:steane"])
def test_decoder_data_is_linear(cat, name):
    """Block words of a product are the XOR of the factors' block words, on
    every operand of a two-operand register."""
    lay = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    n = lay.total_n
    ctx = DecodeContext(lay, ((0, n), (n, n)))
    rng = random.Random(5)
    first = random_errors(rng, 2 * n, 100)
    second = random_errors(rng, 2 * n, 100)
    product = [(x1 ^ x2, z1 ^ z2) for (x1, z1), (x2, z2) in zip(first, second)]
    xored = ctx.data(*rows(first, 2 * n)) ^ ctx.data(*rows(second, 2 * n))
    assert np.array_equal(xored, ctx.data(*rows(product, 2 * n)))
    decoded = ctx.decode(*rows(product, 2 * n))
    assert np.array_equal(ctx.residuals(xored), decoded)
    for (x, z), r in zip(product, decoded):
        per_operand = [hierarchical_decode(lay, Pauli(n, (x >> off) & ((1 << n) - 1),
                                                      (z >> off) & ((1 << n) - 1), 0))
                       for off in (0, n)]
        assert "IXZY"[r] == next((res for res in per_operand if res != "I"), "I")


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
    half = GadgetCircuit(7, full.gates[:3], "broken-T", ((0, 7),))
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
    assert DecodeContext(lay, adm.circuit.blocks).decode(frame.x, frame.z).any()


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
    half = GadgetCircuit(7, full.gates[:3], "broken-T", ((0, 7),))
    result = faults.effective_distance_report(bare_layout(code), [half])
    assert result.value == 1


# -- ordered outputs: these depend on the scan order ---------------------------------

def oracle_free_gadget(cat, name, kind):
    layout = parse_layout(cli.LAYOUT_SHORTCUTS.get(name, name), cat.code)
    circuit = GadgetDispatcher(cat.rules).logical_gadget(layout, library.logical_gate(kind))
    return layout, circuit


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
