from fractions import Fraction

import pytest

from nuconcat import faults, gates, library
from nuconcat.circuits import GadgetCircuit, staircase_gadget
from nuconcat.concat import bare_layout, hierarchical_decode
from nuconcat.faults import (DecodeContext, check_single_fault_ft,
                             enumerate_locations, find_min_uncorrectable,
                             propagate)
from nuconcat.gates import gate
from nuconcat.pauli import Pauli


def make_circuit(n, *gs):
    return GadgetCircuit(n, tuple(gs), "demo", ((0, n),))


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
    branches, det = propagate(c, [(-1, 1, 0)])  # X on qubit 0 before anything
    assert det and branches == {(0b111, 0)}


def test_z_commutes_through_diagonals():
    c = make_circuit(2, gate(gates.T, 0), gate(gates.CZ, 0, 1), gate(gates.S, 1))
    branches, det = propagate(c, [(-1, 0, 0b01)])
    assert det and branches == {(0, 0b01)}


def test_x_branches_at_t():
    c = make_circuit(1, gate(gates.T, 0))
    branches, det = propagate(c, [(-1, 1, 0)])
    assert not det
    assert branches == {(1, 0), (1, 1)}  # {X, Y} envelope


def test_x_branches_at_ccz_spray_z():
    c = make_circuit(3, gate(gates.CCZ, 0, 1, 2))
    branches, det = propagate(c, [(-1, 0b001, 0)])
    assert not det
    assert branches == {(0b001, z) for z in range(8)}


def test_clifford_only_is_deterministic(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.CNOT))
    for loc in enumerate_locations(adm.circuit)[:60]:
        branches, deterministic = propagate(adm.circuit, [(loc.place, loc.x, loc.z)])
        assert deterministic and len(branches) == 1


def test_fast_decoder_matches_reference(layouts):
    """The bit-mask decode pipeline agrees with the Pauli-level one."""
    import random
    rng = random.Random(17)
    lay = layouts[49]
    ctx = DecodeContext(lay)
    for _ in range(300):
        x = rng.getrandbits(49)
        z = rng.getrandbits(49)
        assert ctx.decode(x, z) == hierarchical_decode(lay, Pauli(49, x, z, 0))


def test_single_fault_pass_examples(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    report = check_single_fault_ft(layouts[49], adm.circuit)
    assert report.passed
    assert report.locations_checked == 3 * 49 + 60 * 15 + 15 * 3


def test_branch_confinement_single_fault(lib, layouts):
    """A single fault never leaves more than one physical error per inner
    block at the end of the 49-qubit T gadget."""
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    for loc in enumerate_locations(adm.circuit):
        for bx, bz in propagate(adm.circuit, [(loc.place, loc.x, loc.z)])[0]:
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
    from nuconcat.simulate import Operand, verify_logical_action
    cert = verify_logical_action([Operand.from_code(code)], half,
                                 gates.gate_matrix(gate(gates.T, 0)))
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
    branches, _ = propagate(adm.circuit, [(a.place, a.x, a.z), (b.place, b.x, b.z)])
    ctx = faults._context_for(adm.circuit, lay)
    assert any(faults._decode_operands(ctx, bx, bz) != "I" for bx, bz in branches)


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
        branches, det = propagate(gadgets[0].circuit, [(loc.place, loc.x, loc.z)])
        assert det
        for bx, bz in branches:
            assert (bx | bz).bit_count() <= 1


def test_budget_refusal(lib, layouts):
    adm = lib.gadget(layouts[49], library.logical_gate(gates.T))
    with pytest.raises(faults.BudgetError):
        find_min_uncorrectable(layouts[49], adm.circuit, 2, budget=10)


def test_propagate_rejects_places_outside_the_circuit():
    c = make_circuit(3, gate(gates.CNOT, 0, 1), gate(gates.T, 1), gate(gates.CNOT, 0, 1))
    for place in (-5, -2, 3, 99):
        with pytest.raises(ValueError, match="outside"):
            propagate(c, [(place, 1, 0)])
        with pytest.raises(ValueError, match="outside"):
            propagate(c, [(0, 1, 0), (place, 1, 0)])
    for joint in ([(0, 1, 0), (2, 1, 0)], [(2, 1, 0), (0, 1, 0)]):
        assert propagate(c, joint)[0] == {(0b010, 0)}


def test_propagate_merges_faults_at_one_place():
    c = make_circuit(3, gate(gates.CNOT, 0, 1), gate(gates.T, 1), gate(gates.CNOT, 0, 1))
    assert propagate(c, [(-1, 1, 0), (-1, 1, 0)]) == ({(0, 0)}, True)
    assert propagate(c, [(0, 1, 0), (0, 0, 1), (1, 0, 2)]) == propagate(c, [(0, 1, 1), (1, 0, 2)])


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
