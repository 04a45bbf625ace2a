"""Acceptance suite: the nine exit criteria, one test each, with a
pass/fail line printed per criterion (run with ``pytest -s`` to see them).

Every expected number here is either recomputed on the spot by an
independent route or was frozen after being derived by the oracles in
this repository; nothing is tuned to make a test pass.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from nuconcat import cli, faults, gates, library, simulate
from nuconcat.circuits import GadgetCircuit, SynthesisError, circuit_to_text
from nuconcat.codes import distance
from nuconcat.concat import bare_layout, concatenated_distance, flatten, non_uniform_layout
from nuconcat.gates import gate
from nuconcat.pauli import Pauli
from reference import hierarchical_decode, pauli_matrix, staircase_gadget

FIDELITY_TOL = 1e-10


def _line(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_base_code_distances(cat):
    started = time.time()
    values = {}
    for name in ("steane", "five_qubit", "five_prime", "rm15"):
        values[name] = distance(cat.code(name))
    elapsed = time.time() - started
    ok = all(v == 3 for v in values.values()) and elapsed < 5.0
    _line(1, ok, f"distances={values} in {elapsed:.2f}s (< 5s)")


def test_criterion_2_staircase_structure_and_fidelity(cat):
    started = time.time()
    cases = [("steane", 0, Fraction(1, 4)), ("steane", 2, Fraction(1)),
             ("five_prime", 0, Fraction(1, 4)), ("five_prime", 1, Fraction(1)),
             ("five_prime", 2, Fraction(1))]
    checked = []
    for name, k, theta in cases:
        code = cat.code(name)
        circuit = staircase_gadget(code, k, theta)
        cert = library.verify_gadget(code, circuit, gates.diagonal_gate(tuple(range(k + 1)), theta))
        d = distance(code)
        for b in range(k + 1):
            touched = {q for q in circuit.touched_qubits()
                       if b * code.n <= q < (b + 1) * code.n}
            assert len(touched) == d, (name, k, b)
        assert cert.method == "dense"
        assert cert.fidelity >= 1 - FIDELITY_TOL
        checked.append(f"{name} k={k} fid={cert.fidelity:.3e}")
    elapsed = time.time() - started
    _line(2, elapsed < 60.0, f"{len(cases)} gadgets couple d=3 qubits, {elapsed:.1f}s (< 60s)")


def test_criterion_3_transversality_certificates(cat, lib):
    rm_t = lib.rule_certificate("rm15", gates.T)
    ok_t = rm_t.passed and "css-coset" in rm_t.method
    rm_ccz = lib.rule_certificate("rm15", gates.CCZ)
    ok_ccz = rm_ccz.passed and "css-coset" in rm_ccz.method and "4096" in rm_ccz.details
    k_cert = lib.rule_certificate("five_prime", gates.K)
    ok_k = k_cert.passed and "dense" in k_cert.method and k_cert.fidelity >= 1 - FIDELITY_TOL
    _line(3, ok_t and ok_ccz and ok_k,
          f"T:{rm_t.method} CCZ:{rm_ccz.details} K:dense fid={k_cert.fidelity:.3e}")


def test_criterion_4_single_fault_campaigns(cat, lib, layouts):
    started = time.time()
    campaigns = [(layouts[49], [gates.T, gates.CCZ]),
                 (layouts[47], [gates.T, gates.S, gates.CZ, gates.CCZ, gates.K])]
    total_locations = 0
    failures = 0
    for layout, kinds in campaigns:
        for kind in kinds:
            adm = lib.gadget(layout, library.logical_gate(kind))
            report = faults.check_single_fault_ft(layout, adm.circuit)
            total_locations += report.locations_checked
            failures += len(report.failures)
    elapsed = time.time() - started
    _line(4, failures == 0 and elapsed < 600.0,
          f"{total_locations} locations, {failures} failures, {elapsed:.0f}s (< 600s)")


def test_criterion_5_effective_distance_witnesses(cat, lib, layouts, tmp_path):
    found = {}
    for total in (49, 75, 105):
        layout = layouts[total]
        adm = lib.gadget(layout, library.logical_gate(gates.T))
        report = faults.find_min_uncorrectable(layout, adm.circuit)
        assert report.witness is not None, total
        found[total] = report
        # replay the witness through the CLI path
        path = tmp_path / f"t{total}.circuit"
        path.write_text(circuit_to_text(adm.circuit))
        fault_args = []
        for loc in report.witness:
            fault_args.append(f"--fault={loc.place}:{loc.pauli(adm.circuit.register_size)}")
        code = cli.main(["replay", "--layout", layout.descriptor,
                         "--circuit", str(path), *fault_args, "--format", "machine",
                         "--out", str(tmp_path / f"replay{total}.txt")])
        assert code == 1, "replayed witness must be uncorrectable"
        # dense re-validation applies only when the register fits the cap
        if adm.circuit.register_size <= simulate.MAX_DENSE_QUBITS:
            pytest.fail("unexpectedly small register; dense re-validation path unused")
    _line(5, all(r.min_uncorrectable_size == 2 for r in found.values()),
          "pair witnesses on 49/75/105, all replayable")


def test_criterion_6_table1(cat, capsys, tmp_path):
    out = tmp_path / "table1.txt"
    code = cli.main(["table1", "--format", "machine", "--out", str(out)])
    text = out.read_text()
    ok = code == 0
    rows = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("- method:"):
            current = None
        if line.startswith("qubits:"):
            current = int(line.split(":")[1])
            rows[current] = {}
        elif current and ":" in line:
            key, _, val = line.partition(":")
            rows[current][key.strip()] = val.strip()
    expected = {105: ("9", "3"), 49: ("5", "3"), 75: ("9", "3")}
    for qubits, (dist, eff) in expected.items():
        ok = ok and rows[qubits]["overall_distance"] == dist
        ok = ok and rows[qubits]["effective_distance"] == eff
        ok = ok and rows[qubits]["matches_reference"] == "true"
    _line(6, ok, f"rows={{q: (r['overall_distance'], r['effective_distance']) for q, r in rows.items()}}"
          if not ok else "(105,9,3) (49,5,3) (75,9,3) all computed and matching")


def test_criterion_7_b2_encoded_variants(cat, lib, layouts):
    ok = True
    details = []
    for total in (55, 73):
        layout = layouts[total]
        dist = concatenated_distance(layout)
        ok = ok and dist.distance == 9
        adm = lib.gadget(layout, library.logical_gate(gates.T))
        single = faults.check_single_fault_ft(layout, adm.circuit)
        pair = faults.find_min_uncorrectable(layout, adm.circuit)
        ok = ok and single.passed and pair.witness is not None
        details.append(f"{total}: d={dist.distance}, pair witness={pair.witness is not None}")
    _line(7, ok, "; ".join(details))


def test_criterion_8_negative_controls(cat, lib):
    layout = non_uniform_layout(cat.code("five_qubit"), cat.code("rm15"))
    refused = False
    message = ""
    try:
        lib.dispatcher.logical_gadget(layout, library.logical_gate(gates.T))
    except SynthesisError as exc:
        refused = True
        message = str(exc)
    ok = refused and "K_DAG" in message and "rm15" in message
    full = staircase_gadget(cat.code("steane"), 0, Fraction(1, 4))
    half = GadgetCircuit(7, full.gates[:3], "broken-T", 1)
    broken = faults.check_single_fault_ft(bare_layout(cat.code("steane")), half)
    ok = ok and not broken.passed
    _line(8, ok, f"refusal cites K_DAG; half-staircase fails {len(broken.failures)} branches")


def test_criterion_9_property_suites(cat, layouts):
    rng = np.random.default_rng(2024)
    # randomized group algebra vs dense matrices (1- and 2-qubit registers)
    for _ in range(10_000):
        n = int(rng.integers(1, 3))
        p = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                  int(rng.integers(0, 4)))
        q = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                  int(rng.integers(0, 4)))
        got = pauli_matrix(p * q)
        ref = pauli_matrix(p) @ pauli_matrix(q)
        assert np.allclose(got, ref)
        assert p.commutes(q) == np.allclose(ref, pauli_matrix(q) @ pauli_matrix(p))
    # weight-1 errors on all six layouts
    for layout in layouts.values():
        for qubit in range(layout.total_n):
            for letter in "XYZ":
                err = Pauli.single(layout.total_n, qubit, letter)
                assert hierarchical_decode(layout, err) == "I", (layout.descriptor, qubit, letter)
    # flattened stabilizer commutation and rank checks run inside
    # flatten; reaching here means they held for all layouts
    for layout in layouts.values():
        assert len(flatten(layout).generators) == layout.total_n - 1
    _line(9, True, "10^4 algebra cases, 3n weight-1 errors on 6 layouts, rank checks")
