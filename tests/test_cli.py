import contextlib
import hashlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuconcat import catalog as cataloglib
from nuconcat import cli, codes
from nuconcat.circuits import circuit_to_text
from nuconcat.codes import LookupDecoder
from reference import staircase_gadget


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    return re.sub(r"^timing_s: .*$", "", text, flags=re.M)


def test_codes_list(capsys):
    code, out, _ = run(capsys, "codes", "list")
    assert code == 0
    for name in ("steane", "rm15", "five_qubit", "five_prime"):
        assert name in out


def test_codes_info(capsys):
    code, out, _ = run(capsys, "codes", "info", "five_prime", "--format", "machine")
    assert code == 0
    assert "derivation: five_qubit + K@0 Y@2 K@4" in out
    assert "gate: K" in out
    assert "verified: true" in out


def test_codes_info_rm15_transversal_set(capsys):
    code, out, _ = run(capsys, "codes", "info", "rm15", "--format", "machine")
    assert code == 0
    assert "gate: T" in out and "gate: CCZ" in out
    assert "d: 3" in out and "n: 15" in out


def test_codes_dump_round_trip(capsys, tmp_path):
    path = tmp_path / "catalog.txt"
    code, out, _ = run(capsys, "codes", "dump", "--out", str(path))
    assert code == 0
    # the dumped file is the exact catalog serialisation
    assert path.read_text() == cataloglib.dump_catalog(cataloglib.default_catalog())
    # and reloading it reproduces the same results
    code, out2, _ = run(capsys, "distance", "--layout", "code49",
                        "--catalog", str(path), "--format", "machine")
    assert code == 0
    assert "overall_distance: 5" in out2
    fp = cataloglib.default_catalog().fingerprint()
    assert f"catalog_fingerprint: {fp}" in out2


@pytest.mark.parametrize("layout,expected", [
    ("uniform:steane:rm15", 9), ("code49", 5), ("code75", 9), ("code73", 9),
    ("uniform:rm15:steane", 9),
])
def test_distance_command(capsys, layout, expected):
    code, out, _ = run(capsys, "distance", "--layout", layout, "--format", "machine")
    assert code == 0
    assert f"overall_distance: {expected}" in out


@pytest.mark.parametrize("content", ["nonuniform:steane:rm15", "code49"])
def test_layout_file_reads_like_its_content_on_the_command_line(capsys, tmp_path, content):
    """A layout file holding a descriptor or a shortcut gives the output
    that ``--layout code49`` gives, timing removed."""
    path = tmp_path / "layout.txt"
    path.write_text(content + "\n")
    code, out, err = run(capsys, "distance", "--layout", str(path), "--format", "machine")
    assert (code, err) == (0, "")
    _, want, _ = run(capsys, "distance", "--layout", "code49", "--format", "machine")
    assert strip_timing(out) == strip_timing(want)


def test_codes_info_usage_messages(capsys):
    """A missing NAME is named as such; a KeyError's message prints
    without the quotes of its repr."""
    code, out, err = run(capsys, "codes", "info")
    assert code == 2 and out == ""
    assert err.startswith("usage error: codes info needs a code name")
    code, out, err = run(capsys, "codes", "info", "nope")
    assert code == 2 and out == ""
    assert err.startswith("usage error: unknown code 'nope'; catalog has")


def test_a_key_error_is_not_a_usage_error(monkeypatch):
    """Usage errors are ValueErrors; a KeyError is a fault of the program
    and propagates instead of exiting 2."""
    def broken(args, cat, rep):
        raise KeyError("missing")
    monkeypatch.setattr(cli, "cmd_distance", broken)
    with pytest.raises(KeyError):
        cli.main(["distance", "--layout", "code49"])


def test_distance_usage_error(capsys):
    code, _, err = run(capsys, "distance", "--layout", "nope:steane")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("descriptor", ["bare:bare", "uniform:bare:steane",
                                        "outer=bare;assign=bare"])
def test_bare_is_not_an_outer_code(capsys, descriptor):
    """``bare`` names an inner code only; as an outer code it is unknown."""
    code, out, err = run(capsys, "distance", "--layout", descriptor)
    assert code == 2 and out == ""
    assert err.startswith("usage error: unknown code 'bare'; catalog has")


def test_gadget_command_writes_circuit(capsys, tmp_path):
    out_path = tmp_path / "t49.circuit"
    code, out, _ = run(capsys, "gadget", "--layout", "code49", "--gate", "T",
                       "--circuit-out", str(out_path), "--format", "machine")
    assert code == 0
    assert "passed: true" in out
    text = out_path.read_text()
    assert text.startswith("circuit T")
    assert "T_DAG" in text


def test_gadget_refusal_exit_code(capsys):
    code, _, err = run(capsys, "gadget", "--layout", "nonuniform:five_qubit:rm15",
                       "--gate", "T")
    assert code == 1
    assert "K_DAG" in err and "rm15" in err


def test_gadget_without_oracle_is_refused(capsys):
    """Both gadgets mix H into a CNOT/diagonal circuit above the dense cap;
    the refusal gives each oracle's reason."""
    for argv in (["--layout", "bare:five_qubit", "--gate", "CKZ_THETA", "--theta", "pi/2",
                  "--k", "4"], ["--layout", "uniform:rm15:steane", "--gate", "T"]):
        code, _, err = run(capsys, "gadget", *argv)
        assert code == 1
        assert err.startswith("refused: no oracle applies to")
        for reason in ("exceeds the dense cap", "Heisenberg check requires a Clifford circuit",
                       "H is outside the coset-phase gate set"):
            assert reason in err, (argv, reason)


def test_gadget_z_theta(capsys):
    code, out, _ = run(capsys, "gadget", "--layout", "code49", "--gate", "Z_THETA",
                       "--theta", "pi/4", "--format", "machine")
    assert code == 0
    assert "label: T" in out


def test_ftcheck_budget_refusal(capsys):
    code, _, err = run(capsys, "ftcheck", "--layout", "code49", "--gates", "T",
                       "--pairs", "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_table1_budget_refusal(capsys):
    """A budget too small for the pair searches withholds the effective
    distance: exit 3 naming the row and its gadgets, not a discrepancy."""
    code, out, err = run(capsys, "table1", "--budget", "1000")
    assert code == 3 and out == ""
    assert err.startswith("budget refusal: code105 row:") and "for T, CCZ" in err


@pytest.mark.parametrize("argv", [["table1"], ["ftcheck", "--layout", "code49", "--pairs"]],
                         ids=["table1", "ftcheck"])
def test_negative_budget_is_a_usage_error(capsys, argv):
    """A negative --budget is refused by the parser (exit 2), not turned
    into a budget refusal (exit 3)."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--budget", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --budget: must be a non-negative integer, got '-1'" in captured.err


def test_ftcheck_pairs_skip_a_gadget_the_budget_refuses(capsys):
    """``ftcheck --pairs`` renders the effective-distance report: CCZ's
    8,345,655 pairs exceed the budget, so its search is listed as refused
    and T's pair witness still gives effective distance 3."""
    code, out, _ = run(capsys, "ftcheck", "--layout", "code49", "--gates", "CCZ,T",
                       "--pairs", "--budget", "2000000", "--format", "machine")
    assert code == 0
    assert "- gadget: CCZ\n      result: refused by the budget\n    - gadget: T\n      result: 2" in out
    assert "effective_distance: 3" in out


def test_ftcheck_single_fault(capsys):
    code, out, _ = run(capsys, "ftcheck", "--layout", "code49", "--gates", "T",
                       "--format", "machine")
    assert code == 0
    assert "single_fault_failures: 0" in out


@pytest.mark.parametrize("layout", ["bare:steane", "bare:five_prime"])
def test_ftcheck_skips_pairs_when_a_single_fault_fails(capsys, layout):
    """A bare staircase T fails on single faults, so no pair size is
    reported: a pair containing a failing single fault proves nothing."""
    code, out, _ = run(capsys, "ftcheck", "--layout", layout, "--gates", "T", "--pairs",
                       "--format", "machine")
    assert code == 1
    assert "single_fault_failures: 0" not in out
    assert "pair_search: []" in out and "effective_distance: 1" in out


def test_replay_witness(capsys, tmp_path):
    out_path = tmp_path / "t49.circuit"
    run(capsys, "gadget", "--layout", "code49", "--gate", "T",
        "--circuit-out", str(out_path))
    x0 = "X" + "I" * 48
    x1 = "IX" + "I" * 47
    code, out, _ = run(capsys, "replay", "--layout", "code49",
                       "--circuit", str(out_path),
                       f"--fault=-1:{x0}", f"--fault=-1:{x1}",
                       "--format", "machine")
    assert code == 1  # the recorded pair is uncorrectable
    assert "uncorrectable: true" in out


def test_replay_single_fault_correctable(capsys, tmp_path):
    out_path = tmp_path / "t49.circuit"
    run(capsys, "gadget", "--layout", "code49", "--gate", "T",
        "--circuit-out", str(out_path))
    code, out, _ = run(capsys, "replay", "--layout", "code49",
                       "--circuit", str(out_path),
                       "--fault=-1:" + "X" + "I" * 48, "--format", "machine")
    assert code == 0
    assert "uncorrectable: false" in out


def test_replay_outputs_are_pinned(capsys, tmp_path):
    """Exit code and machine output, timing removed, of ``replay`` on the
    code49 T gadget for the witness pair and for one correctable single
    fault that branches, hashed together."""
    path = tmp_path / "t49.circuit"
    run(capsys, "gadget", "--layout", "code49", "--gate", "T", "--circuit-out", str(path))
    x0 = "X" + "I" * 48
    x1 = "IX" + "I" * 47
    digest = hashlib.sha256()
    for fault_args in ([f"--fault=-1:{x0}", f"--fault=-1:{x1}"], [f"--fault=-1:{x0}"]):
        code, out, _ = run(capsys, "replay", "--layout", "code49", "--circuit", str(path),
                           *fault_args, "--format", "machine")
        digest.update(f"{code}\n{strip_timing(out)}".encode())
    assert digest.hexdigest() == "9279c4092c0fdc14a6da9ac3e7914c03b40359e4939d565a6ae14dc9043090ec"


def test_machine_output_deterministic(capsys):
    _, out1, _ = run(capsys, "distance", "--layout", "code49", "--format", "machine")
    _, out2, _ = run(capsys, "distance", "--layout", "code49", "--format", "machine")
    assert strip_timing(out1) == strip_timing(out2)


def test_machine_outputs_are_pinned(capsys):
    """Exit code and machine output, timing removed, of ``distance`` on
    every layout shortcut and two layouts with bare qubits, of the code49
    pair check, and of the css-coset and heisenberg certificates behind
    ``codes info`` on every code and three encoded gadgets, hashed
    together."""
    digest = hashlib.sha256()
    for argv in [*(["distance", "--layout", layout] for layout in (
            *cli.LAYOUT_SHORTCUTS, "bare:steane",
            "outer=steane;assign=rm15,bare,bare,bare,bare,bare,bare")),
            ["ftcheck", "--layout", "code49", "--pairs"],
            *(["codes", "info", name] for name in ("steane", "rm15", "five_qubit", "five_prime")),
            ["gadget", "--layout", "code49", "--gate", "T"],
            ["gadget", "--layout", "code49", "--gate", "CCZ"],
            ["gadget", "--layout", "code47", "--gate", "K"]]:
        code, out, _ = run(capsys, *argv, "--format", "machine")
        digest.update(f"{code}\n{strip_timing(out)}".encode())
    assert digest.hexdigest() == "86ebf28d218a8ac7af1465c52f4c45948b4f69049c2ea7e8866e45b980b4ea7d"


def test_mutation_guard(capsys, monkeypatch):
    """Corrupting the decoder changes the fault-campaign outcome."""
    clean_code, clean_out, _ = run(capsys, "ftcheck", "--layout", "code49",
                                   "--gates", "T", "--format", "machine")
    assert clean_code == 0

    real_build = codes.build_decoder.__wrapped__

    def corrupted(code):
        decoder = real_build(code)
        # push every nonzero correction into the wrong logical coset
        table = decoder.table ^ (code.logical_z.x << code.n | code.logical_z.z)
        table[0] = decoder.table[0]
        return LookupDecoder(code, table)

    monkeypatch.setattr("nuconcat.faults.build_decoder", corrupted)
    bad_code, bad_out, _ = run(capsys, "ftcheck", "--layout", "code49",
                               "--gates", "T", "--format", "machine")
    assert bad_code == 1
    assert strip_timing(bad_out) != strip_timing(clean_out)
    assert "single_fault_failures: 0" not in bad_out


def test_replay_names_both_sizes_on_a_layout_mismatch(capsys, tmp_path):
    """A circuit replayed on a layout of another size is refused before any
    propagation, naming the circuit's block size and the layout's."""
    path = tmp_path / "t49.circuit"
    run(capsys, "gadget", "--layout", "code49", "--gate", "T", "--circuit-out", str(path))
    code, out, err = run(capsys, "replay", "--layout", "code47", "--circuit", str(path),
                         "--fault=-1:" + "X" + "I" * 48)
    assert code == 2 and out == ""
    assert err == "usage error: circuit blocks of 49 qubits do not match layout code47 (47 qubits)\n"


@pytest.fixture
def steane_t_circuit(capsys, tmp_path):
    path = tmp_path / "t7.circuit"
    code, _, _ = run(capsys, "gadget", "--layout", "bare:steane", "--gate", "T",
                     "--circuit-out", str(path))
    assert code == 0
    return str(path)


@pytest.mark.parametrize("faults", [
    ["--fault=-5:XIIIIII"],
    ["--fault=-1:XIIIIII", "--fault=99:IXIIIII"],
    ["--fault=-1:X"],
])
def test_replay_rejects_bad_faults(capsys, steane_t_circuit, faults):
    code, out, err = run(capsys, "replay", "--layout", "bare:steane",
                         "--circuit", steane_t_circuit, *faults)
    assert code == 2
    assert err.startswith("usage error:") and "uncorrectable" not in out


@pytest.mark.parametrize("argv", [
    ["codes", "list", "--catalog", "{missing}/catalog.txt"],
    ["replay", "--layout", "bare:steane", "--circuit", "{missing}/t7.circuit", "--fault", "0:X"],
    ["distance", "--layout", "code49", "--out", "{missing}/report.txt"],
], ids=["catalog", "circuit", "out"])
def test_unreadable_files_are_usage_errors(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert err.startswith("usage error:") and str(missing) in err
    assert "Traceback" not in err and out == ""


INPUT_FLAGS = [
    ("--layout", ["distance"]),
    ("--catalog", ["codes", "list"]),
    ("--circuit", ["replay", "--layout", "bare:steane", "--fault=-1:XIIIIII"]),
]


@pytest.mark.parametrize("flag,argv,data,refusal", [
    *(pytest.param(flag, argv, b"#" * (cli.INPUT_CAP + 1), "longer than the input cap of 1 MiB",
                   id=f"{flag}-argv{i}") for i, (flag, argv) in enumerate(INPUT_FLAGS)),
    *(pytest.param(flag, argv, b"\xff\xfe", "not UTF-8 (invalid start byte at byte 0)",
                   id=f"{flag}-not-utf8") for flag, argv in INPUT_FLAGS),
])
def test_an_input_file_over_the_cap_is_a_usage_error(capsys, tmp_path, flag, argv, data, refusal):
    """A file one byte over ``INPUT_CAP``, or one that is not UTF-8, is refused
    with exit 2, naming its flag and path."""
    path = tmp_path / "input"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, flag, str(path))
    assert code == 2 and out == ""
    assert err == f"usage error: {flag} {path}: {refusal}\n"


def test_an_endless_input_file_is_a_usage_error():
    """``--layout /dev/zero`` reads at most ``INPUT_CAP`` bytes: under an 800 MB address
    limit it exits 2 with a usage error, where a whole read would end in a MemoryError."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))

    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "nuconcat.cli", "distance", "--layout", "/dev/zero"],
                          capture_output=True, text=True, timeout=120, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "usage error: --layout /dev/zero: longer than the input cap of 1 MiB\n"


def test_gadget_ckz_with_zero_controls(capsys):
    """--k 0 is one operand: CKZ_THETA(pi/2) folds to S; k < 0 is a usage error."""
    code, out, _ = run(capsys, "gadget", "--layout", "bare:steane", "--gate", "CKZ_THETA",
                       "--theta", "pi/2", "--k", "0", "--format", "machine")
    assert code == 0
    assert "label: S" in out and "block@7" not in out
    code, _, err = run(capsys, "gadget", "--layout", "bare:steane", "--gate", "CKZ_THETA",
                       "--theta", "pi/2", "--k", "-1")
    assert code == 2
    assert err.startswith("usage error:") and "--k" in err


@pytest.mark.parametrize("gate_args", [["--gate", "T", "--k", "3"],
                                       ["--gate", "Z_THETA", "--theta", "pi/4", "--k", "2"]],
                         ids=["T", "Z_THETA"])
def test_gadget_k_needs_ckz_theta(capsys, gate_args):
    """--k counts the controls of CKZ_THETA; on any other gate it is a
    usage error, not silently dropped."""
    code, out, err = run(capsys, "gadget", "--layout", "bare:steane", *gate_args)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "--k" in err


def test_ftcheck_gate_names_are_validated(capsys):
    code, out, err = run(capsys, "ftcheck", "--layout", "code49", "--gates", "Z_THETA")
    assert code == 2
    assert err.startswith("usage error:") and "Z_THETA" in err and out == ""


def test_ftcheck_refuses_an_empty_gate_list(capsys):
    """``--gates ''`` lists no kind: a usage error naming the flag, not a
    quiet run of the layout's default set."""
    code, out, err = run(capsys, "ftcheck", "--layout", "code49", "--gates", "")
    assert (code, out, err) == (2, "", "usage error: --gates names no gate kind\n")


@pytest.mark.parametrize("gate_list, entry", [("T,,CCZ", 2), (",", 1), (" ", 1)],
                         ids=["inner", "comma-only", "blank"])
def test_ftcheck_names_an_empty_gate_entry(capsys, gate_list, entry):
    """An empty entry of ``--gates`` is a usage error naming the flag and the
    entry, not an unknown gate kind ''."""
    code, out, err = run(capsys, "ftcheck", "--layout", "code49", "--gates", gate_list)
    assert (code, out) == (2, "")
    assert err == f"usage error: --gates names no gate kind (entry {entry} of {gate_list!r})\n"


def test_replay_branch_cap_refusal_names_the_cap(capsys, tmp_path):
    """X on 17 qubits under 17 T gates would branch into 2^17 rows: exit 3,
    naming the rows and the fixed cap, which --budget does not move."""
    path = tmp_path / "many-t.circuit"
    path.write_text("circuit many-T\nregister 49\nblocks 0:49\n"
                    + "".join(f"T {q}\n" for q in range(17)))
    code, out, err = run(capsys, "replay", "--layout", "uniform:steane:steane",
                         "--circuit", str(path), "--fault=-1:" + "X" * 17 + "I" * 32)
    assert code == 3 and out == ""
    assert err.startswith("budget refusal:") and "65536" in err and "131072" in err


def test_ftcheck_refuses_a_repeated_gate_kind(capsys):
    """A kind listed twice would be admitted, walked and reported twice; like
    a catalog block read twice, it is a usage error that names the kind."""
    code, out, err = run(capsys, "ftcheck", "--layout", "code49", "--gates", "T,CCZ,T")
    assert (code, out, err) == (2, "", "usage error: --gates lists T twice\n")


CATALOG_TEXT = cataloglib.dump_catalog(cataloglib.default_catalog())
# the bare:steane T gadget
CIRCUIT_TEXT = circuit_to_text(staircase_gadget(cataloglib.default_catalog().code("steane"),
                                                0, Fraction(1, 4)))
SHORT_TRANSVERSAL = [CATALOG_TEXT.replace("transversal H bitwise H", line, 1)
                     for line in ("transversal H", "transversal H bitwise")]
# one catalog line naming a gate kind a catalog cannot hold, per position
BAD_KIND = [CATALOG_TEXT.replace(old, new, 1) for old, new in (
    ("transversal H bitwise H", "transversal FOO bitwise H"),
    ("transversal T bitwise T_DAG", "transversal Z_THETA bitwise T_DAG"),
    ("transversal CCZ bitwise CCZ", "transversal CKZ_THETA bitwise CCZ"),
    ("transversal H bitwise H", "transversal H bitwise FOO"),
    ("fixup Z@2", "fixup FOO@2"))]


PARSED_INPUTS = {
    "catalog": ["codes", "list", "--catalog", "{file}"],
    "circuit": ["replay", "--layout", "bare:steane", "--circuit", "{file}",
                "--fault=-1:XIIIIII"],
    "layout": ["distance", "--layout", "{file}"],
    "fault": ["replay", "--layout", "bare:steane", "--circuit", "{circuit}", "--fault={text}"],
}


def run_parsed(kind: str, text: str, tmp: Path) -> tuple[int, str, str]:
    """Run the command of ``PARSED_INPUTS[kind]`` on ``text``: written to
    the input file, or passed as the argument itself for ``fault``."""
    (tmp / "input.txt").write_text(text)
    (tmp / "t7.circuit").write_text(CIRCUIT_TEXT)
    argv = [a.format(file=tmp / "input.txt", circuit=tmp / "t7.circuit", text=text)
            for a in PARSED_INPUTS[kind]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind,text,named", [
    ("catalog", SHORT_TRANSVERSAL[0], "'transversal H'"),
    ("catalog", SHORT_TRANSVERSAL[1], "'transversal H bitwise'"),
    ("catalog", CATALOG_TEXT.replace("n 7\n", "", 1), "'steane' lacks n"),
    ("catalog", CATALOG_TEXT.replace("n 7\n", "n seven\n", 1), "line 'n seven': expected 'n N'"),
    ("catalog", CATALOG_TEXT.replace("n 7\n", "n 8\n", 1),
     "bad catalog line 'n 8': the operators of 'steane' act on 7 qubits"),
    ("catalog", CATALOG_TEXT.replace("n 7\n", "n 0\n", 1),
     "bad catalog line 'n 0': the operators of 'steane' act on 7 qubits"),
    ("catalog", CATALOG_TEXT.replace("stabilizer +XIXIXIX\n", "stabilizer +XIXIXI\n", 1),
     "steane: stabilizer +XIXIXI acts on 6 qubits, logical X on 7"),
    ("catalog", CATALOG_TEXT.replace("fixup Z@2", "fixup Z@two", 1),
     "line 'transversal K bitwise K fixup Z@two': expected 'fixup KIND@QUBIT'"),
    ("catalog", CATALOG_TEXT.replace("fixup Z@2", "fixup Z@9", 1),
     "line 'transversal K bitwise K fixup Z@9': fixup qubit 9 outside the 5 qubits of "
     "'five_prime'"),
    ("catalog", BAD_KIND[0], "line 'transversal FOO bitwise H': 'FOO' is not one of H, S,"),
    ("catalog", BAD_KIND[1], "line 'transversal Z_THETA bitwise T_DAG': 'Z_THETA' is not one"),
    ("catalog", BAD_KIND[2], "line 'transversal CKZ_THETA bitwise CCZ': 'CKZ_THETA' is not"),
    ("catalog", BAD_KIND[3], "line 'transversal H bitwise FOO': 'FOO' is not one of"),
    ("catalog", BAD_KIND[4], "line 'transversal K bitwise K fixup FOO@2': 'FOO' is not one of"),
    ("catalog", CATALOG_TEXT + CATALOG_TEXT.split("\n\n")[1],
     "line 'code steane': code 'steane' already read"),
    ("catalog", CATALOG_TEXT.replace("end\n", "", 1),
     "line 'code rm15': code 'steane' lacks its 'end' line"),
    ("catalog", CATALOG_TEXT.replace("transversal X rep", "transversal H rep", 1),
     "line 'transversal H rep': expected 'transversal KIND rep' with KIND one of X, Y, Z"),
    ("catalog", CATALOG_TEXT.replace("stabilizer +IIIXXXX", "stabilizer +IIIXQXX", 1),
     "bad catalog line 'stabilizer +IIIXQXX': bad Pauli letter 'Q' in '+IIIXQXX'"),
    ("catalog", CATALOG_TEXT.replace("logical-x +XXXXXXX", "logical-x +XXXXXX-", 1),
     "bad catalog line 'logical-x +XXXXXX-': bad Pauli letter '-' in '+XXXXXX-'"),
    ("catalog", CATALOG_TEXT.replace("logical-z +ZZZZZZZ", "logical-z i-ZZZZZZZ", 1),
     "bad catalog line 'logical-z i-ZZZZZZZ': bad phase prefix 'i-' in 'i-ZZZZZZZ'"),
    ("catalog", CATALOG_TEXT.replace("n 7\n", "n 7\nn 7\n", 1), "line 'n 7': repeats 'n 7'"),
    ("catalog", CATALOG_TEXT.replace("css true\n", "css true\ncss false\n", 1),
     "line 'css false': repeats 'css true'"),
    ("catalog", CATALOG_TEXT.replace("derivation ", "derivation five_qubit\nderivation ", 1),
     "': repeats 'derivation five_qubit'"),
    ("catalog", CATALOG_TEXT.replace("logical-x +XXXXXXX", "logical-x +XXXXXXX\nlogical-x -XXXXXXX",
                                     1),
     "line 'logical-x -XXXXXXX': repeats 'logical-x +XXXXXXX'"),
    ("catalog", CATALOG_TEXT.replace("logical-z +ZZZZZZZ", "logical-z +ZZZZZZZ\nlogical-z +ZZZZZZZ",
                                     1),
     "line 'logical-z +ZZZZZZZ': repeats 'logical-z +ZZZZZZZ'"),
    ("catalog", CATALOG_TEXT.replace("transversal H bitwise H",
                                     "transversal H bitwise H\ntransversal H bitwise S", 1),
     "line 'transversal H bitwise S': repeats 'transversal H bitwise H'"),
    ("circuit", CIRCUIT_TEXT.replace("register 7\n", "", 1),
     "line 'blocks 0:7': expected 'register N'"),
    ("circuit", CIRCUIT_TEXT.replace("register 7", "register seven", 1),
     "line 'register seven': expected 'register N'"),
    ("circuit", CIRCUIT_TEXT.replace("CNOT 0 1", "CNOT 0 one", 1),
     "line 'CNOT 0 one': expected 'KIND QUBIT ... [theta=ANGLE]'"),
    ("circuit", CIRCUIT_TEXT.replace("CNOT 0 1", "FOO 0", 1),
     "bad circuit line 'FOO 0': unknown gate kind 'FOO'"),
    ("circuit", CIRCUIT_TEXT.replace("CNOT 0 1", "CNOT 0", 1),
     "bad circuit line 'CNOT 0': CNOT takes 2 qubits, got (0,)"),
    ("circuit", CIRCUIT_TEXT.replace("T 2", "T 2 theta=pi/4", 1),
     "bad circuit line 'T 2 theta=pi/4': T carries no free angle"),
    ("circuit", CIRCUIT_TEXT.replace("T 2", "Z_THETA 2 theta=pi/0", 1),
     "bad circuit line 'Z_THETA 2 theta=pi/0': bad angle 'pi/0': zero denominator"),
    ("circuit", CIRCUIT_TEXT.replace("T 2", "Z_THETA 2 theta=pi/4 theta=pi/2", 1),
     "bad circuit line 'Z_THETA 2 theta=pi/4 theta=pi/2': more than one angle"),
    ("circuit", CIRCUIT_TEXT.replace("blocks 0:7", "blocks 3:7", 1),
     "blocks 3:7 do not tile the register of 7"),
    ("circuit", CIRCUIT_TEXT.replace("blocks 0:7", "blocks 0:7 0:7", 1),
     "blocks 0:7 0:7 do not tile the register of 7"),
    ("circuit", CIRCUIT_TEXT.replace("blocks 0:7", "blocks 0:3 3:4", 1),
     "blocks 0:3 3:4 do not tile the register of 7"),
    ("circuit", CIRCUIT_TEXT.replace("blocks 0:7", "blocks 0:3 3:3", 1),
     "blocks 0:3 3:3 do not tile the register of 7"),
    ("fault", "one:XIIIIII", "--fault 'one:XIIIIII': expected PLACE:PAULI"),
    ("fault", "XIIIIII", "--fault 'XIIIIII': expected PLACE:PAULI"),
    ("fault", "-1:XQIIIII", "--fault '-1:XQIIIII': expected PLACE:PAULI"),
    ("fault", "3:XIIIIII:Z", "--fault '3:XIIIIII:Z': expected PLACE:PAULI"),
    ("catalog", CATALOG_TEXT.replace("fixup Z@2", "Z@2", 1),
     "bad transversal declaration 'transversal K bitwise K Z@2'; expected 'transversal KIND rep' or "
     "'transversal KIND bitwise PHYS [fixup KIND@QUBIT ...]'"),
    ("catalog", CATALOG_TEXT.replace("fixup Z@2", "fixup fixup Z@2", 1),
     "bad transversal declaration 'transversal K bitwise K fixup fixup Z@2'; expected "
     "'transversal KIND rep' or 'transversal KIND bitwise PHYS [fixup KIND@QUBIT ...]'"),
    ("catalog", CATALOG_TEXT.replace("fixup Z@2", "fixup", 1),
     "bad transversal declaration 'transversal K bitwise K fixup'; expected 'transversal KIND rep' or "
     "'transversal KIND bitwise PHYS [fixup KIND@QUBIT ...]'"),
], ids=["no-style", "no-physical-gate", "no-size", "size-not-integer", "n-too-large", "n-zero",
        "stabilizer-short", "fixup-not-integer",
        "fixup-outside-code", "unknown-kind", "z-theta-kind", "ckz-theta-kind",
        "unknown-physical-kind", "unknown-fixup-kind", "duplicate-code", "unterminated-code",
        "rep-rule-not-pauli", "bad-stabilizer-letter", "bad-logical-x-letter",
        "bad-logical-z-phase", "repeated-n", "repeated-css", "repeated-derivation",
        "repeated-logical-x", "repeated-logical-z", "repeated-transversal",
        "no-register", "register-not-integer", "qubit-not-integer", "unknown-gate-kind",
        "too-few-qubits", "angle-on-named-kind", "bad-angle", "second-angle",
        "blocks-past-register", "blocks-overlap", "unequal-blocks", "blocks-short-of-register",
        "place-not-integer", "no-place", "bad-letter", "extra-field", "fixup-without-keyword",
        "fixup-keyword-twice", "fixup-keyword-dangling"])
def test_malformed_catalog_lines_are_usage_errors(tmp_path, kind, text, named):
    """A malformed catalog line, circuit line or replay fault exits 2 with
    a message naming it and, where one applies, the expected form."""
    code, out, err = run_parsed(kind, text, tmp_path)
    assert code == 2
    assert err.startswith("usage error:") and named in err and out == ""


def test_catalog_css_must_be_true_or_false(tmp_path, capsys):
    """A ``css`` value other than true/false is refused, not read as false."""
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_TEXT.replace("css true", "css yes", 1))
    code, out, err = run(capsys, "codes", "info", "steane", "--catalog", str(path))
    assert code == 2 and out == ""
    assert err.startswith("usage error:")
    assert "line 'css yes': expected 'css true' or 'css false'" in err


def test_catalog_css_line_must_match_the_operators(tmp_path, capsys):
    """rm15 declared ``css false`` exits 2 naming the line; it is not
    loaded to refuse code47's block-local K as if rm15 had no encoder."""
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_TEXT.replace("code rm15\nn 15\ncss true", "code rm15\nn 15\ncss false"))
    for argv in (("codes", "info", "rm15"), ("gadget", "--layout", "code47", "--gate", "K")):
        code, out, err = run(capsys, *argv, "--catalog", str(path))
        assert code == 2 and out == ""
        assert err == "usage error: bad catalog line 'css false': the operators of 'rm15' make it CSS\n"
    path.write_text(CATALOG_TEXT.replace("code five_qubit\nn 5\ncss false", "code five_qubit\nn 5\ncss true"))
    code, _, err = run(capsys, "codes", "list", "--catalog", str(path))
    assert code == 2 and "line 'css true': the operators of 'five_qubit' make it not CSS" in err


def test_catalog_block_without_css_line_takes_the_computed_value(tmp_path, capsys):
    """A block with no ``css`` line is CSS exactly when its operators are,
    so the catalog dumps back to the default one and code47's K passes."""
    text = re.sub(r"^css \w+\n", "", CATALOG_TEXT, flags=re.M)
    assert "css" not in text
    parsed = cataloglib.parse_catalog(text)
    assert cataloglib.dump_catalog(parsed) == CATALOG_TEXT
    assert [code.css for code in parsed.codes.values()] == [True, True, False, False]
    path = tmp_path / "catalog.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "gadget", "--layout", "code47", "--gate", "K", "--catalog", str(path))
    assert code == 0 and "passed: true" in out


def test_wrong_declared_s_fails_verification(tmp_path, capsys):
    """Bitwise S, not S_DAG, on the Steane code is refused wherever the
    declaration is first verified."""
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_TEXT.replace("transversal S bitwise S_DAG",
                                         "transversal S bitwise S", 1))
    for argv in (["codes", "info", "steane"], ["gadget", "--layout", "code49", "--gate", "T"]):
        code, out, err = run(capsys, *argv, "--catalog", str(path))
        assert code == 1 and out == ""
        assert err == ("verification failure: declared transversal S on steane failed its "
                       "css-coset check: phase 3/2 != 1/2 at labels (1,)\n")


def test_fixup_on_a_multi_operand_rule_is_refused(tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_TEXT.replace("transversal CNOT bitwise CNOT",
                                         "transversal CNOT bitwise CNOT fixup Z@0", 1))
    code, out, err = run(capsys, "codes", "info", "steane", "--catalog", str(path))
    assert code == 1 and out == ""
    assert err == "refused: fixups unsupported on multi-operand rules\n"


def test_table1_reports_a_reference_discrepancy(capsys, monkeypatch):
    monkeypatch.setitem(cli.FAMILY, "code49", (*cli.FAMILY["code49"][:2], (49, 5, 4)))
    code, out, _ = run(capsys, "table1", "--format", "machine")
    assert code == 1
    assert "status: fail" in out
    row = out[out.index("qubits: 49"):out.index("qubits: 75")]
    assert "reference_effective_distance: 4" in row and "matches_reference: false" in row
    assert "discrepancy: computed (49, 5, 3) != reference (49, 5, 4)" in row
    assert out.count("matches_reference: true") == 2


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with 1-3 lines deleted, tokens deleted, lines swapped or the
    text truncated at a token boundary; no number is ever rewritten."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["line", "token", "truncate", "swap"]))
        tokens = lines[i].split()
        if action == "line":
            del lines[i]
        elif action == "token" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            lines[i] = " ".join(tokens)
        elif action == "truncate":
            lines[i:] = [" ".join(tokens[:draw(st.integers(0, len(tokens)))])]
        elif action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def mutated_fields(draw, text: str) -> str:
    """``text`` cut at ``: ; , =`` into fields and separators, with 1-3
    pieces deleted, repeated or swapped, or one character deleted."""
    pieces = re.split(r"([:;,=])", text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        action = draw(st.sampled_from(["delete", "repeat", "swap", "char"]))
        if action == "delete":
            del pieces[i]
        elif action == "repeat":
            pieces.insert(i, pieces[i])
        elif action == "swap":
            j = draw(st.integers(0, len(pieces) - 1))
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif pieces[i]:
            c = draw(st.integers(0, len(pieces[i]) - 1))
            pieces[i] = pieces[i][:c] + pieces[i][c + 1:]
        if not pieces:
            break
    return "".join(pieces)


LAYOUT_TEXTS = ["outer=steane;assign=rm15,rm15,rm15,bare,bare,bare,bare",
                "b2:five_prime:rm15:five_prime", "uniform:steane:five_prime"]
FAULT_TEXTS = ["-1:XIIIIII", "2:-IZIIIYI"]


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(mutated(CATALOG_TEXT).map(lambda t: ("catalog", t)),
                      mutated(CIRCUIT_TEXT).map(lambda t: ("circuit", t)),
                      st.sampled_from(LAYOUT_TEXTS).flatmap(mutated_fields)
                      .map(lambda t: ("layout", t)),
                      st.sampled_from(FAULT_TEXTS).flatmap(mutated_fields)
                      .map(lambda t: ("fault", t))))
@example(case=("catalog", SHORT_TRANSVERSAL[0]))
@example(case=("catalog", SHORT_TRANSVERSAL[1]))
def test_malformed_files_never_raise(case):
    """A mutated catalog, circuit or layout-descriptor file, or a mutated
    replay fault argument, ends in exit 0, 1 or 2, never a traceback;
    exit 2 comes with a usage error line."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run_parsed(*case, Path(tmp))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("usage error:")
