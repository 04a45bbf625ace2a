"""Command-line surface: catalog queries, layout distances, gadget
synthesis and verification, fault campaigns, and the summary table of
the constructed code family.

Exit codes: 0 all checks passed; 1 a verification or fault-tolerance
check failed (data-level); 2 usage or parse error; 3 search budget
refused: the pair budget, which --budget raises, or the fixed branch cap
of a walk (``faults.BRANCH_CAP``), which it does not.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from . import catalog as cataloglib
from . import concat, faults, gates, library, report, simulate
from .circuits import SynthesisError, circuit_from_text, circuit_to_text
from .codes import distance, min_weight_logical
from .pauli import LETTERS, Pauli

# The constructed code family, per layout shortcut: its descriptor, its
# table1 method, and the reference (qubits, overall distance, effective
# distance) it is expected to reproduce, where there is one; every run
# recomputes them and reports any discrepancy as a failure.
FAMILY = {
    "code105": ("uniform:steane:rm15", "uniform", (105, 9, 3)),
    "code49": ("nonuniform:steane:rm15", "non-uniform", (49, 5, 3)),
    "code75": ("uniform:five_prime:rm15",
               "uniform (grouped with the non-uniform family in the reference labeling)",
               (75, 9, 3)),
    "code47": ("nonuniform:five_prime:rm15", "non-uniform", None),
    "code73": ("b2:steane:rm15:steane", "non-uniform, b2 re-encoded", None),
    "code55": ("b2:five_prime:rm15:five_prime", "non-uniform, b2 re-encoded", None),
}
LAYOUT_SHORTCUTS = {shortcut: descriptor for shortcut, (descriptor, _, _) in FAMILY.items()}

# Staircase-realised diagonal family per outer code; these are the
# non-transversal gadgets whose error propagation sets the effective
# distance, searched in order (T first: its witness is the cheapest).
CAMPAIGN_GATES = {
    "steane": [gates.T, gates.CCZ],
    "five_prime": [gates.T, gates.S, gates.CZ, gates.CCZ],
    "five_qubit": [gates.T],
}


INPUT_CAP = 1 << 20   # bytes read at most from a --layout, --catalog or --circuit file


class UsageError(ValueError):
    pass


def _read_input(path: str, flag: str) -> str:
    """The text of an input file, refused past ``INPUT_CAP`` bytes: an endless one is not read whole."""
    with open(path, "rb") as fh:
        data = fh.read(INPUT_CAP + 1)
    if len(data) > INPUT_CAP:
        raise UsageError(f"{flag} {path}: longer than the input cap of {INPUT_CAP >> 20} MiB")
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{flag} {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_catalog(path: str | None) -> cataloglib.Catalog:
    if path is None:
        return cataloglib.default_catalog()
    return cataloglib.parse_catalog(_read_input(path, "--catalog"))


def _resolve_layout(cat: cataloglib.Catalog, descriptor: str) -> concat.Layout:
    descriptor = LAYOUT_SHORTCUTS.get(descriptor, descriptor)
    try:
        descriptor = _read_input(descriptor, "--layout").strip()
    except OSError:
        pass
    return concat.parse_layout(LAYOUT_SHORTCUTS.get(descriptor, descriptor), cat.code)


def _parse_gate(text: str, theta_text: str | None, k: int | None) -> gates.Gate:
    kind = text.strip()
    theta = gates.parse_theta(theta_text) if theta_text else None
    if k is not None and kind != gates.CKZ_THETA:
        raise UsageError(f"--k applies only to {gates.CKZ_THETA}, not to {kind}")
    if kind in (gates.Z_THETA, gates.CKZ_THETA):
        if theta is None:
            raise UsageError(f"{kind} requires --theta")
        if k is not None and k < 0:
            raise UsageError(f"--k must be >= 0, got {k}")
        arity = 1 if kind == gates.Z_THETA else (2 if k is None else k + 1)
        return gates.diagonal_gate(tuple(range(arity)), theta)
    if kind not in gates.ARITY:
        raise UsageError(f"unknown gate kind {kind!r}")
    if theta is not None:
        raise UsageError(f"{kind} carries no free angle")
    return library.logical_gate(kind)


# -- commands ---------------------------------------------------------------------

def cmd_codes(args, cat: cataloglib.Catalog, rep: report.Report) -> None:
    lib = library.GadgetLibrary(cat)
    if args.action == "dump":
        rep.raw_text = cataloglib.dump_catalog(cat)
        return
    if args.action == "list":
        rows = []
        for name, code in cat.codes.items():
            rows.append({"name": name, "n": code.n, "k": code.k,
                         "d": distance(code), "css": code.css})
        rep.results["codes"] = rows
        return
    if args.name is None:
        raise UsageError(f"codes info needs a code name; catalog has {sorted(cat.codes)}")
    code = cat.code(args.name)
    info = {
        "name": code.name, "n": code.n, "k": code.k, "d": distance(code),
        "css": code.css,
        "stabilizers": [str(g) for g in code.generators],
        "logical_x": str(code.logical_x),
        "logical_z": str(code.logical_z),
        "min_weight_logical": {cls: str(min_weight_logical(code, cls)) for cls in "XYZ"},
    }
    if code.name in cat.derivations:
        info["derivation"] = cat.derivations[code.name]
    certs = lib.verify_code_rules(code.name)
    info["transversal"] = [
        {"gate": kind, "verified": cert.passed, "method": cert.method}
        for kind, cert in sorted(certs.items())
    ]
    rep.results["code"] = info


def cmd_distance(args, cat: cataloglib.Catalog, rep: report.Report) -> None:
    layout = _resolve_layout(cat, args.layout)
    result = concat.concatenated_distance(layout)
    rep.results["layout"] = layout.descriptor
    rep.results["qubits"] = layout.total_n
    rep.results["overall_distance"] = result.distance
    rep.results["witness"] = {
        "operator": str(result.witness),
        "weight": result.witness.weight(),
        "outer_class": result.outer_class,
        "outer_element": str(result.outer_element),
    }


def cmd_gadget(args, cat: cataloglib.Catalog, rep: report.Report) -> None:
    layout = _resolve_layout(cat, args.layout)
    lib = library.GadgetLibrary(cat)
    logical = _parse_gate(args.gate, args.theta, args.k)
    admitted = lib.gadget(layout, logical)
    circuit = admitted.circuit
    per_block = {}
    for off, length in circuit.blocks:
        touched = {q - off for q in circuit.touched_qubits() if off <= q < off + length}
        per_block[f"block@{off}"] = len(touched)
    rep.results["layout"] = layout.descriptor
    rep.results["gate"] = str(logical)
    rep.results["label"] = circuit.label
    rep.results["gate_count"] = len(circuit.gates)
    rep.results["coupled_qubits_per_block"] = per_block
    rep.results["certificate"] = {
        "method": admitted.certificate.method,
        "passed": admitted.certificate.passed,
        "fidelity": admitted.certificate.fidelity,
        "details": admitted.certificate.details,
    }
    if args.circuit_out:
        with open(args.circuit_out, "w") as fh:
            fh.write(circuit_to_text(circuit))
        rep.results["circuit_file"] = args.circuit_out


def _campaign_gadgets(lib: library.GadgetLibrary, layout: concat.Layout,
                      logicals: list[gates.Gate] | None):
    logicals = logicals or [library.logical_gate(k)
                            for k in CAMPAIGN_GATES.get(layout.outer.name, [gates.T])]
    return [lib.gadget(layout, g) for g in logicals]


def _refuse_if_withheld(eff: faults.EffectiveDistanceResult, where: str, budget: int) -> None:
    """A distance left open only by budget-refused pair searches is a
    refusal (exit 3), not a verdict on the construction."""
    if eff.value is None and any(pair is None for _, pair in eff.pair_reports):
        raise faults.BudgetError(f"{where}: {eff.statement} (--budget {budget})")


def cmd_ftcheck(args, cat: cataloglib.Catalog, rep: report.Report) -> None:
    layout = _resolve_layout(cat, args.layout)
    lib = library.GadgetLibrary(cat)
    names = None if args.gates is None else [name.strip() for name in args.gates.split(",")]
    if "" in (names or ()):   # '' lists no kind at all; 'T,,CCZ' has an empty entry
        at = f" (entry {names.index('') + 1} of {args.gates!r})" if args.gates else ""
        raise UsageError(f"--gates names no gate kind{at}")
    logicals = names and [_parse_gate(name, None, None) for name in names]
    for i, logical in enumerate(logicals or []):
        if logical in logicals[:i]:
            raise UsageError(f"--gates lists {logical.kind} twice")
    admitted = _campaign_gadgets(lib, layout, logicals)
    circuits = [adm.circuit for adm in admitted]
    if args.pairs:
        eff = faults.effective_distance_report(layout, circuits, args.budget)
        _refuse_if_withheld(eff, args.layout, args.budget)
    singles = eff.single_fault_reports if args.pairs else [
        faults.check_single_fault_ft(layout, c) for c in circuits]
    rep.results["layout"] = layout.descriptor
    rep.results["fault_model"] = ("Pauli faults at gate outputs and register inputs; "
                                  "idle locations excluded")
    suites = []
    for adm, single in zip(admitted, singles):
        entry = {
            "gadget": adm.circuit.label,
            "locations": single.locations_checked,
            "branches": single.branches_checked,
            "single_fault_failures": len(single.failures),
            "verified_by": adm.certificate.method,
        }
        if single.failures:
            entry["first_failure"] = {
                "location": single.witness[0].describe(adm.circuit),
                "residual": single.witness_residual,
            }
        suites.append(entry)
    rep.results["single_fault"] = suites
    if args.pairs:
        pair_entries = []
        for adm, (label, pair) in zip(admitted, eff.pair_reports):
            result = "refused by the budget" if pair is None else str(pair.min_uncorrectable_size)
            entry = {"gadget": label, "result": result}
            if pair is not None and pair.witness is not None:
                entry["witness"] = [loc.describe(adm.circuit) for loc in pair.witness]
                entry["residual"] = pair.witness_residual
            pair_entries.append(entry)
        rep.results["pair_search"] = pair_entries
        rep.results["effective_distance"] = eff.value
    rep.failed = not all(single.passed for single in singles)


def _table_rows(cat: cataloglib.Catalog, lib: library.GadgetLibrary,
                shortcuts: list[str], budget: int) -> tuple[list[dict], bool]:
    rows = []
    any_fail = False
    for shortcut in shortcuts:
        layout = _resolve_layout(cat, shortcut)
        dist = concat.concatenated_distance(layout)
        admitted = _campaign_gadgets(lib, layout, None)
        eff = faults.effective_distance_report(
            layout, [a.circuit for a in admitted], budget)
        _refuse_if_withheld(eff, f"{shortcut} row", budget)
        _, method, reference = FAMILY[shortcut]
        row = {
            "method": method,
            "qubits": layout.total_n,
            "overall_distance": dist.distance,
            "effective_distance": eff.value,
            "gadgets_checked": ",".join(a.circuit.label for a in admitted),
            "witness": eff.statement,
        }
        if reference is not None:
            computed = (layout.total_n, dist.distance, eff.value)
            row["reference_overall_distance"], row["reference_effective_distance"] = reference[1:]
            row["matches_reference"] = computed == reference
            if computed != reference:
                any_fail = True
                row["discrepancy"] = f"computed {computed} != reference {reference}"
        rows.append(row)
    return rows, any_fail


def cmd_table1(args, cat: cataloglib.Catalog, rep: report.Report) -> None:
    lib = library.GadgetLibrary(cat)
    shortcuts = ["code105", "code49", "code75"]
    if args.extended:
        shortcuts += ["code47", "code55", "code73"]
    rows, any_fail = _table_rows(cat, lib, shortcuts, args.budget)
    rep.results["rows"] = rows
    rep.results["notes"] = [
        "overall distances computed by exact outer-coset scan, never hard-coded",
        "effective distances from exhaustive single-fault suites plus a pair-witness search",
        "the 75-qubit row is constructed as the uniform concatenation of five_prime with rm15",
    ]
    rep.failed = any_fail


def cmd_replay(args, cat: cataloglib.Catalog, rep: report.Report) -> None:
    layout = _resolve_layout(cat, args.layout)
    circuit = circuit_from_text(_read_input(args.circuit, "--circuit"))
    if (block := circuit.register_size // circuit.operands) != layout.total_n:
        raise UsageError(f"circuit blocks of {block} qubits do not match layout {args.layout} "
                         f"({layout.total_n} qubits)")
    injections = []
    for entry in args.fault:
        match = re.fullmatch(r"(-?[0-9]+):(.*)", entry)
        if match is None:
            raise UsageError(f"--fault {entry!r}: expected PLACE:PAULI with an integer PLACE")
        try:
            pauli = Pauli.from_string(match[2])
        except ValueError as exc:
            raise UsageError(f"--fault {entry!r}: expected PLACE:PAULI ({exc})") from None
        if pauli.n != circuit.register_size:
            raise UsageError(f"--fault {entry!r} acts on {pauli.n} qubits, "
                             f"the register has {circuit.register_size}")
        injections.append((int(match[1]), pauli))
    injections.sort(key=lambda pf: pf[0])
    frame = faults.propagate(circuit, [(0, place, p.x, p.z) for place, p in injections])
    residual = faults.DecodeContext(layout, circuit.operands).decode(frame.x, frame.z)
    outcomes = []
    failed = False
    for bx, bz, res in sorted((*frame.branch(r), LETTERS[c])
                              for r, c in enumerate(residual)):
        outcomes.append({"branch": str(Pauli.hermitian(circuit.register_size, bx, bz)),
                         "residual": res})
        failed = failed or res != "I"
    rep.results["layout"] = layout.descriptor
    rep.results["gadget"] = circuit.label
    rep.results["faults"] = [f"{p}@{place}" for place, p in injections]
    rep.results["deterministic"] = bool(frame.deterministic[0])
    rep.results["branches"] = outcomes
    rep.results["uncorrectable"] = failed
    rep.failed = failed


# -- entry point --------------------------------------------------------------------

def _budget(text: str) -> int:
    """A pair budget: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuconcat",
        description="Non-uniform concatenated stabilizer codes: distances, "
                    "gate gadgets, and exhaustive fault-tolerance checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", help="catalog text file (defaults to the embedded one)")
    common.add_argument("--format", choices=("table", "machine"), default="table")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("codes", help="catalog queries")
    p.add_argument("action", choices=("list", "info", "dump"))
    p.add_argument("name", nargs="?")

    p = add("distance", help="exact overall distance of a layout")
    p.add_argument("--layout", required=True)

    p = add("gadget", help="synthesize and verify one logical gadget")
    p.add_argument("--layout", required=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--theta", help="exact angle, e.g. pi/4")
    p.add_argument("--k", type=int, help="control count for CKZ_THETA")
    p.add_argument("--circuit-out", help="write the circuit text here")

    p = add("ftcheck", help="exhaustive fault campaigns")
    p.add_argument("--layout", required=True)
    p.add_argument("--gates", help="comma-separated gadget kinds (default: the layout's set)")
    p.add_argument("--pairs", action="store_true", help="also search fault pairs")
    p.add_argument("--budget", type=_budget, default=faults.PAIR_BUDGET)

    p = add("table1", help="summary table of the code family")
    p.add_argument("--extended", action="store_true", help="include the 47/55/73-qubit rows")
    p.add_argument("--budget", type=_budget, default=faults.PAIR_BUDGET)

    p = add("replay", help="re-run a recorded fault set against a circuit")
    p.add_argument("--layout", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--fault", action="append", required=True,
                   help="PLACE:PAULI, place -1 for a register input fault, written "
                        "--fault=-1:PAULI so that it is not read as an option")
    return parser


_TABLE_RENDERERS = {
    "codes": lambda res: report.render_table(res["codes"], ["name", "n", "k", "d", "css"])
    if "codes" in res else None,
    "table1": lambda res: report.render_table(
        res["rows"], ["method", "qubits", "overall_distance", "effective_distance",
                      "matches_reference"]),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cat = _load_catalog(args.catalog)
        rep = report.Report(args.command, cat.fingerprint())
        handler = {
            "codes": cmd_codes, "distance": cmd_distance, "gadget": cmd_gadget,
            "ftcheck": cmd_ftcheck, "table1": cmd_table1, "replay": cmd_replay,
        }[args.command]
        handler(args, cat, rep)
        rep.timing_s = time.perf_counter() - started
        _emit(args, rep)
    except faults.BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (SynthesisError, simulate.VerificationError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError and LayoutError among them
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input file not readable or an output file not writable
        print(f"usage error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except library.AdmissionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    return 1 if rep.failed else 0


def _emit(args, rep: report.Report) -> None:
    if rep.raw_text is not None:
        text = rep.raw_text
    elif args.format == "machine":
        text = rep.to_machine()
    else:
        renderer = _TABLE_RENDERERS.get(args.command)
        text = renderer(rep.results) if renderer else None
        if text is None:
            text = rep.to_machine()
        else:
            text += "\nstatus: " + ("fail" if rep.failed else "pass") + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


if __name__ == "__main__":
    sys.exit(main())
