#!/usr/bin/env python3
"""nuconcat benchmark runner.

    python3 perfbench/run.py --workload table-row --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Each workload is a closed loop: one process, one
thread, one case at a time.  Inputs are the built-in codes; the seed only
sets the order of a workload's cases, never their results.

``--trace 0`` runs the cases round after round until ``--seconds`` have
passed and reports the end-to-end metrics: ``wall_s``, the time of one
round as the sum of per-case median times; ``setup_s``, the median of three
cold set-ups (this process plus two more interpreters started one after
another); and the peak RSS of this process.  Both times are scaled to a
reference host speed (see ``hostclock.py``); the raw times are recorded too.

``--trace 1`` wraps the package's public functions at each module boundary
(see ``instrument``), runs a traced set-up and one traced round, then one
untraced round, and reports per-layer self times (raw seconds) and counts.
``trace.overhead_s`` is the scaled traced round minus the scaled untraced
one.  Count metrics must repeat exactly: the first traced run of a source
tree records them under ``perfbench/out/`` and every later traced run of the
same tree, any seed, must match.

Every case is checked against known values.  A mismatch, or a raised
``BudgetError``, ``AdmissionError`` or ``VerificationError``, counts as a
failed case; the run goes on and exits 1.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run environment, which is also written with the
metrics (and, traced, the spans) to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: the dense oracle in the rule
# certificates would otherwise use every core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from hostclock import REFERENCE_S, Sampler  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 3
SELF_TIME_TOLERANCE = 0.05


# -- workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    layout: str          # layout shortcut, as the CLI names it
    gate: str            # logical gate kind; "table1" for a whole table row
    expected: tuple


@dataclass(frozen=True)
class Workload:
    kind: str                      # "row", "single" or "pairs"
    decoder_codes: tuple[str, ...]  # decoders built during set-up
    cases: tuple[Case, ...]


# Why each workload exists, and which layers it should move, is in
# perfbench/README.md.  Expected values are the package's known outputs.
WORKLOADS = {
    # code49 row of table1: (qubits, distance, effective distance,
    # single-fault suites run, gadget holding the witness, witness locations)
    "table-row": Workload("row", ("steane", "rm15"), (
        Case("code49", "table1", (49, 5, 3, 2, "T", (0, 3))),
    )),
    # (locations, branches, single-fault failures) of CCZ gadgets
    "single-fault": Workload("single", ("steane", "rm15", "five_prime"), (
        Case("code105", "CCZ", (4590, 11520, 0)),
        Case("code49", "CCZ", (4086, 11016, 0)),
        Case("code75", "CCZ", (4320, 11250, 0)),
    )),
    # (locations, result, witness locations, pairs screened)
    "pair-scan": Workload("pairs", ("steane", "rm15"), (
        Case("code105", "S", (630, "none <= 2", None, 198_135)),
        Case("code49", "CNOT", (1029, "2", (135, 138), 129_738)),
    )),
    # Fast case for the benchmark's own test; not a measured workload.
    "smoke": Workload("single", ("steane",), (
        Case("bare:steane", "T", (84, 106, 46)),
    )),
}


def pairs_screened(report) -> int:
    """Pairs the lexicographic scan of ``find_min_uncorrectable`` examined:
    up to and including the witness, or all of them when none was found."""
    n = report.locations_checked
    if not report.failures:
        return n * (n - 1) // 2
    i, j = report.failures[0].locations
    return i * (n - 1) - i * (i - 1) // 2 + (j - i)


def import_package():
    if not (SRC / "nuconcat" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no nuconcat sources under {SRC}; "
                         "run from the root of a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("nuconcat")
    if Path(pkg.__file__).resolve().parent != SRC / "nuconcat":
        raise SystemExit(f"run.py: imported nuconcat from {pkg.__file__}, not {SRC}")
    return {name: importlib.import_module(f"nuconcat.{name}")
            for name in ("catalog", "circuits", "cli", "codes", "concat",
                         "faults", "library", "simulate")}


@dataclass
class Prepared:
    layout: object
    circuit: object | None   # built during set-up, except for table rows
    case: Case


def build(mods, spec: Workload):
    """Set-up after import: catalog, decoder tables, and, for fault
    workloads, the gadget circuits (synthesised without any oracle)."""
    cat = mods["catalog"].default_catalog()
    for name in spec.decoder_codes:
        mods["codes"].build_decoder(cat.code(name))
    dispatcher = mods["circuits"].GadgetDispatcher(cat.rules)
    prepared = []
    for case in spec.cases:
        descriptor = mods["cli"].LAYOUT_SHORTCUTS.get(case.layout, case.layout)
        layout = mods["concat"].parse_layout(descriptor, cat.code)
        circuit = None
        if spec.kind != "row":
            circuit = dispatcher.logical_gadget(layout, mods["library"].logical_gate(case.gate))
        prepared.append(Prepared(layout, circuit, case))
    return cat, prepared


def set_up(spec: Workload):
    """Everything ``setup_s`` covers: import, then ``build``."""
    mods = import_package()
    return mods, build(mods, spec)


def run_case(mods, cat, item: Prepared, kind: str) -> tuple:
    """Run one case; returns what is compared with ``Case.expected``."""
    faults, library = mods["faults"], mods["library"]
    layout = item.layout
    if kind == "row":
        dist = mods["concat"].concatenated_distance(layout)
        lib = library.GadgetLibrary(cat)
        kinds = mods["cli"].CAMPAIGN_GATES[layout.outer.name]
        admitted = [lib.gadget(layout, library.logical_gate(k)) for k in kinds]
        eff = faults.effective_distance_report(layout, [a.circuit for a in admitted])
        # effective_distance_report skips a gadget whose pair search is
        # refused; naming the witness gadget and locations catches that.
        witness = eff.witness_report
        labels = {a.circuit.label: k for a, k in zip(admitted, kinds)}
        return (layout.total_n, dist.distance, eff.value, len(eff.single_fault_reports),
                labels.get(witness.gadget) if witness else None,
                tuple(loc.index for loc in witness.witness) if witness and witness.witness else None)
    if kind == "single":
        rep = faults.check_single_fault_ft(layout, item.circuit)
        return rep.locations_checked, rep.branches_checked, len(rep.failures)
    rep = faults.find_min_uncorrectable(layout, item.circuit)
    witness = tuple(loc.index for loc in rep.witness) if rep.witness else None
    return rep.locations_checked, str(rep.min_uncorrectable_size), witness, pairs_screened(rep)


def check_case(mods, cat, item: Prepared, kind: str) -> bool:
    """Run one case and compare it with its expected values."""
    refusals = (mods["faults"].BudgetError, mods["library"].AdmissionError,
                mods["simulate"].VerificationError)
    label = f"{item.case.layout} {item.case.gate}"
    try:
        got = run_case(mods, cat, item, kind)
    except refusals as exc:
        print(f"case {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    if got != item.case.expected:
        print(f"case {label}: got {got}, expected {item.case.expected}", file=sys.stderr)
        return False
    return True


def run_round(mods, cat, prepared, kind, order) -> int:
    """Every case once, in ``order``; returns the number that failed."""
    return sum(not check_case(mods, cat, prepared[i], kind) for i in order)


# -- tracing ------------------------------------------------------------------------

def instrument(tracer, mods) -> None:
    """Wrap the public functions at each module boundary."""
    counts = tracer.counts
    simulate, library, faults = mods["simulate"], mods["library"], mods["faults"]

    def oracle(record, result, error):
        counts["simulate.oracle_calls"] += 1

    def css_coset(record, result, error):
        # The two css-coset paths share one entry point; the certificate
        # names the path that certified it.
        oracle(record, result, error)
        multilinear = result is not None and "multilinear" in result.details
        record[1] = "simulate.css_coset_multilinear" if multilinear else "simulate.css_coset_enum"

    def admitted(record, result, error):
        if error is None:
            counts["library.gadgets_admitted"] += 1

    def campaign(record, result, error):
        if result is not None:
            counts["faults.locations"] += result.locations_checked
            counts["faults.branches"] += result.branches_checked

    def pair_search(record, result, error):
        if isinstance(error, faults.BudgetError):
            counts["faults.budget_refusals"] += 1
        if result is not None:
            campaign(record, result, error)
            counts["faults.pairs_screened"] += pairs_screened(result)

    def circuit_gates(record, result, error):
        if result is not None:
            counts["circuits.gates"] += len(result.gates)

    def decoder_builds(fn):
        misses = [fn.cache_info().misses]

        def on_exit(record, result, error):
            now = fn.cache_info().misses
            if result is not None and now > misses[0]:
                counts["codes.decoder_entries"] += len(result.table)
            misses[0] = now
        return tracer.span("codes.build_decoder", fn, on_exit)

    def confirmations(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["faults.confirmations"] += 1
            counts["faults.confirmed"] += result is not None
            return result
        return wrapper

    span = tracer.span
    tracer.patch(simulate, "verify_logical_action", lambda f: span("simulate.dense", f, oracle))
    tracer.patch(simulate, "verify_clifford_action", lambda f: span("simulate.heisenberg", f, oracle))
    tracer.patch(simulate, "verify_diagonal_action", lambda f: span("simulate.css_coset", f, css_coset))
    tracer.patch(library.GadgetLibrary, "rule_certificate", lambda f: span("library.rule_certificate", f))
    tracer.patch(library.GadgetLibrary, "gadget", lambda f: span("library.gadget", f, admitted))
    tracer.patch(faults, "propagate", lambda f: tracer.leaf("faults.propagate", f))
    tracer.patch(faults.DecodeContext, "decode", lambda f: tracer.leaf("faults.decode", f))
    tracer.patch(faults, "check_single_fault_ft", lambda f: span("faults.single_fault", f, campaign))
    tracer.patch(faults, "find_min_uncorrectable", lambda f: span("faults.pair_search", f, pair_search))
    tracer.patch(faults, "_confirm_pair", confirmations)
    tracer.patch(mods["codes"], "build_decoder", decoder_builds)
    tracer.patch(mods["concat"], "concatenated_distance", lambda f: span("concat.concatenated_distance", f))
    tracer.patch(mods["circuits"].GadgetDispatcher, "logical_gadget",
                 lambda f: span("circuits.logical_gadget", f, circuit_gates))


TIMED_SPANS = ("simulate.css_coset_multilinear", "simulate.css_coset_enum",
               "simulate.heisenberg", "simulate.dense", "library.rule_certificate",
               "library.gadget", "faults.propagate", "faults.decode", "faults.single_fault",
               "faults.pair_search", "codes.build_decoder", "concat.concatenated_distance",
               "circuits.logical_gadget")
COUNTS = ("simulate.oracle_calls", "library.gadgets_admitted", "faults.locations",
          "faults.propagate_calls", "faults.branches", "faults.decode_calls",
          "faults.pairs_screened", "faults.confirmations", "faults.budget_refusals",
          "codes.decoder_entries", "circuits.gates")


def layer_metrics(tracer) -> tuple[dict, list[str]]:
    """Per-layer values and the list of problems found in the trace."""
    selfs = tracer.self_times()
    counts = tracer.counts
    counts["faults.propagate_calls"] = tracer.leaf_calls("faults.propagate")
    counts["faults.decode_calls"] = tracer.leaf_calls("faults.decode")
    problems = []
    unknown = set(selfs) - set(TIMED_SPANS)
    if unknown:
        problems.append(f"spans without a metric: {sorted(unknown)}")
    if min(selfs.values(), default=0.0) < -1e-6:
        problems.append(f"negative self time: {selfs}")
    total = sum(selfs.values()) + tracer.unattributed
    if abs(total - tracer.wall) > SELF_TIME_TOLERANCE * tracer.wall:
        problems.append(f"self times + unattributed = {total:.6f} s, "
                        f"traced wall {tracer.wall:.6f} s")

    values = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in TIMED_SPANS}
    values.update({name: (counts[name], "count") for name in COUNTS})
    locations, confirmations = counts["faults.locations"], counts["faults.confirmations"]
    values["faults.branches_per_location"] = (
        counts["faults.branches"] / locations if locations else 0.0, "ratio")
    values["faults.confirm_hit_ratio"] = (
        counts["faults.confirmed"] / confirmations if confirmations else 0.0, "ratio")
    values["unattributed_s"] = (tracer.unattributed, "s")
    values["trace.wall_s"] = (tracer.wall, "s")
    return values, problems


def check_counts(workload: str, digest: str, counts: dict) -> str | None:
    """Compare with the counts an earlier traced run of this tree recorded."""
    path = OUT / f"counts-{workload}.json"
    try:
        recorded = json.loads(path.read_text())
    except FileNotFoundError:
        recorded = {}
    if digest in recorded:
        if recorded[digest] != counts:
            return f"counts differ from an earlier run of this tree: {recorded[digest]} != {counts}"
        return None
    recorded[digest] = counts
    write_json(path, recorded)
    return None


# -- environment and output ------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, digest: str) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "source_digest": digest,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "clock": "time.perf_counter",
    }


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1))
    os.replace(tmp, path)


def child_setup(workload: str) -> tuple[float, float]:
    """One cold set-up in a fresh interpreter, run to completion;
    returns its (raw, scaled) seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return times["raw_s"], times["scaled_s"]


# -- entry point ------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    order = list(range(len(spec.cases)))
    random.Random(args.seed).shuffle(order)
    sampler = Sampler()

    if args.setup_only:
        _, raw, scaled = sampler.time(set_up, spec)
        print(json.dumps({"raw_s": raw, "scaled_s": scaled}))
        return 0

    digest = source_digest()
    env = environment(args, digest)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"env": env}

    if args.trace == 0:
        # Times are scaled to the reference host speed (see hostclock.py);
        # the raw times go to the record.
        (mods, (cat, prepared)), raw, scaled = sampler.time(set_up, spec)
        setups = [(raw, scaled)] + [child_setup(args.workload)
                                    for _ in range(SETUP_SAMPLES - 1)]
        # Cases run one after another in seed order, round after round.
        # After the first round a case starts only if its last time still
        # fits in --seconds, so a run lasts at most max(--seconds, 1 round).
        # A round's time is the sum of per-case medians, which damps bursts
        # of machine noise.
        samples = [[] for _ in prepared]   # (raw, scaled) seconds per case
        measure_start = perf_counter()
        for n in itertools.count():
            i = order[n % len(order)]
            if n >= len(order) and (perf_counter() - measure_start
                                    + samples[i][-1][0] > args.seconds):
                break
            ok, raw, scaled = sampler.time(check_case, mods, cat, prepared[i], spec.kind)
            samples[i].append((raw, scaled))
            result["attempted"] += 1
            result["failed"] += not ok
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "wall_s": (sum(statistics.median(t for _, t in x) for x in samples), "s"),
            "setup_s": (statistics.median(t for _, t in setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}
        record.update(case_samples_s=samples, setups_s=setups,
                      kernel_samples_s=sampler.samples)
        problems = []
    else:
        mods = import_package()
        tracer = Tracer()
        instrument(tracer, mods)
        # No host-speed sampling inside the traced window, where it would
        # land in some layer's self time: the traced round is scaled by
        # the host speed probed just before and after the window.
        kernel_before = sampler.probe()
        tracer.start()
        cat, prepared = build(mods, spec)
        t0 = perf_counter()
        failed = run_round(mods, cat, prepared, spec.kind, order)
        traced_round = perf_counter() - t0
        tracer.stop()
        tracer.uninstall()
        kernel_s = (kernel_before + sampler.probe()) / 2
        untraced_failed, _, untraced_round = sampler.time(
            run_round, mods, cat, prepared, spec.kind, order)
        failed += untraced_failed
        result["attempted"] = 2 * len(order)
        result["failed"] = failed
        values, problems = layer_metrics(tracer)
        values["trace.overhead_s"] = (traced_round * REFERENCE_S / kernel_s - untraced_round, "s")
        mismatch = check_counts(args.workload, digest,
                                {name: values[name][0] for name in COUNTS})
        if mismatch:
            problems.append(mismatch)
        record.update(tracer.dump(), traced_round_raw_s=traced_round,
                      kernel_s=kernel_s, untraced_round_s=untraced_round)

    for problem in problems:
        print(f"trace check: {problem}", file=sys.stderr)
    result["correct"] = result["failed"] == 0 and not problems
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in values.items()}
    record["result"] = result
    write_json(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
