"""The benchmark's ``--trace 1`` wraps package functions by name: installing
its instrumentation must find every one of them, and every case of the
measured workloads must hold its expected values through the runner's own
set-up and check, so a rename, a changed signature or a changed value fails
here rather than only in a benchmark run."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from nuconcat import faults

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_runner(monkeypatch):
    """Import ``perfbench/run.py`` without keeping the thread-pool pins it
    sets in the environment of its own process."""
    environ = dict(os.environ)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    runner = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, runner)   # its dataclasses look it up
    spec.loader.exec_module(runner)
    for var in runner.THREAD_VARS:
        if var in environ:
            os.environ[var] = environ[var]
        else:
            os.environ.pop(var, None)
    return runner


def test_trace_instrumentation_installs_and_uninstalls(monkeypatch):
    runner = load_runner(monkeypatch)
    original = faults.propagate, faults._confirm_pair, faults.DecodeContext.decode
    tracer = runner.Tracer()
    try:
        runner.instrument(tracer, runner.import_package())
        assert faults.propagate is not original[0]
    finally:
        tracer.uninstall()
    assert (faults.propagate, faults._confirm_pair, faults.DecodeContext.decode) == original


@pytest.mark.parametrize("workload", ["table-row", "single-fault", "pair-scan"])
def test_benchmark_cases_hold_their_expected_values(monkeypatch, workload):
    """Each case once, untraced, as a ``--trace 0`` round runs it."""
    runner = load_runner(monkeypatch)
    spec = runner.WORKLOADS[workload]
    mods = runner.import_package()
    cat, prepared = runner.build(mods, spec)
    assert all([runner.check_case(mods, cat, item, spec.kind) for item in prepared])
