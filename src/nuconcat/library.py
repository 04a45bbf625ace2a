"""Gadget admission: synthesis -> oracle verification -> cache.

Every circuit handed out by :class:`GadgetLibrary` carries a verification
certificate.  Transversal declarations from the catalog are re-verified
(once, memoised) before any gadget that relies on the code is released; a
failed verification is a hard error.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from . import gates, simulate
from .catalog import Catalog
from .circuits import GadgetCircuit, GadgetDispatcher, expand_transversal
from .codes import StabilizerCode
from .concat import Layout, flatten
from .gates import Gate
from .simulate import Certificate, VerificationError


class AdmissionError(RuntimeError):
    """A synthesized circuit failed oracle verification."""


def _oracle_checks(code: StabilizerCode, circuit: GadgetCircuit,
                   claimed: Gate) -> list[Callable[[], Certificate]]:
    """Every oracle that applies to ``circuit`` on copies of ``code``, one
    per block, weakest first, as zero-argument checks.

    Coset-phase analysis for X/CNOT/diagonal circuits with a diagonal
    claim; Heisenberg conjugation for Clifford circuits of any size; dense
    simulation when the register fits.  Each oracle is looked up on
    :mod:`simulate` when it runs.
    """
    total = circuit.register_size
    checks = []
    if claimed.is_diagonal and all(g.is_permutation or g.is_diagonal for g in circuit.gates):
        checks.append(lambda: simulate.verify_diagonal_action(code, circuit, claimed))
    if circuit.is_clifford and claimed.is_clifford:
        checks.append(lambda: simulate.verify_clifford_action(code, circuit, claimed))
    if total <= simulate.MAX_DENSE_QUBITS:
        checks.append(lambda: simulate.verify_logical_action(code, circuit, claimed))
    if not checks:
        raise VerificationError(
            f"no oracle applies to {circuit.label} at {total} qubits "
            f"(non-Clifford, non-diagonal structure)")
    return checks


def verify_gadget(code: StabilizerCode, circuit: GadgetCircuit,
                  claimed: Gate) -> Certificate:
    """Run the strongest applicable oracle on copies of ``code``, one per block."""
    return _oracle_checks(code, circuit, claimed)[-1]()


def logical_gate(kind: str) -> Gate:
    """The claimed logical gate, on logical operand indices."""
    return Gate(kind, tuple(range(gates.ARITY[kind])))


@dataclass
class AdmittedGadget:
    circuit: GadgetCircuit
    certificate: Certificate


class GadgetLibrary:
    """Verified gadget store for one catalog.

    The cache maps (layout descriptor, logical gate) to admitted gadgets;
    inserts are idempotent and lock-protected so concurrent lookups never
    observe a torn entry.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.dispatcher = GadgetDispatcher(catalog.rules)
        self._cache: dict[tuple, AdmittedGadget] = {}
        self._rule_certs: dict[tuple[str, str], Certificate] = {}
        self._lock = threading.Lock()

    # -- transversal declarations ------------------------------------------

    def rule_certificate(self, code_name: str, kind: str) -> Certificate:
        """Verify one declaration with every applicable oracle and merge;
        all that apply must pass."""
        key = (code_name, kind)
        with self._lock:
            if key in self._rule_certs:
                return self._rule_certs[key]
        code = self.catalog.code(code_name)
        circuit = expand_transversal(code, kind, self.catalog.rules[code_name][kind])
        claimed = logical_gate(kind)
        certs = [check() for check in _oracle_checks(code, circuit, claimed)]
        for cert in certs:
            if not cert.passed:
                raise AdmissionError(
                    f"declared transversal {kind} on {code_name} failed its "
                    f"{cert.method} check: {cert.details}")
        fidelities = [c.fidelity for c in certs if c.fidelity is not None]
        merged = Certificate(
            "+".join(c.method for c in certs), True,
            fidelity=min(fidelities) if fidelities else None,
            phase=next((c.phase for c in certs if c.phase is not None), None),
            details="; ".join(c.details for c in certs if c.details))
        with self._lock:
            self._rule_certs.setdefault(key, merged)
        return merged

    def verify_code_rules(self, code_name: str) -> dict[str, Certificate]:
        """Verify every declaration of one code (hard error on failure)."""
        certs = {}
        for kind in self.catalog.rules.get(code_name, {}):
            certs[kind] = self.rule_certificate(code_name, kind)
        return certs

    def _require_codes(self, layout: Layout) -> None:
        for name in sorted({layout.outer.name, *(inner.name for inner in layout.assignment)}):
            self.verify_code_rules(name)

    # -- gadgets --------------------------------------------------------------

    def gadget(self, layout: Layout, logical: Gate) -> AdmittedGadget:
        """Cached gadget for ``logical`` on ``layout``, or synthesise one,
        verify it on copies of the flattened layout and cache it; a failed
        verification is a hard error."""
        key = (layout.descriptor, logical.kind, logical.qubits, logical.theta_over_pi)
        code = flatten(layout)
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        self._require_codes(layout)
        circuit = self.dispatcher.logical_gadget(layout, logical)
        cert = verify_gadget(code, circuit, logical)
        if not cert.passed:
            raise AdmissionError(
                f"gadget {circuit.label} on {code.name} failed its "
                f"{cert.method} check: {cert.details}")
        admitted = AdmittedGadget(circuit, cert)
        with self._lock:
            return self._cache.setdefault(key, admitted)
