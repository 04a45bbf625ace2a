"""Gadget admission: synthesis -> oracle verification -> cache.

Every circuit handed out by :class:`GadgetLibrary` carries a verification
certificate.  Transversal declarations from the catalog are re-verified
(once, memoised) before any gadget that relies on the code is released; a
failed verification is a hard error.  Oracles refuse what they cannot
judge; the router asks them strongest first and, if all refuse, lists why.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import gates, simulate
from .catalog import Catalog
from .circuits import GadgetCircuit, GadgetDispatcher
from .codes import StabilizerCode
from .concat import Layout, bare_layout, flatten
from .gates import Gate
from .simulate import Certificate, VerificationError


class AdmissionError(RuntimeError):
    """A synthesized circuit failed oracle verification."""


def _certificates(code: StabilizerCode, circuit: GadgetCircuit,
                  claimed: Gate) -> Iterator[Certificate]:
    """Certificates by every oracle, strongest first, that does not raise
    ``NotApplicable``; each is looked up on :mod:`simulate` when it runs."""
    oracles = (simulate.verify_logical_action, simulate.verify_clifford_action,
               simulate.verify_diagonal_action)
    reasons = []
    for oracle in oracles:
        try:
            yield oracle(code, circuit, claimed)
        except simulate.NotApplicable as exc:
            reasons.append(str(exc))
    if len(reasons) == len(oracles):
        raise VerificationError(f"no oracle applies to {circuit.label} at "
                                f"{circuit.register_size} qubits: " + "; ".join(reasons))


def verify_gadget(code: StabilizerCode, circuit: GadgetCircuit,
                  claimed: Gate) -> Certificate:
    """Run the strongest applicable oracle on copies of ``code``, one per block."""
    return next(_certificates(code, circuit, claimed))


def logical_gate(kind: str) -> Gate:
    """The claimed logical gate, on logical operand indices."""
    return Gate(kind, tuple(range(gates.ARITY[kind])))


@dataclass
class AdmittedGadget:
    circuit: GadgetCircuit
    certificate: Certificate


class GadgetLibrary:
    """Verified gadget store for one catalog.

    The cache maps (layout descriptor, logical gate) to admitted gadgets.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.dispatcher = GadgetDispatcher(catalog.rules)
        self._cache: dict[tuple, AdmittedGadget] = {}
        self._rule_certs: dict[tuple[str, str], Certificate] = {}

    # -- transversal declarations ------------------------------------------

    def rule_certificate(self, code_name: str, kind: str) -> Certificate:
        """Verify one declaration with every applicable oracle and merge,
        weakest first; all that apply must pass."""
        key = (code_name, kind)
        if key in self._rule_certs:
            return self._rule_certs[key]
        code = self.catalog.code(code_name)
        if kind not in self.catalog.rules[code_name]:
            raise KeyError(f"{code_name} declares no transversal {kind}")
        claimed = logical_gate(kind)
        circuit = self.dispatcher.logical_gadget(bare_layout(code), claimed)
        certs = list(_certificates(code, circuit, claimed))[::-1]
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
        self._rule_certs[key] = merged
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
        if key in self._cache:
            return self._cache[key]
        self._require_codes(layout)
        circuit = self.dispatcher.logical_gadget(layout, logical)
        cert = verify_gadget(code, circuit, logical)
        if not cert.passed:
            raise AdmissionError(
                f"gadget {circuit.label} on {code.name} failed its "
                f"{cert.method} check: {cert.details}")
        self._cache[key] = AdmittedGadget(circuit, cert)
        return self._cache[key]
