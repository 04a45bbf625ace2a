"""Gate gadgets: staircase synthesis for diagonal gates, transversal
expansion, block-local logical Cliffords, and layout-level dispatch.

A staircase gadget realises a logical C^kZ(theta) on k+1 identical code
blocks by (per block) normalising a minimum-weight logical-Z
representative to pure Z form with local Cliffords, accumulating its
parity onto one qubit with a CNOT chain, applying one physical
C^kZ(theta) across the collection qubits, and uncomputing.  Only d
qubits per block are ever coupled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import gates
from ._bitlin import rref
from .codes import StabilizerCode, min_weight_candidates
from .concat import Layout, bare_layout
from .gates import Gate
from .pauli import Pauli


class SynthesisError(ValueError):
    """Gadget construction refused; the message carries the diagnosis."""


@dataclass(frozen=True)
class GadgetCircuit:
    """Located gate sequence realising one logical gate.

    ``blocks`` lists (offset, length) per logical operand; fault locations
    are the gate indices 0..len(gates)-1 plus per-qubit input faults.
    """

    register_size: int
    gates: tuple[Gate, ...]
    label: str
    blocks: tuple[tuple[int, int], ...]
    layouts: tuple[Layout, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.register_size:
                    raise ValueError(f"gate {g} outside register of {self.register_size}")

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def is_clifford(self) -> bool:
        return all(g.is_clifford for g in self.gates)

    def touched_qubits(self) -> frozenset[int]:
        return frozenset(q for g in self.gates for q in g.qubits)


def invert(c: GadgetCircuit) -> GadgetCircuit:
    return GadgetCircuit(c.register_size, _inverted_gates(c.gates),
                         f"inv({c.label})", c.blocks, c.layouts)


def _inverted_gates(gs) -> tuple[Gate, ...]:
    return tuple(g.dagger() for g in reversed(gs))


# -- staircase synthesis -------------------------------------------------------

# Single-qubit letter -> gate turning it into Z under conjugation:
# H X H = Z, and K_dag Y K = Z (K maps Z to Y).
_NORMALIZER_GATE = {"X": gates.H, "Y": gates.K_DAG}


def normalization_gates(rep: Pauli) -> tuple[tuple[Gate, ...], Pauli]:
    """Local Cliffords mapping ``rep`` to an all-Z, positive-sign operator.

    X letters are fixed by H, Y letters by K_dagger; a residual -1 sign is
    absorbed by a Pauli X on the first support qubit.  Returns the gate
    list and the transformed representative.
    """
    lc: list[Gate] = []
    for q in rep.support:
        letter = rep.letter(q)
        if letter in _NORMALIZER_GATE:
            lc.append(gates.gate(_NORMALIZER_GATE[letter], q))
    transformed = gates.conjugate_through(rep, lc)
    if transformed.x:
        raise AssertionError(f"normalization left X components in {transformed}")
    if transformed.display_phase_exp == 2:
        lc.append(gates.gate(gates.X, rep.support[0]))
        transformed = transformed.negate()
    if transformed.display_phase_exp != 0:
        raise AssertionError(f"normalization cannot fix phase of {transformed}")
    return tuple(lc), transformed


def staircase_gadget(code: StabilizerCode, k: int, theta: Fraction) -> GadgetCircuit:
    """Logical C^kZ(theta) on k+1 blocks of ``code``, coupling d qubits each."""
    return GadgetDispatcher({})._outer_staircase(bare_layout(code), k, theta)


# -- transversal rules ----------------------------------------------------------

@dataclass(frozen=True)
class TransversalRule:
    """Declared bitwise realisation of a logical gate on one code.

    ``style`` is ``bitwise`` (physical ``phys_kind`` on every qubit of each
    operand, or on every aligned tuple for multi-qubit gates) or ``rep``
    (apply the letters of the code's logical representative; used for the
    logical Paulis).  ``fixups`` are extra single-qubit gates appended
    after the bitwise layer.
    """

    style: str
    phys_kind: str | None = None
    fixups: tuple[tuple[str, int], ...] = ()


def expand_transversal(code: StabilizerCode, logical_kind: str,
                       rule: TransversalRule) -> GadgetCircuit:
    """The declared rule on bare blocks of ``code``, one per operand."""
    dispatcher = GadgetDispatcher({code.name: {logical_kind: rule}})
    return dispatcher._outer_transversal(bare_layout(code), logical_kind)


# -- block-local logical Cliffords (CSS encoder conjugation) --------------------

@lru_cache(maxsize=None)
def encoding_circuit(code: StabilizerCode) -> tuple[tuple[Gate, ...], int]:
    """CSS encoding circuit E with |b>|0...0> -> |b logical>.

    Returns (gates, input qubit).  Built from the row-reduced X-generator
    matrix: CNOT the input across the logical-X support, then H each pivot
    and CNOT it across its row.  Exact for CSS codes with positive-sign
    generators.
    """
    if not code.css:
        raise SynthesisError(f"{code.name} is not CSS; no encoder synthesis available")
    rows = [g.x for g in code.generators if g.x]
    # fully reduced, so no pivot appears in another row
    reduced = rref(rows)
    if len(reduced) != len(rows):
        raise AssertionError(f"{code.name}: dependent X generators")
    lx = code.logical_x.x
    for r in reduced:
        if (lx >> (r.bit_length() - 1)) & 1:
            lx ^= r
    q_in = (lx & -lx).bit_length() - 1
    gate_list: list[Gate] = []
    for q in range(code.n):
        if q != q_in and (lx >> q) & 1:
            gate_list.append(gates.gate(gates.CNOT, q_in, q))
    for row in reduced:
        pivot = row.bit_length() - 1
        gate_list.append(gates.gate(gates.H, pivot))
        for q in range(code.n):
            if q != pivot and (row >> q) & 1:
                gate_list.append(gates.gate(gates.CNOT, pivot, q))
    return tuple(gate_list), q_in


@lru_cache(maxsize=None)
def block_logical_gadget(code: StabilizerCode, kind: str) -> GadgetCircuit:
    """Logical single-qubit gate realised inside one block as E (gate) E^dag.

    Not bitwise: faults may spread within the block (at worst to a block
    logical error), which at the outer level of a concatenated code is a
    single-qubit fault.  Used for inner logical gates that have no
    transversal form, e.g. H or K on the 15-qubit Reed-Muller block.
    """
    enc, q_in = encoding_circuit(code)
    gate_list = _inverted_gates(enc) + (gates.gate(kind, q_in),) + enc
    return GadgetCircuit(code.n, gate_list, f"{kind}[block:{code.name}]",
                         ((0, code.n),), (bare_layout(code),))


# -- layout-level dispatch --------------------------------------------------------

def _rule_for(rules: dict[str, TransversalRule], kind: str) -> tuple[TransversalRule, bool] | None:
    """Find a declared rule for ``kind`` directly or via its dagger."""
    if kind in rules:
        return rules[kind], False
    dag = Gate(kind, tuple(range(gates.ARITY[kind]))).dagger().kind if kind in gates.ARITY else None
    if dag is not None and dag in rules:
        return rules[dag], True
    return None


class GadgetDispatcher:
    """Expands logical gates on a layout into physical gadget circuits.

    ``rules`` maps code name -> {logical kind -> TransversalRule}; the
    catalog provides it and the gadget library verifies every expansion
    before use.
    """

    def __init__(self, rules: dict[str, dict[str, TransversalRule]]):
        self.rules = rules

    # ---- single-qubit helpers ----

    def _phys_1q(self, layout: Layout, outer_q: int, kind: str,
                 allow_block_local: bool, context: str) -> list[Gate]:
        start, inner = layout.block(outer_q)
        if inner is None:
            return [gates.gate(kind, start)]
        return [Gate(g.kind, tuple(q + start for q in g.qubits), g.theta_over_pi)
                for g in self._logical_1q(inner, kind, allow_block_local, context).gates]

    def _logical_1q(self, code: StabilizerCode, kind: str,
                    allow_block_local: bool, context: str) -> GadgetCircuit:
        if _rule_for(self.rules.get(code.name, {}), kind) is not None:
            return self._outer_transversal(bare_layout(code), kind)
        if allow_block_local and code.css:
            return block_logical_gadget(code, kind)
        raise SynthesisError(
            f"{code.name} has no transversal realisation of {kind}{context}")

    # ---- public dispatch ----

    def logical_gadget(self, layout: Layout, logical: Gate) -> GadgetCircuit:
        """Gadget for one logical gate on ``layout`` (or across copies of it).

        ``logical`` is the gate on logical operand indices 0..arity-1;
        its qubit count fixes how many layout copies participate.
        """
        kind = logical.kind
        if kind in (gates.Z_THETA, gates.CKZ_THETA):
            folded = gates.diagonal_gate(logical.qubits, logical.theta())
            if folded.kind != kind:
                return self.logical_gadget(layout, folded)
        outer_rules = self.rules.get(layout.outer.name, {})
        if _rule_for(outer_rules, kind) is not None:
            return self._outer_transversal(layout, kind)
        if logical.is_diagonal:
            return self._outer_staircase(layout, len(logical.qubits) - 1, logical.theta())
        raise SynthesisError(
            f"{layout.outer.name} has no transversal {kind} and {kind} is not diagonal")

    def _outer_transversal(self, layout: Layout, kind: str) -> GadgetCircuit:
        arity = gates.ARITY[kind]
        rule, daggered = _rule_for(self.rules[layout.outer.name], kind)
        total = layout.total_n
        blocks = tuple((b * total, total) for b in range(arity))
        gate_list: list[Gate] = []
        if rule.style == "rep":
            target = Gate(kind, tuple(range(arity))).dagger().kind if daggered else kind
            rep = layout.outer.logical_rep(target)
            for q in rep.support:
                gate_list.extend(self._phys_1q(layout, q, rep.letter(q), True,
                                               f" (lifting outer logical {target})"))
        else:
            phys = rule.phys_kind
            if gates.ARITY.get(phys, 1) != arity:
                raise SynthesisError(f"{phys} arity does not match {kind}")
            if arity == 1:
                seq: list[Gate] = []
                for q in range(layout.outer.n):
                    seq.extend(self._phys_1q(layout, q, phys, True,
                                             f" (outer-transversal {kind})"))
                for fk, fq in rule.fixups:
                    seq.extend(self._phys_1q(layout, fq, fk, True,
                                             f" (fixup of outer-transversal {kind})"))
                gate_list.extend(_inverted_gates(seq) if daggered else seq)
            else:
                # aligned multi-operand gate (CNOT/CZ/CCZ between layout copies)
                for q in range(layout.outer.n):
                    start, inner = layout.block(q)
                    width = 1 if inner is None else inner.n
                    if inner is not None and _rule_for(self.rules.get(inner.name, {}), phys) is None:
                        raise SynthesisError(
                            f"{inner.name} has no transversal realisation of {phys}"
                            f" (outer-transversal {kind})")
                    for j in range(width):
                        gate_list.append(Gate(phys, tuple(b * total + start + j
                                                          for b in range(arity))))
                if rule.fixups:
                    raise SynthesisError("fixups unsupported on multi-operand rules")
        return GadgetCircuit(arity * total, tuple(gate_list), kind, blocks, (layout,) * arity)

    def _outer_staircase(self, layout: Layout, k: int, theta: Fraction) -> GadgetCircuit:
        """Outer-code staircase with every outer-level gate realised on the layout."""
        outer = layout.outer
        candidates = min_weight_candidates(outer, "Z")
        failures: list[str] = []
        for rep in candidates:
            try:
                return self._staircase_from_rep(layout, rep, k, theta)
            except SynthesisError as exc:
                failures.append(f"[rep {rep}] {exc}")
        raise SynthesisError(
            f"no weight-{candidates[0].weight()} logical-Z representative of "
            f"{outer.name} admits a realisable staircase: " + "; ".join(failures))

    def _staircase_from_rep(self, layout: Layout, rep: Pauli, k: int,
                            theta: Fraction) -> GadgetCircuit:
        lc, _ = normalization_gates(rep)
        support = rep.support
        total = layout.total_n
        blocks = tuple((b * total, total) for b in range(k + 1))

        def shift(gs, off):
            return [Gate(g.kind, tuple(q + off for q in g.qubits), g.theta_over_pi) for g in gs]

        half: list[Gate] = []
        for g in lc:
            half.extend(self._phys_1q(layout, g.qubits[0], g.kind, False,
                                      " (staircase normalisation inside the coupling"
                                      " region must stay transversal)"))
        for a, b in zip(support, support[1:]):
            half.extend(self._layout_cnot(layout, a, b))

        collector_gates = self._layout_diagonal(layout, support[-1], k, theta, total)

        gate_list: list[Gate] = []
        for b in range(k + 1):
            gate_list.extend(shift(half, b * total))
        gate_list.extend(collector_gates)
        uncompute: list[Gate] = []
        for b in range(k + 1):
            uncompute.extend(shift(half, b * total))
        gate_list.extend(_inverted_gates(uncompute))

        label = gates.diagonal_gate(tuple(range(k + 1)), theta).kind
        if label in (gates.Z_THETA, gates.CKZ_THETA):
            label += f"({gates.format_theta(theta)})"
        return GadgetCircuit((k + 1) * total, tuple(gate_list), label, blocks,
                             (layout,) * (k + 1))

    def _layout_cnot(self, layout: Layout, ctrl: int, targ: int) -> list[Gate]:
        (cs, ci), (ts, ti) = layout.block(ctrl), layout.block(targ)
        if ci is None and ti is None:
            return [gates.gate(gates.CNOT, cs, ts)]
        if ci is None or ti is None or ci.name != ti.name:
            raise SynthesisError(
                f"staircase CNOT couples outer qubits {ctrl} and {targ} with "
                f"mismatched encodings ({ci.name if ci else 'bare'} vs "
                f"{ti.name if ti else 'bare'})")
        if _rule_for(self.rules.get(ci.name, {}), gates.CNOT) is None:
            raise SynthesisError(f"{ci.name} has no transversal CNOT")
        return [gates.gate(gates.CNOT, cs + j, ts + j) for j in range(ci.n)]

    def _layout_diagonal(self, layout: Layout, collector: int, k: int,
                         theta: Fraction, operand_stride: int) -> list[Gate]:
        """Physical C^kZ(theta) across the collector qubit of each operand."""
        start, inner = layout.block(collector)
        if inner is None:
            return [gates.diagonal_gate(tuple(b * operand_stride + start
                                              for b in range(k + 1)), theta)]
        # encoded collectors: the gate becomes the inner-logical diagonal,
        # which must itself be transversal in the inner code
        return self._inner_diagonal(inner, start, k, theta, operand_stride)

    def _inner_diagonal(self, inner: StabilizerCode, start: int, k: int,
                        theta: Fraction, stride: int) -> list[Gate]:
        logical = gates.diagonal_gate(tuple(range(k + 1)), theta)
        rules = self.rules.get(inner.name, {})
        found = _rule_for(rules, logical.kind)
        if found is None or logical.kind in (gates.Z_THETA, gates.CKZ_THETA):
            raise SynthesisError(
                f"{inner.name} has no transversal realisation of {logical.kind}"
                f"{'' if logical.theta_over_pi is None else '(' + gates.format_theta(logical.theta_over_pi) + ')'}"
                " (collector of the staircase)")
        rule, daggered = found
        phys = rule.phys_kind
        seq = [Gate(phys, tuple(b * stride + start + j for b in range(k + 1)))
               for j in range(inner.n)]
        for fk, fq in rule.fixups:
            seq.append(gates.gate(fk, start + fq))
        return list(_inverted_gates(seq)) if daggered else seq


# -- circuit text ------------------------------------------------------------------

def circuit_to_text(c: GadgetCircuit) -> str:
    lines = [f"circuit {c.label}",
             f"register {c.register_size}",
             "blocks " + " ".join(f"{off}:{ln}" for off, ln in c.blocks)]
    lines.extend(str(g) for g in c.gates)
    return "\n".join(lines) + "\n"


_BLOCK_RE = re.compile(r"^(\d+):(\d+)$")


def circuit_from_text(text: str) -> GadgetCircuit:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if len(lines) < 3 or not lines[0].startswith("circuit "):
        raise ValueError("bad circuit file header")
    label = lines[0].removeprefix("circuit ").strip()
    register = int(lines[1].removeprefix("register "))
    blocks = []
    for token in lines[2].removeprefix("blocks ").split():
        m = _BLOCK_RE.match(token)
        if not m:
            raise ValueError(f"bad block token {token!r}")
        blocks.append((int(m.group(1)), int(m.group(2))))
    gate_list = []
    for line in lines[3:]:
        parts = line.split()
        kind = parts[0]
        theta = None
        qubits = []
        for tok in parts[1:]:
            if tok.startswith("theta="):
                theta = gates.parse_theta(tok.removeprefix("theta="))
            else:
                qubits.append(int(tok))
        gate_list.append(Gate(kind, tuple(qubits), theta))
    return GadgetCircuit(register, tuple(gate_list), label, tuple(blocks))
