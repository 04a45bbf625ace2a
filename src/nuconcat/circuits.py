"""Gate gadgets: staircase synthesis for diagonal gates, transversal
expansion, block-local logical Cliffords, and layout-level dispatch.

A staircase gadget realises a logical C^kZ(theta) on k+1 identical code
blocks by (per block) normalising a minimum-weight logical-Z
representative to pure Z form with local Cliffords, accumulating its
parity onto one qubit with a CNOT chain, applying one physical
C^kZ(theta) across the collection qubits, and uncomputing.  Only d
qubits per block are ever coupled.

On a layout every outer-level gate of a gadget takes one path: on bare
qubits it is the gate itself, on an encoded block the inner code's
declared rule (expanded on bare blocks of that code), re-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import gates
from ._bitlin import reduce
from .codes import BARE, StabilizerCode, code_space, min_weight_candidates
from .concat import Layout, bare_layout
from .gates import Gate
from .pauli import Pauli


class SynthesisError(ValueError):
    """Gadget construction refused; the message carries the diagnosis."""


@dataclass(frozen=True)
class GadgetCircuit:
    """Located gate sequence realising one logical gate on ``operands``
    equal blocks that tile the register in order; ``blocks`` gives each
    block's (offset, length).  Fault locations are the gate indices
    0..len(gates)-1 plus per-qubit input faults.
    """

    register_size: int
    gates: tuple[Gate, ...]
    label: str
    operands: int

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.register_size:
                    raise ValueError(f"gate {g} outside register of {self.register_size}")
        if not 1 <= self.operands <= self.register_size or self.register_size % self.operands:
            raise ValueError(f"{self.operands} operands do not tile the register of "
                             f"{self.register_size}")

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        size = self.register_size // self.operands
        return tuple((b * size, size) for b in range(self.operands))

    @property
    def is_clifford(self) -> bool:
        return all(g.is_clifford for g in self.gates)

    layers = cached_property(lambda self: gates.layers(self.gates))

    def touched_qubits(self) -> frozenset[int]:
        return frozenset(q for g in self.gates for q in g.qubits)


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
    (transformed,) = gates.conjugate_through([rep], lc)
    if transformed.x:
        raise AssertionError(f"normalization left X components in {transformed}")
    if transformed.display_phase_exp == 2:
        lc.append(gates.gate(gates.X, rep.support[0]))
        transformed = transformed.negate()
    if transformed.display_phase_exp != 0:
        raise AssertionError(f"normalization cannot fix phase of {transformed}")
    return tuple(lc), transformed


# -- transversal rules ----------------------------------------------------------

@dataclass(frozen=True)
class TransversalRule:
    """Declared bitwise realisation of a logical gate on one code.

    A rule is ``bitwise`` (physical ``phys_kind`` on every qubit of each
    operand, or on every aligned tuple for multi-qubit gates), or ``rep``
    when it names no physical kind (apply the letters of the code's
    logical representative; used for the logical Paulis).  ``fixups`` are
    extra single-qubit gates appended after the bitwise layer.
    """

    phys_kind: str | None = None
    fixups: tuple[tuple[str, int], ...] = ()


# -- block-local logical Cliffords (CSS encoder conjugation) --------------------

@lru_cache(maxsize=None)
def encoding_circuit(code: StabilizerCode) -> tuple[tuple[Gate, ...], int]:
    """CSS encoding circuit E with |b>|0...0> -> |b logical>.

    Returns (gates, input qubit).  Built from the X parts of the code
    space's moves, for a CSS code the row-reduced X generators: CNOT the
    input across the logical-X support, then H each pivot and CNOT it
    across its row.  Exact for CSS codes with positive-sign generators.
    """
    if not code.css:
        raise SynthesisError(f"{code.name} is not CSS; no encoder synthesis available")
    # the moves' X parts: fully reduced, so no pivot appears in another row
    reduced = [m.x for m in code_space(code)[1]]
    lx = reduce(reduced, code.logical_x.x)
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
    return GadgetCircuit(code.n, gate_list, f"{kind}[block:{code.name}]", 1)


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

    def _on_blocks(self, inner: StabilizerCode, starts: tuple[int, ...], kind: str,
                   theta: Fraction | None = None, block_local: bool = False,
                   context: str = "") -> list[Gate]:
        """Logical ``kind`` (angle ``theta``) with operand b on the block at
        ``starts[b]``.

        Bare blocks get the gate itself.  An encoded block gets its code's
        declared rule, expanded and re-indexed; a one-qubit kind without
        one falls back to the block-local gadget when ``block_local``
        allows it.  ``context`` ends the refusal message.
        """
        if inner == BARE:
            return [Gate(kind, starts, theta)]
        if theta is None and _rule_for(self.rules.get(inner.name, {}), kind) is not None:
            local = self._outer_transversal(bare_layout(inner), kind)
        elif block_local and len(starts) == 1 and inner.css:
            local = block_logical_gadget(inner, kind)
        else:
            angle = "" if theta is None else f"({gates.format_theta(theta)})"
            raise SynthesisError(
                f"{inner.name} has no transversal realisation of {kind}{angle}{context}")
        return [Gate(g.kind, tuple(starts[q // inner.n] + q % inner.n for q in g.qubits),
                     g.theta_over_pi) for g in local.gates]

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
        if rule.phys_kind is None:
            rep = layout.outer.logical_rep(kind)  # X, Y and Z are their own daggers
            steps = [(q, rep.letter(q), f" (lifting outer logical {kind})")
                     for q in rep.support]
        else:
            phys = rule.phys_kind
            if gates.ARITY.get(phys, 1) != arity:
                raise SynthesisError(f"{phys} arity does not match {kind}")
            if rule.fixups and arity > 1:
                raise SynthesisError("fixups unsupported on multi-operand rules")
            # multi-operand gates (CNOT/CZ/CCZ) align the layout copies
            steps = [(q, phys, f" (outer-transversal {kind})") for q in range(layout.outer.n)]
            steps += [(fq, fk, f" (fixup of outer-transversal {kind})") for fk, fq in rule.fixups]
        seq: list[Gate] = []
        for q, step_kind, context in steps:
            start, inner = layout.block(q)
            seq += self._on_blocks(inner, tuple(b * total + start for b in range(arity)),
                                   step_kind, block_local=True, context=context)
        return GadgetCircuit(arity * total, _inverted_gates(seq) if daggered else tuple(seq),
                             kind, arity)

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

        def shift(gs, off):
            return [Gate(g.kind, tuple(q + off for q in g.qubits), g.theta_over_pi) for g in gs]

        half: list[Gate] = []
        for g in lc:
            start, inner = layout.block(g.qubits[0])
            half += self._on_blocks(inner, (start,), g.kind, context=(
                " (staircase normalisation inside the coupling region must stay transversal)"))
        for a, b in zip(support, support[1:]):
            half.extend(self._layout_cnot(layout, a, b))

        # one physical C^kZ(theta) across the collector qubit of each
        # operand; on encoded collectors, the inner code's logical one
        collector = gates.diagonal_gate(tuple(range(k + 1)), theta)
        start, inner = layout.block(support[-1])
        collector_gates = self._on_blocks(
            inner, tuple(b * total + start for b in range(k + 1)), collector.kind,
            collector.theta_over_pi, context=" (collector of the staircase)")

        compute = tuple(g for b in range(k + 1) for g in shift(half, b * total))
        gate_list = compute + tuple(collector_gates) + _inverted_gates(compute)

        label = collector.kind
        if label in (gates.Z_THETA, gates.CKZ_THETA):
            label += f"({gates.format_theta(theta)})"
        return GadgetCircuit((k + 1) * total, gate_list, label, k + 1)

    def _layout_cnot(self, layout: Layout, ctrl: int, targ: int) -> list[Gate]:
        (cs, ci), (ts, ti) = layout.block(ctrl), layout.block(targ)
        if ci.name != ti.name:
            raise SynthesisError(
                f"staircase CNOT couples outer qubits {ctrl} and {targ} with "
                f"mismatched encodings ({ci.name} vs {ti.name})")
        return self._on_blocks(ci, (cs, ts), gates.CNOT)


# -- circuit text ------------------------------------------------------------------

def circuit_to_text(c: GadgetCircuit) -> str:
    lines = [f"circuit {c.label}",
             f"register {c.register_size}",
             "blocks " + " ".join(f"{off}:{length}" for off, length in c.blocks)]
    lines.extend(str(g) for g in c.gates)
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> GadgetCircuit:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if len(lines) < 3 or not lines[0].startswith("circuit "):
        raise ValueError("bad circuit file header")
    label = lines[0].removeprefix("circuit ").strip()
    register = gates.parse_index(lines[1].removeprefix("register "), "circuit", lines[1],
                                 "'register N'")
    blocks = lines[2].removeprefix("blocks ").split()
    size = register // max(len(blocks), 1)
    tiling = [f"{b * size}:{size}" for b in range(len(blocks))]
    if size * len(blocks) != register or blocks != tiling:
        raise ValueError(f"blocks {' '.join(blocks)} do not tile the register of {register} "
                         f"in order")
    gate_list = []
    for line in lines[3:]:
        kind, *tokens = line.split()
        qubits = tuple(gates.parse_index(tok, "circuit", line, "'KIND QUBIT ... [theta=ANGLE]'")
                       for tok in tokens if not tok.startswith("theta="))
        try:
            thetas = [gates.parse_theta(tok.removeprefix("theta="))
                      for tok in tokens if tok.startswith("theta=")]
            if len(thetas) > 1:
                raise ValueError("more than one angle")
            gate_list.append(Gate(kind, qubits, *thetas))
        except ValueError as exc:
            raise ValueError(f"bad circuit line {line!r}: {exc}") from None
    return GadgetCircuit(register, tuple(gate_list), label, len(blocks))
