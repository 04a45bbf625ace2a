"""Exhaustive fault injection: enumerate locations, propagate Pauli faults
through gadgets (with a branching envelope at non-Clifford gates),
hierarchically decode, and search for minimum uncorrectable fault sets.

Fault model: one Pauli fault at a gate output (all nontrivial Paulis on
the gate's qubits) or on a register input; idle locations are excluded,
so results read "under the gate-fault model".  Non-Clifford diagonal
gates branch a passing X-component into the set {P * Z^S} over subsets S
of the gate's qubits, a sound superset of the exact conjugation support.

Propagation is one batched Pauli-frame walk (after Gidney's Stim,
arXiv:2103.02202).  Each row of the frame is one branch of one fault
group, held as packed uint64 x/z words plus the index of its group.  The
circuit is walked once for the whole batch: a group's faults are XORed
into its rows at their places, a Clifford gate is a table lookup on the
gate's bits of every row, and a diagonal gate expands the rows with X on
its qubits over Z^S, after merging the rows of one group that differ
only in the gate's z bits.  A single-fault campaign walks every location
as its own group; a pair confirmation and ``replay`` walk their faults as
one group.

Decoding is table-driven on the same rows: ``DecodeContext.decode`` maps
the rows of a walk to residual classes.  For every operand block and
outer qubit, the inner syndrome and the anticommutation with the inner
logical Z and X are popcounts against the generator words (``data``).
They are linear, so the values of a product of branches are the XOR of
theirs.  A per-code class array from the lookup decoder turns them into
the outer letter; the same popcounts and lookup on the outer letters
give the residual (``residuals``).

Pair search screens with per-fault end-branch products (sound envelope)
and confirms candidates by walking both faults as one group through the
same envelope and decoding its rows before reporting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gates
from .circuits import GadgetCircuit
from .codes import StabilizerCode, build_decoder
from .concat import Layout
from .pauli import Pauli

BRANCH_CAP = 1 << 16


class BudgetError(RuntimeError):
    """Search-space estimate exceeds the configured budget."""


@dataclass(frozen=True)
class FaultLocation:
    index: int
    place: int      # -1 = register input, else after gate `place`
    x: int          # injected Pauli, bit-mask form
    z: int

    def pauli(self, n: int) -> Pauli:
        return Pauli(n, self.x, self.z, 0)

    def describe(self, circuit: GadgetCircuit) -> str:
        where = "input" if self.place < 0 else f"after gate {self.place} ({circuit.gates[self.place]})"
        return f"{self.pauli(circuit.register_size)} {where}"


def enumerate_locations(circuit: GadgetCircuit) -> list[FaultLocation]:
    """Register-input faults (3 per qubit) plus every nontrivial Pauli on
    every gate's output qubits."""
    locs: list[FaultLocation] = []
    idx = 0
    for q in range(circuit.register_size):
        for xb, zb in ((1, 0), (1, 1), (0, 1)):
            locs.append(FaultLocation(idx, -1, xb << q, zb << q))
            idx += 1
    for gi, g in enumerate(circuit.gates):
        qs = g.qubits
        for pattern in range(1, 1 << (2 * len(qs))):
            x = z = 0
            for i, q in enumerate(qs):
                x |= ((pattern >> (2 * i)) & 1) << q
                z |= ((pattern >> (2 * i + 1)) & 1) << q
            locs.append(FaultLocation(idx, gi, x, z))
            idx += 1
    return locs


# -- propagation -----------------------------------------------------------------

def _pack(masks: Iterable[int], n_words: int) -> np.ndarray:
    """Int bit-masks as rows of ``n_words`` little-endian uint64 words."""
    data = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(-1, n_words).astype(np.uint64)


def _unpack(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def _qubit_mask(qubits: Iterable[int]) -> int:
    return sum(1 << q for q in qubits)


@lru_cache(maxsize=None)
def _clifford_flips(kind: str) -> np.ndarray:
    """Bits a Clifford kind flips, indexed by the local Pauli x | z << k
    on its k qubits (phases dropped)."""
    k = gates.ARITY[kind]
    flips = np.zeros(1 << (2 * k), np.uint64)
    for (lx, lz), image in gates._local_table(kind).items():
        flips[lx | lz << k] = (lx ^ image.x) | (lz ^ image.z) << k
    flips.flags.writeable = False
    return flips


class _Frame:
    """Branches of a batch of fault groups, one row per branch."""

    def __init__(self, n_words: int, n_groups: int):
        self.n_words = n_words
        self.x = np.zeros((0, n_words), np.uint64)
        self.z = np.zeros((0, n_words), np.uint64)
        self.owner = np.zeros(0, np.intp)
        self.started = np.zeros(n_groups, bool)
        self.deterministic = np.ones(n_groups, bool)

    def branch(self, row: int) -> tuple[int, int]:
        """The (x, z) masks of one row."""
        return _unpack(self.x[row]), _unpack(self.z[row])

    def inject(self, faults: dict[int, tuple[int, int]]) -> None:
        """XOR each group's fault into its rows; a group's first fault is
        its first row."""
        owners = np.fromiter(faults, np.intp, len(faults))
        fx = _pack((x for x, _ in faults.values()), self.n_words)
        fz = _pack((z for _, z in faults.values()), self.n_words)
        old = self.started[owners]
        if old.any():
            ex = np.zeros((len(self.started), self.n_words), np.uint64)
            ez = np.zeros_like(ex)
            ex[owners[old]] = fx[old]
            ez[owners[old]] = fz[old]
            self.x ^= ex[self.owner]
            self.z ^= ez[self.owner]
        new = ~old
        self.x = np.concatenate([self.x, fx[new]])
        self.z = np.concatenate([self.z, fz[new]])
        self.owner = np.concatenate([self.owner, owners[new]])
        self.started[owners] = True

    def clifford(self, g: gates.Gate) -> None:
        # (plane, word, bit) of the gate's x bits, then its z bits
        bits = [(plane, q >> 6, q & 63) for plane in (self.x, self.z) for q in g.qubits]
        local = np.zeros(len(self.owner), np.uint64)
        for i, (plane, w, b) in enumerate(bits):
            local |= ((plane[:, w] >> b) & 1) << i
        flips = _clifford_flips(g.kind)[local]
        for i, (plane, w, b) in enumerate(bits):
            plane[:, w] ^= ((flips >> i) & 1) << b

    def diagonal(self, g: gates.Gate) -> None:
        """Expand rows with X on the gate's qubits over Z^S."""
        gmask = _pack([_qubit_mask(g.qubits)], self.n_words)[0]
        hit = (self.x & gmask).any(axis=1)
        if not hit.any():
            return
        self.deterministic[self.owner[hit]] = False
        # Rows of one group that differ only in the gate's z bits expand
        # to the same rows: merge them first, by sorting (np.unique would
        # import numpy.ma, about 0.7 MB, on first use).
        w = self.n_words
        keys = np.column_stack([self.owner[hit].astype(np.uint64), self.x[hit],
                                self.z[hit] & ~gmask])
        keys = keys[np.lexsort(keys.T)]
        keys = keys[np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)])]
        n_sub = 1 << len(g.qubits)
        subsets = _pack((_qubit_mask(q for i, q in enumerate(g.qubits) if (s >> i) & 1)
                         for s in range(n_sub)), w)
        keep = ~hit
        self.x = np.concatenate([self.x[keep], np.repeat(keys[:, 1:1 + w], n_sub, axis=0)])
        self.z = np.concatenate([self.z[keep],
                                 (keys[:, None, 1 + w:] | subsets).reshape(-1, w)])
        self.owner = np.concatenate([self.owner[keep],
                                     np.repeat(keys[:, 0].astype(np.intp), n_sub)])
        if np.bincount(self.owner).max() > BRANCH_CAP:
            raise BudgetError(f"branch set exceeded {BRANCH_CAP}")


def propagate(circuit: GadgetCircuit, faults: Iterable[tuple[int, int, int, int]]) -> _Frame:
    """Push faults ``(group, place, x, z)`` to the end of the gadget, the
    faults of each group jointly, in one pass over the gates.

    Groups are numbered from 0.  A fault at place p enters just after
    gate p (-1 = register input); faults of one group at one place are
    multiplied.  Every place must lie in [-1, len(gates)) and every fault
    on the register.  Returns the frame: end-of-circuit rows ``x`` and
    ``z``, the group of each row in ``owner``, and per group whether
    propagation stayed ``deterministic``.  ``BRANCH_CAP`` bounds the
    branches of each group; only diagonal gates add branches, so it is
    checked after each.
    """
    n_gates = len(circuit.gates)
    injected: dict[int, dict[int, tuple[int, int]]] = {}   # place -> group -> fault
    n_groups = 0
    for owner, place, x, z in faults:
        if not -1 <= place < n_gates:
            raise ValueError(f"fault place {place} outside [-1, {n_gates})")
        if x < 0 or z < 0 or (x | z) >> circuit.register_size:
            raise ValueError(f"fault acts outside the register of {circuit.register_size} qubits")
        at = injected.setdefault(place, {})
        if owner in at:
            x, z = x ^ at[owner][0], z ^ at[owner][1]
        at[owner] = (x, z)
        n_groups = max(n_groups, owner + 1)
    if not n_groups:
        raise ValueError("no fault to propagate")
    frame = _Frame((circuit.register_size + 63) // 64, n_groups)
    for place in range(-1, n_gates):
        if place >= 0 and len(frame.owner):
            g = circuit.gates[place]
            if g.is_clifford:
                frame.clifford(g)
            elif g.is_diagonal:
                frame.diagonal(g)
            else:
                raise ValueError(f"cannot propagate through {g.kind}")
        if place in injected:
            frame.inject(injected.pop(place))
    return frame


# -- table-driven hierarchical decoding ------------------------------------------------

RESIDUAL = "IXZY"   # class bits: 1 = anticommutes with logical Z, 2 = with logical X


def _check_masks(code: StabilizerCode) -> list[int]:
    """Symplectic masks z | x << n of the generators, then logical Z, then
    logical X: an error e = ex | ez << n anticommutes with check j iff
    e & mask_j has odd weight."""
    return [p.z | p.x << code.n for p in (*code.generators, code.logical_z, code.logical_x)]


def _block_words(errors: np.ndarray, masks: list[int]) -> np.ndarray:
    """Per symplectic error, bit j = its anticommutation with check j: the
    syndrome in the low bits, then the logical-Z and logical-X parities.
    Codes have at most 15 qubits (``build_decoder``), so 16 bits suffice."""
    word = np.zeros(len(errors), np.uint16)
    for j, m in enumerate(masks):
        word |= (np.bitwise_count(errors & m) & 1).astype(np.uint16) << j
    return word


def _letters(code: StabilizerCode) -> np.ndarray:
    """Residual class after lookup decoding, indexed by block word."""
    return build_decoder(code).residual_classes


def _field(plane: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bits start .. start + width - 1 of every row (width < 64)."""
    w, b = start >> 6, start & 63
    out = plane[:, w] >> b
    if b + width > 64:
        out |= plane[:, w + 1] << (64 - b)
    return out & ((1 << width) - 1)


class DecodeContext:
    """Inner-then-outer lookup decoding of every operand block of a
    register, on rows of packed (x, z) words.  ``blocks`` lists the
    (offset, length) of each operand.

    ``data`` maps rows to one block word per (operand, outer qubit)
    column; the words are linear in (x, z).  ``residuals`` maps block
    words to the residual class: I only when every operand decodes to I,
    else the class of the first operand that does not.  ``decode`` is the
    two in turn.
    """

    def __init__(self, layout: Layout, blocks: Sequence[tuple[int, int]]):
        n = layout.outer.n
        tables = {}
        self.columns = []   # (start, width, check masks) per block word
        self.letters = []   # residual class by block word, per block word
        for off, length in blocks:
            if length != layout.total_n:
                raise ValueError("gadget blocks do not match the layout")
            for q in range(n):
                start, code = layout.block(q)
                if code not in tables:
                    tables[code] = _check_masks(code), _letters(code)
                masks, letters = tables[code]
                self.columns.append((off + start, code.n, masks))
                self.letters.append(letters)
        self.n_operands = len(blocks)
        # outer letter on outer qubit q -> its bits of the outer error x | z << n
        self.spread = [np.array([0, 1 << q, 1 << (q + n), 1 << q | 1 << (q + n)], np.uint64)
                       for q in range(n)]
        self.outer_masks = _check_masks(layout.outer)
        self.outer_letters = _letters(layout.outer)

    def data(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Block words of rows of packed x and z words, (rows, columns)."""
        out = np.empty((len(x), len(self.columns)), np.uint16)
        for k, (start, width, masks) in enumerate(self.columns):
            errors = _field(x, start, width) | _field(z, start, width) << width
            out[:, k] = _block_words(errors, masks)
        return out

    def residuals(self, data: np.ndarray) -> np.ndarray:
        """Residual class per row of block words; 0 = I."""
        n = len(self.spread)
        out = np.zeros(len(data), np.uint8)
        for op in range(self.n_operands):
            outer = np.zeros(len(data), np.uint64)
            for q in range(n):
                k = op * n + q
                outer |= self.spread[q][self.letters[k][data[:, k]]]
            residual = self.outer_letters[_block_words(outer, self.outer_masks)]
            out = np.where(out != 0, out, residual)
        return out

    def decode(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Residual class per row of packed x and z words; 0 = I."""
        return self.residuals(self.data(x, z))


# -- reports --------------------------------------------------------------------

@dataclass
class Failure:
    locations: tuple[int, ...]
    branch: tuple[int, int]
    residual: str


@dataclass
class FaultReport:
    layout: str
    gadget: str
    locations_checked: int
    branches_checked: int
    failures: list[Failure] = field(default_factory=list)
    min_uncorrectable_size: int | str = "none <= 1"
    witness: tuple[FaultLocation, ...] | None = None
    witness_residual: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def check_single_fault_ft(layout: Layout, circuit: GadgetCircuit) -> FaultReport:
    """Exhaustive single-fault campaign; every branch must decode to I.
    Failures are ordered by location, then by branch (x, z)."""
    ctx = DecodeContext(layout, circuit.blocks)
    locations = enumerate_locations(circuit)
    frame = propagate(circuit, ((loc.index, loc.place, loc.x, loc.z) for loc in locations))
    report = FaultReport(layout.descriptor, circuit.label, len(locations), len(frame.owner))
    residual = ctx.decode(frame.x, frame.z)
    failing = sorted((int(frame.owner[r]), *frame.branch(r), RESIDUAL[residual[r]])
                     for r in np.flatnonzero(residual))
    report.failures = [Failure((i,), (x, z), res) for i, x, z, res in failing]
    if report.failures:
        report.min_uncorrectable_size = 1
        first = report.failures[0]
        report.witness = (locations[first.locations[0]],)
        report.witness_residual = first.residual
    return report


def find_min_uncorrectable(layout: Layout, circuit: GadgetCircuit,
                           budget: int = 20_000_000) -> FaultReport:
    """Deterministic lexicographic scan of fault pairs.

    For each i, screens every j > i at once with the XOR of the block
    words of their end branches (a sound envelope: conjugation is
    multiplicative and the branch sets only widen), then confirms the
    candidates in order of j with ``_confirm_pair``; the first confirmed
    pair is the witness.
    """
    locations = enumerate_locations(circuit)
    est = len(locations) * (len(locations) - 1) // 2
    if est > budget:
        raise BudgetError(f"pair search needs {est} pairs, budget is {budget}")
    ctx = DecodeContext(layout, circuit.blocks)
    frame = propagate(circuit, ((loc.index, loc.place, loc.x, loc.z) for loc in locations))
    order = np.argsort(frame.owner, kind="stable")
    owner = frame.owner[order]
    data = ctx.data(frame.x[order], frame.z[order])
    bounds = np.searchsorted(owner, np.arange(len(locations) + 1))

    report = FaultReport(layout.descriptor, circuit.label, len(locations), len(owner))
    for i in range(len(locations)):
        lo, hi = bounds[i], bounds[i + 1]
        later = data[hi:]
        hit = np.zeros(len(later), bool)
        for row in data[lo:hi]:
            hit |= ctx.residuals(later ^ row) != 0
        for j in np.flatnonzero(np.bincount(owner[hi:][hit])):
            confirmed = _confirm_pair(ctx, circuit, locations[i], locations[j])
            if confirmed is not None:
                report.failures.append(Failure((i, int(j)), confirmed[0], confirmed[1]))
                report.min_uncorrectable_size = 2
                report.witness = (locations[i], locations[j])
                report.witness_residual = confirmed[1]
                return report
    report.min_uncorrectable_size = "none <= 2"
    return report


def _confirm_pair(ctx: DecodeContext, circuit: GadgetCircuit, a: FaultLocation,
                  b: FaultLocation) -> tuple[tuple[int, int], str] | None:
    """Walk a candidate pair as one group through the branch envelope and
    decode its rows; the least failing (x, z) branch and its residual, or
    None when every branch decodes to I."""
    frame = propagate(circuit, ((0, a.place, a.x, a.z), (0, b.place, b.x, b.z)))
    residual = ctx.decode(frame.x, frame.z)
    failing = [(*frame.branch(r), r) for r in np.flatnonzero(residual)]
    if not failing:
        return None
    x, z, r = min(failing)
    return (x, z), RESIDUAL[residual[r]]


@dataclass
class EffectiveDistanceResult:
    value: int | None           # 3, 1, or None for "no witness found"
    statement: str
    single_fault_reports: list[FaultReport]
    witness_report: FaultReport | None = None


def effective_distance_report(layout: Layout, gadget_set: list[GadgetCircuit],
                              budget: int = 20_000_000) -> EffectiveDistanceResult:
    """Single-fault suites over every gadget, then a pair search until a
    witness appears.  3 = all single faults pass and some pair fails;
    1 = a single fault already fails (the construction is broken); None =
    no witness, with the statement naming any gadget whose pair search
    the budget refused."""
    singles = []
    refused = []
    for c in gadget_set:
        rep = check_single_fault_ft(layout, c)
        singles.append(rep)
        if not rep.passed:
            return EffectiveDistanceResult(
                1, f"single fault uncorrectable in {c.label}", singles, rep)
    for c in gadget_set:
        try:
            rep = find_min_uncorrectable(layout, c, budget)
        except BudgetError:
            refused.append(c.label)
            continue
        if rep.witness is not None:
            return EffectiveDistanceResult(
                3, f"2-fault witness in {c.label}", singles, rep)
    if refused:
        return EffectiveDistanceResult(
            None, "single faults pass; pair search refused by the budget for "
            + ", ".join(refused), singles, None)
    return EffectiveDistanceResult(
        None, ">= 3, no witness within gadget set", singles, None)
