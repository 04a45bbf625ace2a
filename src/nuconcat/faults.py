"""Exhaustive fault injection: enumerate locations, propagate Pauli faults
through gadgets (with a branching envelope at non-Clifford gates),
hierarchically decode, and search for minimum uncorrectable fault sets.

Fault model: one Pauli fault at a gate output (all nontrivial Paulis on
the gate's qubits) or on a register input; idle locations are excluded,
so results read "under the gate-fault model".  Non-Clifford diagonal
gates branch a passing X-component into the set {P * Z^S} over subsets S
of the gate's qubits, a sound superset of the exact conjugation support.

Pair search screens with per-fault end-branch products (sound envelope,
syndrome data is linear so products are cheap) and confirms candidates by
propagating both faults jointly through the same envelope before
reporting.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

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

@lru_cache(maxsize=None)
def _xz_table(kind: str) -> dict[tuple[int, int], tuple[int, int]]:
    """Phase-free local conjugation table for a Clifford gate kind."""
    table = {}
    for (lx, lz), image in gates._local_table(kind).items():
        table[(lx, lz)] = (image.x, image.z)
    return table


def _extract(mask: int, qubits: tuple[int, ...]) -> int:
    out = 0
    for i, q in enumerate(qubits):
        out |= ((mask >> q) & 1) << i
    return out


def _deposit(local: int, qubits: tuple[int, ...]) -> int:
    out = 0
    for i, q in enumerate(qubits):
        out |= ((local >> i) & 1) << q
    return out


def propagate(circuit: GadgetCircuit,
              faults: Iterable[tuple[int, int, int]]) -> tuple[set[tuple[int, int]], bool]:
    """Push faults ``(place, x, z)`` jointly to the end of the gadget.

    A fault at place p enters just after gate p (-1 = register input);
    faults at the same place are multiplied.  Returns (set of
    end-of-circuit (x, z) masks, whether propagation stayed
    deterministic).  Every place must lie in [-1, len(gates)).
    """
    n_gates = len(circuit.gates)
    injected: dict[int, tuple[int, int]] = {}
    for place, x, z in faults:
        if not -1 <= place < n_gates:
            raise ValueError(f"fault place {place} outside [-1, {n_gates})")
        px, pz = injected.get(place, (0, 0))
        injected[place] = (px ^ x, pz ^ z)
    if not injected:
        raise ValueError("no fault to propagate")
    start = min(injected)
    branches = {injected.pop(start)}
    deterministic = True
    for gi in range(start + 1, n_gates):
        g = circuit.gates[gi]
        if g.is_clifford:
            table = _xz_table(g.kind)
            qs = g.qubits
            qmask = _deposit((1 << len(qs)) - 1, qs)
            moved = set()
            for bx, bz in branches:
                lx, lz = _extract(bx, qs), _extract(bz, qs)
                if lx == 0 and lz == 0:
                    moved.add((bx, bz))
                    continue
                ix, iz = table[(lx, lz)]
                moved.add(((bx & ~qmask) | _deposit(ix, qs),
                           (bz & ~qmask) | _deposit(iz, qs)))
            branches = moved
        elif g.is_diagonal:
            qs = g.qubits
            qmask = _deposit((1 << len(qs)) - 1, qs)
            moved = set()
            for bx, bz in branches:
                if bx & qmask:
                    deterministic = False
                    for sub in range(1 << len(qs)):
                        moved.add((bx, bz ^ _deposit(sub, qs)))
                else:
                    moved.add((bx, bz))
            branches = moved
        else:
            raise ValueError(f"cannot propagate through {g.kind}")
        if injected and gi in injected:
            ex, ez = injected.pop(gi)
            branches = {(bx ^ ex, bz ^ ez) for bx, bz in branches}
        if len(branches) > BRANCH_CAP:
            raise BudgetError(f"branch set exceeded {BRANCH_CAP}")
    return branches, deterministic


# -- fast hierarchical decoding over (x, z) masks -----------------------------------

class DecodeContext:
    """Precomputed bit-mask pipeline for hierarchical decoding of a layout."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self.total_n = layout.total_n
        self.blocks: list[tuple[int, int, object | None]] = []  # (start, width, inner key)
        self.inner: dict[str, dict] = {}
        for q in range(layout.outer.n):
            start, code = layout.block(q)
            if code is None:
                self.blocks.append((start, 1, None))
            else:
                self.blocks.append((start, code.n, code.name))
                if code.name not in self.inner:
                    self.inner[code.name] = self._code_tables(code)
        self.outer = self._code_tables(layout.outer)

    @staticmethod
    def _code_tables(code: StabilizerCode) -> dict:
        decoder = build_decoder(code)
        gens = [(g.x, g.z) for g in code.generators]
        lx, lz = code.logical_x, code.logical_z
        synd_class = {}
        for s, corr in decoder.table.items():
            synd_class[s] = (int(not corr.commutes(lz)), int(not corr.commutes(lx)))
        return {"gens": gens, "synd_class": synd_class,
                "lx": (lx.x, lx.z), "lz": (lz.x, lz.z), "n": code.n}

    @staticmethod
    def _syndrome(tables: dict, x: int, z: int) -> int:
        s = 0
        for i, (gx, gz) in enumerate(tables["gens"]):
            if ((gx & z).bit_count() + (gz & x).bit_count()) & 1:
                s |= 1 << i
        return s

    @staticmethod
    def _class_parities(tables: dict, x: int, z: int) -> tuple[int, int]:
        lxx, lxz = tables["lx"]
        lzx, lzz = tables["lz"]
        anti_z = ((lzx & z).bit_count() + (lzz & x).bit_count()) & 1
        anti_x = ((lxx & z).bit_count() + (lxz & x).bit_count()) & 1
        return anti_z, anti_x

    _CLASS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    _LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

    def decode(self, x: int, z: int) -> str:
        """Outer residual class of a physical (x, z) error."""
        ox = oz = 0
        for q, (start, width, key) in enumerate(self.blocks):
            if key is None:
                xb, zb = (x >> start) & 1, (z >> start) & 1
            else:
                tables = self.inner[key]
                mask = (1 << width) - 1
                bx, bz = (x >> start) & mask, (z >> start) & mask
                if bx == 0 and bz == 0:
                    continue
                s = self._syndrome(tables, bx, bz)
                caz, cax = tables["synd_class"][s]
                ez, ex = self._class_parities(tables, bx, bz)
                xb, zb = self._LETTER_BITS[self._CLASS[(caz ^ ez, cax ^ ex)]]
            ox |= xb << q
            oz |= zb << q
        s = self._syndrome(self.outer, ox, oz)
        caz, cax = self.outer["synd_class"][s]
        ez, ex = self._class_parities(self.outer, ox, oz)
        return self._CLASS[(caz ^ ez, cax ^ ex)]


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
    witness_branch: tuple[int, int] | None = None
    witness_residual: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def check_single_fault_ft(layout: Layout, circuit: GadgetCircuit) -> FaultReport:
    """Exhaustive single-fault campaign; every branch must decode to I."""
    ctx = _context_for(circuit, layout)
    locations = enumerate_locations(circuit)
    report = FaultReport(layout.fingerprint(), circuit.label, len(locations), 0)
    for loc in locations:
        branches, _ = propagate(circuit, ((loc.place, loc.x, loc.z),))
        report.branches_checked += len(branches)
        for bx, bz in sorted(branches):
            residual = _decode_operands(ctx, bx, bz)
            if residual != "I":
                report.failures.append(Failure((loc.index,), (bx, bz), residual))
    if report.failures:
        report.min_uncorrectable_size = 1
        first = report.failures[0]
        report.witness = (locations[first.locations[0]],)
        report.witness_branch = first.branch
        report.witness_residual = first.residual
    return report


def _context_for(circuit: GadgetCircuit, layout: Layout) -> list[tuple[int, DecodeContext]]:
    """One decode context per logical operand block of the gadget."""
    ctx = []
    shared = DecodeContext(layout)
    for off, length in circuit.blocks:
        if length != layout.total_n:
            raise ValueError("gadget blocks do not match the layout")
        ctx.append((off, shared))
    return ctx


def _decode_operands(ctx: list[tuple[int, DecodeContext]], x: int, z: int) -> str:
    """I only when every operand block decodes to I."""
    for off, dc in ctx:
        mask = (1 << dc.total_n) - 1
        res = dc.decode((x >> off) & mask, (z >> off) & mask)
        if res != "I":
            return res
    return "I"


def pair_budget(circuit: GadgetCircuit) -> int:
    n_locs = len(enumerate_locations(circuit))
    return n_locs * (n_locs - 1) // 2


def find_min_uncorrectable(layout: Layout, circuit: GadgetCircuit,
                           max_faults: int = 2, budget: int = 20_000_000) -> FaultReport:
    """Deterministic lexicographic scan of fault pairs.

    Screens with products of per-fault end branches (a sound envelope:
    conjugation is multiplicative and the branch sets only widen), then
    confirms the first candidate by joint propagation of both faults
    through the same envelope.
    """
    if max_faults != 2:
        raise ValueError("only pair search is supported")
    est = pair_budget(circuit)
    if est > budget:
        raise BudgetError(f"pair search needs {est} pairs, budget is {budget}")
    ctx = _context_for(circuit, layout)
    locations = enumerate_locations(circuit)
    ends: list[list[tuple[int, int]]] = []
    for loc in locations:
        branches, _ = propagate(circuit, ((loc.place, loc.x, loc.z),))
        ends.append(sorted(branches))

    report = FaultReport(layout.fingerprint(), circuit.label,
                         len(locations), sum(len(e) for e in ends))
    for i in range(len(locations)):
        for j in range(i + 1, len(locations)):
            hit = None
            for bx1, bz1 in ends[i]:
                for bx2, bz2 in ends[j]:
                    residual = _decode_operands(ctx, bx1 ^ bx2, bz1 ^ bz2)
                    if residual != "I":
                        hit = ((bx1 ^ bx2, bz1 ^ bz2), residual)
                        break
                if hit:
                    break
            if not hit:
                continue
            confirmed = _confirm_pair(ctx, circuit, locations[i], locations[j])
            if confirmed is not None:
                report.failures.append(Failure((i, j), confirmed[0], confirmed[1]))
                report.min_uncorrectable_size = 2
                report.witness = (locations[i], locations[j])
                report.witness_branch = confirmed[0]
                report.witness_residual = confirmed[1]
                return report
    report.min_uncorrectable_size = "none <= 2"
    return report


def _confirm_pair(ctx, circuit: GadgetCircuit, a: FaultLocation,
                  b: FaultLocation) -> tuple[tuple[int, int], str] | None:
    """Joint propagation of a candidate pair through the branch envelope;
    first failing branch."""
    branches, _ = propagate(circuit, ((a.place, a.x, a.z), (b.place, b.x, b.z)))
    for bx, bz in sorted(branches):
        residual = _decode_operands(ctx, bx, bz)
        if residual != "I":
            return (bx, bz), residual
    return None


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
            rep = find_min_uncorrectable(layout, c, 2, budget)
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
