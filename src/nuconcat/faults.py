"""Exhaustive fault injection: enumerate locations, propagate Pauli faults
through gadgets (with a branching envelope at non-Clifford gates),
hierarchically decode, and search for minimum uncorrectable fault sets.

Fault model: one Pauli fault at a gate output (all nontrivial Paulis on
the gate's qubits) or on a register input; idle locations are excluded,
so results read "under the gate-fault model".  Non-Clifford diagonal
gates branch a passing X-component into the set {P * Z^S} over subsets S
of the gate's qubits, a sound superset of the exact conjugation support.

One ``Campaign`` per gadget walks every location as its own group
(``_Frame``) and decodes its end rows (``DecodeContext``) for both suites.
A diagonal gate is hit by a group when one of its rows has X on the
gate's qubits as it passes; the row walks on as one key for its span of
Z^S, written out once, at the end.  Unless a gate is hit by both a
and b, their joint walk's rows are exactly the products of their end
rows, as sets (a gate only a hits expands r_a * r_b as it expands r_a),
so pair verdicts are exact by product; only pairs that share a hit gate
are walked.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import gates
from .circuits import GadgetCircuit
from .codes import build_decoder
from .concat import Layout
from .pauli import LETTERS, Pauli

BRANCH_CAP = 1 << 16
PAIR_BUDGET = 20_000_000   # default bound on the pairs one search may scan
PAIR_BLOCK = 1 << 16       # row pairs one screen step holds (it takes at least one first row)


class BudgetError(RuntimeError):
    """A refused search: pairs over the pair budget, or a group's rows over the fixed ``BRANCH_CAP``."""


@dataclass(frozen=True)
class FaultLocation:
    index: int
    place: int      # -1 = register input, else after gate `place`
    x: int          # injected Pauli, bit-mask form
    z: int

    def pauli(self, n: int) -> Pauli:
        return Pauli.hermitian(n, self.x, self.z)

    def describe(self, circuit: GadgetCircuit) -> str:
        where = "input" if self.place < 0 else f"after gate {self.place} ({circuit.gates[self.place]})"
        return f"{self.pauli(circuit.register_size)} {where}"


# -- locations -------------------------------------------------------------------

@dataclass(frozen=True)
class Locations:
    """Fault locations by index: ``place``, and Paulis as word-major x and
    z planes in ``xz``, (2, words, locations)."""

    place: np.ndarray
    xz: np.ndarray

    def __len__(self) -> int:
        return len(self.place)

    def __getitem__(self, i: int) -> FaultLocation:
        return FaultLocation(int(i), int(self.place[i]), *(gates.unpack(p[:, i]) for p in self.xz))


def enumerate_locations(circuit: GadgetCircuit) -> Locations:
    """Register-input faults (X, Y, Z per qubit) plus every nontrivial
    Pauli on every gate's output qubits."""
    n = circuit.register_size
    qubits = [g.qubits for g in circuit.gates]
    arity = np.array([len(qs) for qs in qubits], np.intp)
    sizes = np.concatenate([np.full(n, 3), (1 << 2 * arity) - 1])
    start = np.concatenate([[0], np.cumsum(sizes)])
    place = np.repeat(np.arange(-1, len(qubits)), np.concatenate([[3 * n], sizes[n:]]))
    xz = np.zeros((2, (n + 63) // 64, start[-1]), np.uint64)
    # (qubits, first location, patterns); pattern bit 2i = x, 2i + 1 = z of qubit i
    blocks = [(np.arange(n)[:, None], start[:n], np.array([1, 3, 2], np.uint64))]
    for k in np.flatnonzero(np.bincount(arity)):
        gis = np.flatnonzero(arity == k)
        blocks.append((np.array([qubits[gi] for gi in gis]), start[n + gis],
                       np.arange(1, 1 << 2 * k, dtype=np.uint64)))
    for qs, first, patterns in blocks:   # flat indices word * locations + row beat a 2-D index
        rows = first[:, None] + np.arange(len(patterns))
        for i in range(qs.shape[1]):
            at = (qs[:, i, None] >> 6) * len(place) + rows
            bit = (qs[:, i, None] & 63).astype(np.uint64)
            for c, plane in enumerate(xz.reshape(2, -1)):
                plane[at] |= ((patterns >> 2 * i + c) & 1) << bit
    return Locations(place, xz)


# -- propagation -----------------------------------------------------------------

class _Frame:
    """A Pauli frame after Stim (arXiv:2103.02202).  Row r is the Pauli (x[:, r], z[:, r]) of
    group owner[r]; row g < ``n_groups`` is group g's slot, its lowest row.  A row that a
    diagonal layer hits stays in its slot as a key for its span: itself XOR any sum of its
    directions, which Clifford layers walk in front of the rows until ``expand`` writes the
    spans after the slots.  Once expanded, a group is ``deterministic``, one row, exactly when
    no gate hit it.  ``hits``: per gate that hit rows, each hit row's owner, in slot order."""

    def __init__(self, n_words: int, n_groups: int):
        self._xz = np.zeros((2, n_words, n_groups), np.uint64)   # directions, rows, room
        self._key = np.empty(0, np.intp)   # per direction, its key's row
        self.owner, self.n_groups, self.hits = np.arange(n_groups), n_groups, []

    rows = property(lambda self: len(self.owner))
    _rows = property(lambda self: self._xz[:, :, len(self._key):len(self._key) + self.rows])
    x = property(lambda self: self._rows[0])
    z = property(lambda self: self._rows[1])
    deterministic = property(lambda self: np.bincount(self.owner, minlength=self.n_groups) == 1)

    def branch(self, row: int) -> tuple[int, int]:
        """The (x, z) masks of one row."""
        return gates.unpack(self.x[:, row]), gates.unpack(self.z[:, row])

    def inject(self, groups: slice | np.ndarray, fxz: np.ndarray) -> None:
        """XOR fault column i into group groups[i]'s slot and any rows ``expand`` wrote for it."""
        self._rows[:, :, groups] ^= fxz
        if self.rows > self.n_groups:
            lookup = np.full(self.n_groups, -1)
            lookup[groups] = np.arange(fxz.shape[2])
            fault = lookup[self.owner[self.n_groups:]]
            rows = np.flatnonzero(fault >= 0)
            self._rows[:, :, self.n_groups + rows] ^= fxz[:, :, fault[rows]]

    def clifford(self, layer: Sequence[gates.Gate]) -> None:
        gates.conjugate_rows(*self._xz[:, :, :len(self._key) + self.rows], layer)

    def expand(self) -> None:
        """Write every span into the room after the rows, by dimension, then subset s =
        1 .. 2^dim - 1, a row per key: the key XOR its directions i with bit i of s set.
        Exact, as conjugation and ``inject`` are XOR-linear."""
        n, first = len(self._key), np.flatnonzero(np.diff(self._key, prepend=-1))
        keys, dims = self._key[first], np.diff(first, append=n)   # a key's directions sit together
        dirs, self._xz, self._key = self._xz[:, :, :n], self._xz[:, :, n:], self._key[:0]
        for d in np.flatnonzero(np.bincount(dims)):
            of, lead, m = keys[dims == d], first[dims == d], (1 << d) - 1
            span = self._xz[:, :, self.rows:self.rows + len(of) * m].reshape(2, -1, m, len(of))
            for i in range(d):   # subset 2^i + t: subset t (0: the key) XOR direction i
                span[:, :, (1 << i) - 1] = self._xz[:, :, of] ^ dirs[:, :, lead + i]
                span[:, :, 1 << i:(2 << i) - 1] = span[:, :, :(1 << i) - 1] ^ dirs[:, :, None, lead + i]
            self.owner = np.concatenate([self.owner, np.tile(self.owner[of], m)])

    def diagonal(self, layer: Sequence[gates.Gate]) -> None:
        """After writing the pending spans, mark the rows with X on the layer's gates
        in one pass: each clears its z bits on its hit gates' qubits and becomes a key
        with a direction Z_q per such qubit q, after a group's hit rows that agree off
        them merge; ``hits`` gains, per gate, the owner of each row it hits, merged or
        not.  ``BRANCH_CAP`` bounds a group's rows before the layer writes."""
        self.expand()
        w, arity = len(self._xz[0]), np.array([len(g.qubits) for g in layer])
        qubits = np.array([g.qubits + g.qubits[:1] * (arity.max() - len(g.qubits)) for g in layer])
        gmask = gates.pack((sum(1 << q for q in g.qubits) for g in layer), w).T
        hit = np.flatnonzero((self.x & np.bitwise_or.reduce(gmask)[:, None]).any(0))
        owners, met = self.owner[hit], np.zeros((len(hit), len(layer)), bool)
        for i in np.flatnonzero(gmask.any(0)):   # word by word: small buffers
            met |= (self.x[i, hit, None] & gmask[:, i]) != 0
        r, g = np.nonzero(met)   # (hit row, gate) pairs, row by row
        full = np.bitwise_or.reduceat(gmask[g], np.searchsorted(r, np.arange(len(hit))))   # qubits met
        keep = np.ones(len(hit), bool)
        if (shared := np.bincount(owners)[owners] > 1).any():
            s = np.flatnonzero(shared)   # a group's hit rows that agree off their gates' qubits merge
            cls = np.vstack([self.z[:, hit[s]] & ~full[s].T, self.x[:, hit[s]], owners[s].astype(np.uint64)])
            cls = cls[:, order := np.lexsort(cls)]   # stable: the lowest slot comes first
            keep[s[order[1:][(cls[:, 1:] == cls[:, :-1]).all(0)]]] = False
        gone, kept = hit[~keep], keep[r]
        keys = np.repeat((hit - np.cumsum(~keep))[r[kept]], arity[g[kept]])   # slots after merging
        owner, dims = np.delete(self.owner, gone), np.bincount(keys, minlength=self.rows - len(gone))
        if (need := np.bincount(owner, np.ldexp(1.0, dims))).max() > BRANCH_CAP:
            raise BudgetError(f"group {need.argmax()} would branch into {need.max():.0f} rows at a "
                              f"diagonal layer, over the fixed branch cap of {BRANCH_CAP}")
        self.hits += [owners[met[:, j]] for j in np.flatnonzero(met.any(0))]
        self.z[:, hit] &= ~full.T
        q = qubits[g[kept]][np.arange(qubits.shape[1]) < arity[g[kept], None]]
        xz = np.empty((2, w, len(q) + len(owner) + int(((1 << dims) - 1).sum())), np.uint64)
        rest = np.delete(self._rows, gone, axis=2) if len(gone) else self._rows   # delete copies slowly
        xz[:, :, :len(q)], xz[:, :, len(q):len(q) + len(owner)] = 0, rest
        xz[1, q >> 6, np.arange(len(q))] = np.uint64(1) << (q & 63).astype(np.uint64)
        self._xz, self._key, self.owner = xz, keys, owner


def propagate(circuit: GadgetCircuit,
              faults: Locations | Iterable[tuple[int, int, int, int]]) -> _Frame:
    """Push faults ``(group, place, x, z)``, groups numbered from 0, or
    ``Locations`` (location i is group i) through the gadget's layers, each
    group's faults jointly.  A fault at place p in [-1, len(gates)) enters
    after gate p (-1 = input); ``Locations`` commute with the rest of their
    gate's layer and enter after it, other faults cut the layer.  Faults of
    one group and place multiply; ``BRANCH_CAP`` bounds each group's rows at
    each diagonal layer, before it writes.  Rows end in slot order, then the
    spans in the order ``_Frame.expand`` writes them."""
    n_gates, cuts = len(circuit.gates), set()
    if isinstance(faults, Locations):
        groups, place, fxz = None, faults.place, faults.xz
    else:
        merged: dict[tuple[int, int], tuple[int, int]] = {}   # (place, group) -> fault
        for owner, p, x, z in faults:
            if x < 0 or z < 0 or (x | z) >> circuit.register_size:
                raise ValueError(f"fault acts outside the register of {circuit.register_size} qubits")
            px, pz = merged.get((p, owner), (0, 0))
            merged[p, owner] = (px ^ x, pz ^ z)
        keys = sorted(merged)
        place, groups = (np.array([k[c] for k in keys], np.intp) for c in (0, 1))
        n_words = (circuit.register_size + 63) // 64
        fxz = np.array([gates.pack((merged[k][c] for k in keys), n_words) for c in (0, 1)])
        cuts = {p + 1 for p, _ in merged}
    if not len(place):
        raise ValueError("no fault to propagate")
    outside = (place < -1) | (place >= n_gates)
    if outside.any():
        raise ValueError(f"fault place {place[outside][0]} outside [-1, {n_gates})")
    frame = _Frame(fxz.shape[1], len(place) if groups is None else int(groups.max()) + 1)
    # windows [-1, 0), then the layers, cut as above; faults placed in a window enter after it
    bounds = sorted({-1, *accumulate(map(len, circuit.layers), initial=0), *cuts})
    entered = np.searchsorted(place, bounds)
    for start, stop, lo, hi in zip(bounds, bounds[1:], entered, entered[1:]):
        if lo:   # rows are still zero before the first fault
            layer = circuit.gates[start:stop]
            (frame.clifford if layer[0].is_clifford else frame.diagonal)(layer)
        if lo < hi:
            frame.inject(slice(lo, hi) if groups is None else groups[lo:hi], fxz[:, :, lo:hi])
    frame.expand()
    return frame


# -- table-driven hierarchical decoding ------------------------------------------------

Sparse = tuple[np.ndarray, np.ndarray, np.ndarray]   # a column's rows, block words, terms


def _field(plane: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bits start .. start + width - 1 (width <= 64) of every row of a plane."""
    w, b = start >> 6, start & 63
    out = plane[w] >> b
    if b + width > 64:
        out |= plane[w + 1] << (64 - b)
    return out & ((1 << width) - 1)


class DecodeContext:
    """Inner-then-outer lookup decoding of ``operands`` copies of ``layout`` in
    word-major x/z planes, composed of the blocks' ``LookupDecoder``s.  Each (operand,
    outer qubit) column has a block word per row, linear in (x, z), kept sparse by
    ``data``.  Column k's term f_k(d) is the outer block word of its inner residual
    letter; an operand's outer word is the XOR of its terms."""

    def __init__(self, layout: Layout, operands: int):
        n = layout.outer.n
        outer = build_decoder(layout.outer)
        # outer block word of each letter, in LETTERS order, on outer qubit q
        x, z = np.array([[0, 1, 0, 1], [0, 0, 1, 1]], np.uint64)
        lifts = [outer.words(x << q, z << q) for q in range(n)]
        self.columns = [(off + start, build_decoder(code), lifts[q])   # per block word
                        for off in range(0, operands * layout.total_n, layout.total_n)
                        for q, (start, code) in enumerate(map(layout.block, range(n)))]
        self.n_operands, self.n_outer, self.outer_letters = operands, n, outer.residual_classes

    def data(self, x: np.ndarray, z: np.ndarray) -> Iterator[Sparse]:
        """Sparse block words, a column at a time: every row's word is looked up, and the
        ascending rows whose word is non-zero are kept with those words and their terms."""
        for k, (start, decoder, _) in enumerate(self.columns):
            words = decoder.words(_field(x, start, decoder.code.n), _field(z, start, decoder.code.n))
            rows = np.flatnonzero(words)
            words = words[rows]
            yield rows, words, self.term(k, words)

    def term(self, k: int, block_words: np.ndarray) -> np.ndarray:
        """Column k's term f_k of block words: the outer block word of their
        residual letter on the column's outer qubit; f_k(0) = 0."""
        _, decoder, lift = self.columns[k]
        return lift.take(decoder.residual_classes.take(block_words))

    def words(self, data: Iterable[Sparse], size: int) -> np.ndarray:
        """Outer block words, (operands, size), of ``size`` rows of ``data``."""
        out = np.zeros((self.n_operands, size), np.uint16)
        for k, (rows, _, terms) in enumerate(data):   # take, XOR, assign beat a 2-D ^= on out
            row = out[k // self.n_outer]
            row[rows] = row.take(rows) ^ terms
        return out

    def classes(self, words: np.ndarray) -> np.ndarray:
        """Residual class of outer words (operands, ...): the first operand's not I."""
        letters = self.outer_letters.take(words)
        out = letters[-1]
        for first in letters[-2::-1]:
            np.copyto(out, first, where=first != 0)
        return out

    def decode(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Residual class per row of word-major x and z planes; 0 = I."""
        return self.classes(self.words(self.data(x, z), x.shape[1]))


# -- reports --------------------------------------------------------------------

@dataclass
class Failure:
    locations: tuple[int, ...]
    branch: tuple[int, int]
    residual: str


@dataclass
class FaultReport:
    """A suite's failures, the witness first; ``searched``: the largest fault set size it tried."""

    layout: str
    gadget: str
    locations_checked: int
    branches_checked: int
    failures: list[Failure] = field(default_factory=list)
    searched: int = 1
    witness: tuple[FaultLocation, ...] | None = None
    min_uncorrectable_size = property(lambda self: len(self.failures[0].locations) if self.failures
                                      else f"none <= {self.searched}")
    witness_residual = property(lambda self: self.failures[0].residual if self.failures else "")

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class Campaign:
    """One gadget's fault campaign for both suites, on copies of the layout: decode
    context, locations and their walk, then the pair screen and hit gates, each made on first use."""

    layout: Layout
    circuit: GadgetCircuit
    ctx = cached_property(lambda self: DecodeContext(self.layout, self.circuit.operands))
    locations = cached_property(lambda self: enumerate_locations(self.circuit))
    frame = cached_property(lambda self: propagate(self.circuit, self.locations))

    def __post_init__(self):
        if self.circuit.register_size != self.circuit.operands * self.layout.total_n:
            raise ValueError("gadget blocks do not match the layout")

    @cached_property
    def hits(self) -> np.ndarray:
        """Per location, the diagonal gates its rows hit, as bit sets (locations, words)."""
        sets = np.zeros((len(self.locations), len(self.frame.hits) // 64 + 1), np.uint64)
        for g, owners in enumerate(self.frame.hits):
            sets[owners, g >> 6] |= np.uint64(1 << (g & 63))
        return sets

    @cached_property
    def screen(self) -> tuple[PairScreen, np.ndarray, np.ndarray, np.ndarray]:
        """Pair screen, x and z of the end rows sorted by location, and row bounds."""
        ctx, frame = self.ctx, self.frame
        order = np.argsort(frame.owner, kind="stable")
        x, z = frame.x[:, order], frame.z[:, order]
        bounds = np.searchsorted(frame.owner[order], np.arange(len(self.locations) + 1))
        return PairScreen(ctx, ctx.data(x, z), len(order)), x, z, bounds

    def verdict(self, a: int, b: int) -> tuple[tuple[int, int], str] | None:
        """``_least_failing`` of the products of a's and b's end rows, or, if a
        diagonal gate is hit by both, of their joint walk (``_confirm_pair``)."""
        if (self.hits[a] & self.hits[b]).any():
            return _confirm_pair(self.ctx, self.circuit, self.locations[a], self.locations[b])
        screen, x, z, bounds = self.screen
        ra, rb = slice(*bounds[a:a + 2]), slice(*bounds[b:b + 2])
        x, z = ((p[:, ra, None] ^ p[:, None, rb]).reshape(len(p), -1) for p in (x, z))
        return _least_failing(x, z, self.ctx.classes(screen.pair_words(ra, rb)).ravel())


def check_single_fault_ft(layout: Layout, circuit: GadgetCircuit, *,
                          campaign: Campaign | None = None) -> FaultReport:
    """Exhaustive single-fault campaign; every branch must decode to I.
    Failures are ordered by location, then branch (x, z).  A given
    ``campaign`` lends its walk; it must be this gadget's."""
    campaign = campaign or Campaign(layout, circuit)
    if (campaign.layout, campaign.circuit) != (layout, circuit):
        raise ValueError(f"campaign walks another gadget, not {circuit.label} on {layout.descriptor}")
    ctx, frame = campaign.ctx, campaign.frame
    report = FaultReport(layout.descriptor, circuit.label, len(campaign.locations), frame.rows)
    residual = ctx.decode(frame.x, frame.z)
    report.failures = [Failure((i,), (x, z), res) for i, x, z, res in sorted(
        (int(frame.owner[r]), *frame.branch(r), LETTERS[residual[r]])
        for r in np.flatnonzero(residual))]
    if report.failures:
        report.witness = (campaign.locations[report.failures[0].locations[0]],)
    return report


class PairScreen:
    """Sparse block words of ``size`` rows with their terms, as ``DecodeContext.data``
    computed them, in one array each, and each row's operand words; ``keys`` are the rows,
    column k's raised by k * size, so one search cuts every column.  A product's outer word
    is W(a ^ b) = W(a) ^ W(b) ^ P, P the XOR of f_k(a ^ b) ^ f_k(a) ^ f_k(b) over shared columns."""

    def __init__(self, ctx: DecodeContext, data: Iterable[Sparse], size: int):
        data = list(data)
        self.ctx, self.words = ctx, ctx.words(data, size)
        self.floor = np.arange(len(data)) * size
        raised = [(rows + f, d, t) for (rows, d, t), f in zip(data, self.floor)]
        self.keys, self.d, self.t = map(np.concatenate, zip(*raised))

    def pair_words(self, a: slice, b: slice) -> np.ndarray:
        """Outer words, (operands, len(a), len(b)), of the product of every row in ``a``
        with every row in ``b`` (slices with start and stop).  Patches go in by flat intp
        indices: numpy takes a slow path for a broadcast 2-D index, 2-3 times slower."""
        ctx, keys, d, t, width = self.ctx, self.keys, self.d, self.t, b.stop - b.start
        out = self.words[:, a, None] ^ self.words[:, None, b]
        cuts = np.searchsorted(keys, self.floor[:, None] + (a.start, a.stop, b.start, b.stop))
        for k in np.flatnonzero((cuts[:, 0] < cuts[:, 1]) & (cuts[:, 2] < cuts[:, 3])):
            (a0, a1, b0, b1), floor = cuts[k], self.floor[k]
            patch = ctx.term(k, d[a0:a1, None] ^ d[b0:b1]) ^ t[a0:a1, None] ^ t[b0:b1]
            flat = out[k // ctx.n_outer].reshape(-1)   # a view: out is C-contiguous
            at = ((keys[a0:a1] - floor - a.start) * width)[:, None] + (keys[b0:b1] - floor - b.start)
            flat[at] = flat.take(at) ^ patch
        return out

    def candidates(self, bounds: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Pairs (i, j), j > i, of row groups bounds[g]:bounds[g + 1] with a failing product
        row, in order; first groups in blocks of 1, 2, 4, ... up to ``PAIR_BLOCK`` row pairs.
        ``flatnonzero`` finds failing cells 40 times faster than a 2-D ``nonzero``; the class
        lookup indexes by uint16 words, cast in small buffers, as ``take`` would copy them to intp."""
        n, rows, i, size = len(bounds) - 1, bounds[-1], 0, 1
        owner = np.repeat(np.arange(n), np.diff(bounds))
        while i < n:
            later = bounds[i + 1]
            step = max(PAIR_BLOCK // max(rows - later, 1), 1)   # first rows per step
            end = max(i + 1, min(i + size, np.searchsorted(bounds, bounds[i] + step, "right") - 1))
            keys = []
            for lo in range(bounds[i], bounds[end], step):
                words = self.pair_words(slice(lo, min(lo + step, bounds[end])), slice(later, rows))
                r, c = np.divmod(np.flatnonzero(self.ctx.outer_letters[words].any(0)), rows - later)
                first, second = owner[lo + r], owner[later + c]
                keys.append((first * n + second)[second > first])
            keys = np.sort(np.concatenate(keys))
            yield np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
            i, size = end, 2 * (end - i)


def find_min_uncorrectable(layout: Layout, circuit: GadgetCircuit, budget: int = PAIR_BUDGET, *,
                           campaign: Campaign | None = None) -> FaultReport:
    """Lexicographic scan of fault pairs, in the branch envelope: the first
    screen candidate that fails is the witness (``Campaign.verdict``; only
    pairs that share a hit gate are walked).  A given ``campaign`` lends its
    walk; it must be this gadget's."""
    campaign = campaign or Campaign(layout, circuit)
    if (campaign.layout, campaign.circuit) != (layout, circuit):
        raise ValueError(f"campaign walks another gadget, not {circuit.label} on {layout.descriptor}")
    n = len(campaign.locations)
    if n * (n - 1) // 2 > budget:
        raise BudgetError(f"pair search needs {n * (n - 1) // 2} pairs, budget is {budget}")
    screen, _, _, bounds = campaign.screen
    report = FaultReport(layout.descriptor, circuit.label, n, campaign.frame.rows, searched=2)
    for first, second in screen.candidates(bounds):
        for a, b in zip(first.tolist(), second.tolist()):
            if (failure := campaign.verdict(a, b)) is not None:
                report.failures.append(Failure((a, b), *failure))
                report.witness = (campaign.locations[a], campaign.locations[b])
                return report
    return report


def _confirm_pair(ctx: DecodeContext, circuit: GadgetCircuit, a: FaultLocation,
                  b: FaultLocation) -> tuple[tuple[int, int], str] | None:
    """``_least_failing`` of a pair walked as one group and decoded."""
    frame = propagate(circuit, ((0, a.place, a.x, a.z), (0, b.place, b.x, b.z)))
    return _least_failing(frame.x, frame.z, ctx.decode(frame.x, frame.z))


def _least_failing(x: np.ndarray, z: np.ndarray,
                   residual: np.ndarray) -> tuple[tuple[int, int], str] | None:
    """The least (x, z) row whose residual is not I, and that residual, or None."""
    rows = sorted((gates.unpack(x[:, r]), gates.unpack(z[:, r]), r) for r in np.flatnonzero(residual))
    return (rows[0][:2], LETTERS[residual[rows[0][2]]]) if rows else None


@dataclass
class EffectiveDistanceResult:
    value: int | None           # 3, 1, or None for "no witness found"
    statement: str
    single_fault_reports: list[FaultReport]
    witness_report: FaultReport | None = None
    # (gadget label, its pair search or None if the budget refused it), up to the witness
    pair_reports: list[tuple[str, FaultReport | None]] = field(default_factory=list)


def effective_distance_report(layout: Layout, gadget_set: list[GadgetCircuit],
                              budget: int = PAIR_BUDGET) -> EffectiveDistanceResult:
    """Per gadget, on one ``Campaign`` dropped before the next: its single-fault
    suite, then its pair search while all suites pass and no witness is known.
    3 = single faults pass and some pair fails; 1 = a single fault fails (the
    construction is broken; pair searches made are dropped); None = neither."""
    singles, pairs, found = [], [], None
    for circuit in gadget_set:
        campaign = Campaign(layout, circuit)
        singles.append(check_single_fault_ft(layout, circuit, campaign=campaign))
        if found is None and all(rep.passed for rep in singles):
            try:
                rep = find_min_uncorrectable(layout, circuit, budget, campaign=campaign)
            except BudgetError:
                rep = None
            pairs.append((circuit.label, rep))
            found = rep if rep is not None and rep.witness is not None else None
    if broken := [rep for rep in singles if not rep.passed]:
        return EffectiveDistanceResult(1, f"single fault uncorrectable in {broken[0].gadget}",
                                       singles, broken[0])
    if found is not None:
        return EffectiveDistanceResult(3, f"2-fault witness in {found.gadget}", singles, found, pairs)
    refused = [label for label, rep in pairs if rep is None]
    statement = ("single faults pass; pair search refused by the budget for " + ", ".join(refused)
                 if refused else ">= 3, no witness within gadget set")
    return EffectiveDistanceResult(None, statement, singles, None, pairs)
