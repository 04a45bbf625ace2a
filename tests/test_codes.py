import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuconcat import _bitlin, cli, codes, gates
from nuconcat._bitlin import rref
from nuconcat.codes import (BARE, CodeConstructionError, StabilizerCode, _coset_order,
                            anticommutation, build_decoder, code_space, distance, five_prime,
                            five_qubit, min_weight_candidates, min_weight_logical,
                            reed_muller_15, staircase_support, steane, transform_code)
from nuconcat.concat import flatten, non_uniform_layout, parse_layout
from nuconcat.pauli import LETTERS, DimensionError, Pauli
from nuconcat.simulate import verify_clifford_action
from reference import (commutes, equals_up_to_phase, expand_transversal, from_letters,
                       is_identity, lookup_correction, normalizer_class, reference_block_word,
                       reference_construction_error, signed_membership, signed_product,
                       single, stabilizer_elements, syndrome)

ALL_CODES = [steane, five_qubit, five_prime, reed_muller_15]


def residual_logical_action(code, error, decoder):
    """Classify correction * error as I (stabilizer) or a logical X/Y/Z."""
    residual = lookup_correction(decoder, syndrome(code, error)) * error
    assert syndrome(code, residual) == 0, "decoder left a detectable residual"
    return normalizer_class(code, residual)


@pytest.mark.parametrize("ctor", ALL_CODES)
def test_code_shape(ctor):
    code = ctor()
    assert len(code.generators) == code.n - 1
    assert code.k == 1
    for a, b in itertools.combinations(code.generators, 2):
        assert commutes(a, b)
    assert not commutes(code.logical_x, code.logical_z)
    for g in code.generators:
        assert commutes(code.logical_x, g) and commutes(code.logical_z, g)


@pytest.mark.parametrize("ctor,n,css", [
    (steane, 7, True), (five_qubit, 5, False), (five_prime, 5, False),
    (reed_muller_15, 15, True),
])
def test_parameters(ctor, n, css):
    code = ctor()
    assert code.n == n
    assert code.css == css
    assert distance(code) == 3


def test_min_weight_logicals():
    assert min_weight_logical(steane(), "Z").weight() == 3
    assert min_weight_logical(reed_muller_15(), "Z").weight() == 3
    assert min_weight_logical(reed_muller_15(), "X").weight() == 7
    p = min_weight_logical(five_qubit(), "Z")
    assert p.weight() == 3
    assert p.x != 0  # every representative mixes in X or Y letters


def test_rm15_x_distance_against_classical_coset():
    """Independent oracle: X-class minimum = lightest odd-overlap word in the
    classical coset of the X-stabilizer span (pure-X elements are minimal
    because stabilizer Z factors only add support)."""
    code = reed_muller_15()
    x_rows = [g.x for g in code.generators if g.x]
    best = 15
    for combo in range(1 << len(x_rows)):
        word = code.logical_x.x
        for i, row in enumerate(x_rows):
            if (combo >> i) & 1:
                word ^= row
        best = min(best, word.bit_count())
    assert best == 7


def test_five_qubit_distance_brute_force():
    """Independent oracle: no Pauli of weight < 3 commutes with all
    generators while acting nontrivially."""
    code = five_qubit()
    for support_size in (1, 2):
        for support in itertools.combinations(range(5), support_size):
            for letters in itertools.product("XYZ", repeat=support_size):
                p = from_letters(5, dict(zip(support, letters)))
                if all(commutes(p, g) for g in code.generators):
                    assert normalizer_class(code, p) == "I" and p in code.group


def test_five_prime_transform():
    fq = five_qubit()
    fp = five_prime()
    assert fp.n == 5 and distance(fp) == 3
    rep = min_weight_logical(fp, "Z")
    assert str(rep) == "+ZIZIZ"  # pure-Z representative; drives the staircase
    assert staircase_support(fp) == (0, 2, 4)
    assert staircase_support(fq) == (0, 1, 3)
    # five_qubit's minimum-weight Z is not pure Z, which is why five_prime exists
    z_rep = min_weight_logical(fq, "Z")
    assert str(z_rep) == "-XXIZI" and z_rep.x
    # transforming twice by the self-inverse Y and K/K_dag pairs restores the code
    inverse = (gates.gate(gates.K_DAG, 0), gates.gate(gates.Y, 2), gates.gate(gates.K_DAG, 4))
    back = transform_code(fp, inverse, name="back")
    assert [str(g) for g in back.generators] == [str(g) for g in fq.generators]
    assert str(back.logical_x) == str(fq.logical_x)


def test_transform_identity_is_noop():
    fq = five_qubit()
    same = transform_code(fq, [])
    assert same.generators == fq.generators and same.css == fq.css


def test_css_is_computed_from_the_operators():
    """A transform that returns Steane's exact operators leaves it CSS;
    one that swaps its logical X and Z does not; ``css`` is not a
    constructor argument and cannot be set."""
    code = steane()
    twice = transform_code(code, [gates.gate(gates.H, 0), gates.gate(gates.H, 0)])
    assert twice.generators == code.generators and twice.css
    assert not transform_code(code, [gates.gate(gates.H, q) for q in range(7)]).css
    with pytest.raises(TypeError):
        StabilizerCode("steane", code.generators, code.logical_x, code.logical_z, css=True)
    with pytest.raises(TypeError):   # the size is read off the operators, not passed
        StabilizerCode("steane", 7, code.generators, code.logical_x, code.logical_z)
    with pytest.raises(AttributeError):
        code.css = False


def test_css_codes_and_layouts_are_pinned(cat):
    """Of the four catalog codes and the 42 flattened layouts that the
    dispatcher outputs are pinned on (the shortcuts, then bare, uniform
    and non-uniform over the four codes), exactly the layouts built from
    Steane and RM15 alone are CSS."""
    names = ("steane", "rm15", "five_qubit", "five_prime")
    descriptors = [*cli.LAYOUT_SHORTCUTS.values(), *(f"bare:{o}" for o in names),
                   *(f"{form}:{o}:{i}" for form in ("uniform", "nonuniform")
                     for o in names for i in names)]
    values = [(name, cat.code(name).css) for name in names]
    values += [(d, flatten(parse_layout(d, cat.code)).css) for d in descriptors]
    assert len(values) == 46 and sum(css for _, css in values) == 15
    assert {name for name, css in values if css} == {
        "steane", "rm15", "bare:steane", "bare:rm15", "b2:steane:rm15:steane",
        *(f"{form}:{o}:{i}" for form in ("uniform", "nonuniform")
          for o in ("steane", "rm15") for i in ("steane", "rm15"))}


def test_transform_rejects_multi_qubit_gates():
    with pytest.raises(gates.UnsupportedGateError):
        transform_code(five_qubit(), [gates.gate(gates.CNOT, 0, 1)])


def test_staircase_support_sizes():
    assert staircase_support(steane()) == (0, 1, 2)
    assert len(staircase_support(five_prime())) == 3
    assert len(staircase_support(five_qubit())) == 3


def test_syndrome_basics():
    code = steane()
    assert syndrome(code, Pauli(7, 0, 0)) == 0
    for g in code.generators:
        assert syndrome(code, g) == 0
    # X errors trigger only Z-type generator bits, and the pattern matches
    # the parity-check column of the position label
    z_gen_positions = [i for i, g in enumerate(code.generators) if g.z]
    for q in range(7):
        s = syndrome(code, single(7, q, "X"))
        hit = [i for i in range(6) if (s >> i) & 1]
        assert set(hit) <= set(z_gen_positions)
        label = 0
        for j, i in enumerate(z_gen_positions):
            if (s >> i) & 1:
                label |= 1 << j
        assert label == q + 1


@pytest.mark.parametrize("ctor", ALL_CODES)
def test_decoder_corrects_all_weight_one(ctor):
    code = ctor()
    decoder = build_decoder(code)
    assert is_identity(lookup_correction(decoder, 0))
    for q in range(code.n):
        for letter in "XYZ":
            err = single(code.n, q, letter)
            corr = lookup_correction(decoder, syndrome(code, err))
            assert equals_up_to_phase(corr, err)
            assert residual_logical_action(code, err, decoder) == "I"


def test_steane_decoder_table_size():
    assert len(build_decoder(steane()).table) == 64


@pytest.mark.parametrize("code", [*(ctor() for ctor in ALL_CODES), BARE], ids=lambda c: c.name)
def test_build_decoder_returns_built_read_only_plane_tables(code):
    """The block-word plane tables are a field that ``build_decoder`` fills:
    (2, 2^n) uint16, read-only, so no campaign pays a lazy build."""
    planes = vars(build_decoder.__wrapped__(code))["_planes"]
    assert planes.shape == (2, 1 << code.n) and planes.dtype == np.uint16
    assert not planes.flags.writeable


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_words_follow_their_definition(cat, data):
    """``LookupDecoder.words`` equals the definition (syndrome bits, then
    anticommutation with logical Z and logical X) on every catalog code with
    at most 15 qubits: all 2n single-qubit errors and random X^x Z^z."""
    for code in (c for c in cat.codes.values() if c.n <= 15):
        n = code.n
        masks = st.integers(0, (1 << n) - 1)
        errors = ([(1 << q, 0) for q in range(n)] + [(0, 1 << q) for q in range(n)]
                  + data.draw(st.lists(st.tuples(masks, masks), max_size=16)))
        x, z = (np.array([e[c] for e in errors], np.uint64) for c in (0, 1))
        assert build_decoder(code).words(x, z).tolist() == [
            reference_block_word(code, ex, ez) for ex, ez in errors], code.name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_anticommutation_rows_match_the_pairwise_references(layouts, data):
    """A row of ``anticommutation`` against a code's ``checks`` is the reference
    ``syndrome``, then ``normalizer_class`` as two bits, and each entry is the
    pairwise ``commutes``: on the four base codes, ``BARE`` and the six flattened
    layouts, for the identity and random signed Paulis (Y where x and z meet)."""
    codes = [*(ctor() for ctor in ALL_CODES), BARE, *map(flatten, layouts.values())]
    code = data.draw(st.sampled_from(codes), label="code")
    n, masks = code.n, st.integers(0, (1 << code.n) - 1)
    errors = [Pauli(n, 0, 0)] + data.draw(st.lists(st.builds(
        Pauli, st.just(n), masks, masks, st.integers(0, 3)), min_size=1, max_size=8))
    rows = anticommutation(code.checks, [e.x for e in errors], [e.z for e in errors])
    assert rows.shape == (len(errors), n + 1)
    for e, row in zip(errors, rows.tolist()):
        assert row == [int(not commutes(e, p)) for p in code.checks]
        assert sum(bit << i for i, bit in enumerate(row[:-2])) == syndrome(code, e)
        assert LETTERS[row[-2] | row[-1] << 1] == normalizer_class(code, e)


def test_rm15_weight_two_errors():
    """Derived by exhaustion: weight-2 X errors all decode cleanly (the
    X-class minimum is 7) while some weight-2 Z pairs miscorrect into a
    logical Z (the Z-class minimum is 3)."""
    code = reed_muller_15()
    decoder = build_decoder(code)
    z_failures = 0
    for a, b in itertools.combinations(range(15), 2):
        x_err = from_letters(15, {a: "X", b: "X"})
        assert residual_logical_action(code, x_err, decoder) == "I"
        z_err = from_letters(15, {a: "Z", b: "Z"})
        if residual_logical_action(code, z_err, decoder) != "I":
            z_failures += 1
    assert z_failures > 0


def test_residual_classification():
    code = steane()
    decoder = build_decoder(code)
    assert residual_logical_action(code, code.generators[0], decoder) == "I"
    assert residual_logical_action(code, code.logical_z, decoder) == "Z"
    assert residual_logical_action(code, code.logical_x, decoder) == "X"


def test_decode_weight_two_on_steane():
    """Z1Z2-type errors decode to a weight<=1 correction whose product with
    the error is a stabilizer or a logical; classify which by exhaustion."""
    code = steane()
    decoder = build_decoder(code)
    outcomes = Counter()
    for a, b in itertools.combinations(range(7), 2):
        err = from_letters(7, {a: "Z", b: "Z"})
        corr = lookup_correction(decoder, syndrome(code, err))
        assert corr.weight() <= 1
        outcomes[residual_logical_action(code, err, decoder)] += 1
    assert outcomes["Z"] == 21  # d=3: every weight-2 Z pair miscorrects


def test_syndrome_weight_multiset_invariant_under_local_clifford():
    """The multiset of minimum correction weights per syndrome is preserved
    by the local-Clifford code transformation."""
    d1 = build_decoder(five_qubit())
    d2 = build_decoder(five_prime())
    w1 = sorted(lookup_correction(d1, s).weight() for s in range(len(d1.table)))
    w2 = sorted(lookup_correction(d2, s).weight() for s in range(len(d2.table)))
    assert w1 == w2


def test_group_membership_is_sign_exact():
    code = five_prime()
    g = code.generators[0]
    assert g in code.group
    assert g.negate() not in code.group


def test_group_membership_refuses_another_register_size():
    """An 8-qubit copy of a Steane generator is no member of a 7-qubit
    group and no non-member either: the sizes do not match."""
    g = steane().generators[0]
    with pytest.raises(DimensionError, match="8-qubit operator vs a group on 7 qubits"):
        Pauli(8, g.x, g.z, g.phase_exp) in steane().group


GROUP_CODES = {"steane": steane, "rm15": reed_muller_15, "five_prime": five_prime,
               "bare": lambda: BARE,
               "code49": lambda: flatten(non_uniform_layout(steane(), reed_muller_15()))}


BITS = st.integers(0, (1 << 64) - 1)   # masked to a code's generators or qubits, at most 49 of each


COSTS = st.lists(st.tuples(st.just(0), *[st.integers(0, 9)] * 3), min_size=15, max_size=15)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(GROUP_CODES)), combo=BITS, shift=st.integers(0, 3),
       x=BITS, z=BITS, phase_exp=st.integers(0, 3), costs=COSTS)
@example(name="steane", combo=0, shift=2, x=0, z=0, phase_exp=1, costs=[(0, 1, 1, 1)] * 15)
@example(name="code49", combo=0, shift=0, x=0, z=0, phase_exp=0, costs=[(0, 1, 1, 1)] * 15)
@example(name="bare", combo=0, shift=1, x=0, z=0, phase_exp=2, costs=[(0, 1, 1, 1)] * 15)
def test_phase_form_matches_pauli_products(name, combo, shift, x, z, phase_exp, costs):
    """The phase form gives a random product of generators the sign that
    multiplying them one ``Pauli`` at a time gives, and membership holds at
    that phase only; so does the coset scan, unit or random costs, to each
    logical times that product (the scan refuses code49).  A logical times
    the product is off the span, and a random Pauli is judged as the tag-bit
    reference judges it.  Combo 0 and x = z = 0 are the identity, which
    ``phase`` answers without elimination."""
    code = GROUP_CODES[name]()
    group, n, k = code.group, code.n, len(code.generators)
    combo &= (1 << k) - 1
    p = signed_product(code.generators, combo, n)
    assert group.phase(p.x, p.z) == p.phase_exp
    for cls, scan_costs in itertools.product("XYZ" if n <= 20 else "", (None, tuple(costs[:n]))):
        q = code.logical_rep(cls) * p
        keys, es = _coset_order(code, cls, scan_costs)
        assert es[keys & (1 << 2 * n) - 1 == q.x << n | q.z].tolist() == [q.phase_exp]
    assert (Pauli(n, p.x, p.z, p.phase_exp + shift) in group) == (shift == 0)
    for q in (p * code.logical_x, p * code.logical_z):
        assert group.phase(q.x, q.z) is None and q not in group
    q = Pauli(n, x & (1 << n) - 1, z & (1 << n) - 1, phase_exp)
    member = signed_membership(code.generators, n)
    signs = [e for e in range(4) if member(Pauli(n, q.x, q.z, e))]
    assert group.phase(q.x, q.z) == (signs[0] if signs else None)
    assert (q in group) == (q.phase_exp in signs)


@pytest.mark.parametrize("ctor", [steane, reed_muller_15])
def test_css_syndromes_decouple(ctor):
    """X errors trigger only Z-type generator bits and vice versa."""
    code = ctor()
    x_bits = [i for i, g in enumerate(code.generators) if g.x]
    z_bits = [i for i, g in enumerate(code.generators) if g.z]
    for q in range(code.n):
        sx = syndrome(code, single(code.n, q, "X"))
        sz = syndrome(code, single(code.n, q, "Z"))
        assert all((sx >> i) & 1 == 0 for i in x_bits)
        assert all((sz >> i) & 1 == 0 for i in z_bits)


# -- reference scans ------------------------------------------------------------
# The two Python-object scans the array builders replaced, kept as test oracles.

def reference_decoder(code):
    """Weight-by-weight scan: syndrome -> (x, z, weight) of the first
    correction found, ties broken on the smallest (x, z)."""
    n = code.n
    letter_syndrome = {(q, letter): syndrome(code, single(n, q, letter))
                       for q in range(n) for letter in "XYZ"}
    table = {0: (0, 0, 0)}
    letters = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for w in range(1, n + 1):
        if len(table) == 1 << (n - 1):
            break
        for support in itertools.combinations(range(n), w):
            for assignment in itertools.product("XYZ", repeat=w):
                s = x = z = 0
                for q, letter in zip(support, assignment):
                    s ^= letter_syndrome[(q, letter)]
                    xb, zb = letters[letter]
                    x |= xb << q
                    z |= zb << q
                known = table.get(s)
                if known is None or (known[2] == w and (x, z) < (known[0], known[1])):
                    table[s] = (x, z, w)
    return {s: Pauli(n, x, z, 0) for s, (x, z, _) in table.items()}


def reference_coset_scan(code, cls):
    """Every signed element of the logical coset, sorted by (weight, x, z)."""
    rep = code.logical_rep(cls)
    return sorted((rep * s for s in stabilizer_elements(code)),
                  key=lambda p: (p.weight(), p.x, p.z))


def signed(p):
    return (p.x, p.z, p.phase_exp)


@st.composite
def derived_codes(draw):
    """A base code conjugated by random local Cliffords, then given a random
    generator basis (g_i replaced by g_i * g_j)."""
    base = draw(st.sampled_from([steane, five_qubit, five_prime]))()
    kinds = [gates.H, gates.S, gates.S_DAG, gates.K, gates.K_DAG, gates.X, gates.Y, gates.Z]
    layer = [gates.gate(draw(st.sampled_from(kinds)), q)
             for q in range(base.n) if draw(st.booleans())]
    code = transform_code(base, layer)
    gens = list(code.generators)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.permutations(range(len(gens))))[:2]
        gens[i] = gens[i] * gens[j]
    return StabilizerCode("derived", tuple(gens), code.logical_x, code.logical_z)


@settings(max_examples=80, deadline=None)
@given(derived_codes(), st.sampled_from(["random", "random several", "dependent", "anticommuting",
                                         "commuting"]), st.data())
def test_malformed_codes_are_refused_as_the_reference_refuses_them(code, case, data):
    """A code broken one way is refused with the message of the pairwise
    reference checks, naming the same first offending operators: one or
    more generators replaced by random signed Hermitian Paulis (which may
    happen to fit, and then build a code), one by a signed product of the others, a
    logical times a random single-qubit Pauli, or logical Z replaced by
    logical X times a random stabilizer."""
    n, gens, lx, lz = code.n, list(code.generators), code.logical_x, code.logical_z
    i, word = data.draw(st.integers(0, n - 2)), st.integers(0, (1 << n) - 1)
    sign = data.draw(st.sampled_from([0, 2]))
    if case.startswith("random"):
        several = st.sets(st.integers(0, n - 2), min_size=2)
        for j in data.draw(several) if case == "random several" else {i}:
            x, z = data.draw(word), data.draw(word)
            gens[j] = Pauli(n, x, z, (x & z).bit_count() + sign)
    elif case == "dependent":
        others = data.draw(st.integers(1, (1 << n - 1) - 1).filter(lambda c: c & ~(1 << i)))
        p = signed_product(gens, others & ~(1 << i), n)
        gens[i] = Pauli(n, p.x, p.z, p.phase_exp + sign)
    elif case == "anticommuting":
        e = single(n, data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from("XYZ")))
        if data.draw(st.booleans()):
            lx = Pauli.hermitian(n, lx.x ^ e.x, lx.z ^ e.z)
        else:
            lz = Pauli.hermitian(n, lz.x ^ e.x, lz.z ^ e.z)
    else:
        p = lx * signed_product(gens, data.draw(st.integers(0, (1 << n - 1) - 1)), n)
        lz = Pauli.hermitian(n, p.x, p.z)
    expected = reference_construction_error("broken", tuple(gens), lx, lz)
    assert expected is not None or case.startswith("random")
    if expected is None:
        StabilizerCode("broken", tuple(gens), lx, lz)
        return
    with pytest.raises(CodeConstructionError) as refusal:
        StabilizerCode("broken", tuple(gens), lx, lz)
    assert str(refusal.value) == expected


@settings(max_examples=60, deadline=None)
@given(derived_codes(), st.data())
def test_group_membership_matches_reference(code, data):
    """``p in code.group`` exactly when ``p`` is a signed group
    element, for elements, their negations, other phases and random Paulis."""
    elements = sorted(signed(s) for s in stabilizer_elements(code))
    x, z, e = data.draw(st.sampled_from(elements))
    n = code.n
    word = st.integers(0, (1 << n) - 1)
    candidates = [Pauli(n, x, z, e), Pauli(n, x, z, e).negate(),
                  Pauli(n, x, z, data.draw(st.integers(0, 3))),
                  Pauli(n, data.draw(word), data.draw(word), data.draw(st.integers(0, 3)))]
    group = code.group
    for p in candidates:
        assert (p in group) == (signed(p) in elements)
    assert candidates[0] in group and candidates[1] not in group


@settings(max_examples=60, deadline=None)
@given(derived_codes())
def test_decoder_table_matches_reference(code):
    decoder = build_decoder(code)
    reference = reference_decoder(code)
    assert len(reference) == len(decoder.table) == 1 << (code.n - 1)
    assert {s: signed(lookup_correction(decoder, s)) for s in reference} == {
        s: signed(p) for s, p in reference.items()}


def test_rm15_decoder_table_pinned():
    """rm15's table equals the reference scan's (checked once, the scan takes
    seconds): its digest and weight histogram are pinned."""
    decoder = build_decoder(reed_muller_15())
    table = [lookup_correction(decoder, s) for s in range(1 << 14)]
    text = "".join(f"{s}:{p.x}:{p.z}:{p.phase_exp}\n" for s, p in enumerate(table))
    assert hashlib.sha256(text.encode()).hexdigest().startswith("a9e4e733a08b3ec3")
    weights = Counter(p.weight() for p in table)
    assert sorted(weights.items()) == [(0, 1), (1, 45), (2, 630), (3, 4760), (4, 10500), (5, 448)]


def check_coset_scans(code):
    for cls in "XYZ":
        scan = reference_coset_scan(code, cls)
        d = scan[0].weight()
        assert signed(min_weight_logical(code, cls)) == signed(scan[0])
        assert [signed(p) for p in min_weight_candidates(code, cls)] == [
            signed(p) for p in scan if p.weight() == d]


@settings(max_examples=60, deadline=None)
@given(derived_codes())
def test_coset_scans_match_reference(code):
    check_coset_scans(code)


def test_rm15_coset_scans_match_reference():
    code = reed_muller_15()
    check_coset_scans(code)
    assert [len(min_weight_candidates(code, cls)) for cls in "XYZ"] == [120, 120, 35]


def test_code_space_moves_have_a_fully_reduced_x_basis(cat):
    """The X parts of ``code_space``'s moves are already a fully reduced
    basis, which the encoder and the coset-phase support read as is: on
    every catalog code and every flattened layout shortcut, ``rref``
    returns them unchanged."""
    shortcuts = [flatten(parse_layout(d, cat.code)) for d in cli.LAYOUT_SHORTCUTS.values()]
    for code in [*cat.codes.values(), *shortcuts]:
        xs = [move.x for move in code_space(code)[1]]
        assert rref(xs) == xs, code.name


def check_code_space_seed(code, combos):
    """``code_space``'s seed has parity z.seed equal to the sign bit of each pure-Z product,
    in ``combos``, of the generators and logical Z (at +1), and no pivot bit of the moves'
    X basis."""
    seed, moves, _ = code_space(code)
    ops = (*code.generators, code.logical_z)
    pure_z = [p for p in (signed_product(ops, combo, code.n) for combo in combos) if not p.x]
    assert pure_z, code.name
    for p in pure_z:
        assert (p.z & seed).bit_count() & 1 == p.phase_exp >> 1, code.name
    assert not any(seed >> move.x.bit_length() - 1 & 1 for move in moves), code.name


@settings(max_examples=60, deadline=None)
@given(derived_codes())
def test_code_space_seed_meets_every_pure_z_sign(code):
    check_code_space_seed(code, range(1 << code.n))


def test_code_space_seed_meets_the_pure_z_signs_of_the_layouts(cat):
    """On the flattened layout shortcuts, each of the group's pure-Z rows (whose
    products are every pure-Z element) is checked as a product the reference forms."""
    for d in cli.LAYOUT_SHORTCUTS.values():
        code = flatten(parse_layout(d, cat.code))
        check_code_space_seed(code, [row & (1 << code.n) - 1 for row in code.group.reduced])


def test_each_code_eliminates_its_generators_once(cat, monkeypatch):
    """A code's generators and logical Z are eliminated once, as it is built: its group,
    its code space, a membership query and a Heisenberg certificate read those rows.
    The six flattened layout codes and a Steane code, built with every cache bypassed,
    make one ``rref`` call each, of n rows."""
    layouts = [parse_layout(d, cat.code) for d in cli.LAYOUT_SHORTCUTS.values()]
    calls = []

    def counted(rows, real=_bitlin.rref):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(_bitlin, "rref", counted)
    monkeypatch.setattr(codes, "rref", counted)
    built = []
    for layout in layouts:
        code = flatten.__wrapped__(layout)
        code_space.__wrapped__(code)
        assert code.generators[0] in code.group
        built.append(code)
    code = steane()
    circuit = expand_transversal(code, gates.H, cat.rules["steane"][gates.H])
    assert verify_clifford_action(code, circuit, gates.gate(gates.H, 0)).passed
    built.append(code)
    assert calls == [code.n for code in built]
