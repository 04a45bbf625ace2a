import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuconcat import gates
from nuconcat.codes import (StabilizerCode, build_decoder, distance, five_prime,
                            five_qubit, min_weight_candidates, min_weight_logical,
                            normalizer_class, reed_muller_15, stabilizer_group,
                            staircase_support, steane, syndrome, transform_code)
from nuconcat.pauli import Pauli
from reference import (equals_up_to_phase, from_letters, is_identity, lookup_correction,
                       stabilizer_elements)

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
        assert a.commutes(b)
    assert not code.logical_x.commutes(code.logical_z)
    for g in code.generators:
        assert code.logical_x.commutes(g) and code.logical_z.commutes(g)


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
                if all(p.commutes(g) for g in code.generators):
                    assert normalizer_class(code, p) == "I" and p in stabilizer_group(code)


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


def test_transform_rejects_multi_qubit_gates():
    with pytest.raises(gates.UnsupportedGateError):
        transform_code(five_qubit(), [gates.gate(gates.CNOT, 0, 1)])


def test_staircase_support_sizes():
    assert staircase_support(steane()) == (0, 1, 2)
    assert len(staircase_support(five_prime())) == 3
    assert len(staircase_support(five_qubit())) == 3


def test_syndrome_basics():
    code = steane()
    assert syndrome(code, Pauli.identity(7)) == 0
    for g in code.generators:
        assert syndrome(code, g) == 0
    # X errors trigger only Z-type generator bits, and the pattern matches
    # the parity-check column of the position label
    z_gen_positions = [i for i, g in enumerate(code.generators) if g.z]
    for q in range(7):
        s = syndrome(code, Pauli.single(7, q, "X"))
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
            err = Pauli.single(code.n, q, letter)
            corr = lookup_correction(decoder, syndrome(code, err))
            assert equals_up_to_phase(corr, err)
            assert residual_logical_action(code, err, decoder) == "I"


def test_steane_decoder_table_size():
    assert len(build_decoder(steane()).table) == 64


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
    assert g in stabilizer_group(code)
    assert g.negate() not in stabilizer_group(code)


@pytest.mark.parametrize("ctor", [steane, reed_muller_15])
def test_css_syndromes_decouple(ctor):
    """X errors trigger only Z-type generator bits and vice versa."""
    code = ctor()
    x_bits = [i for i, g in enumerate(code.generators) if g.x]
    z_bits = [i for i, g in enumerate(code.generators) if g.z]
    for q in range(code.n):
        sx = syndrome(code, Pauli.single(code.n, q, "X"))
        sz = syndrome(code, Pauli.single(code.n, q, "Z"))
        assert all((sx >> i) & 1 == 0 for i in x_bits)
        assert all((sz >> i) & 1 == 0 for i in z_bits)


# -- reference scans ------------------------------------------------------------
# The two Python-object scans the array builders replaced, kept as test oracles.

def reference_decoder(code):
    """Weight-by-weight scan: syndrome -> (x, z, weight) of the first
    correction found, ties broken on the smallest (x, z)."""
    n = code.n
    letter_syndrome = {(q, letter): syndrome(code, Pauli.single(n, q, letter))
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
    return StabilizerCode("derived", code.n, tuple(gens), code.logical_x, code.logical_z)


@settings(max_examples=60, deadline=None)
@given(derived_codes(), st.data())
def test_group_membership_matches_reference(code, data):
    """``p in stabilizer_group(code)`` exactly when ``p`` is a signed group
    element, for elements, their negations, other phases and random Paulis."""
    elements = sorted(signed(s) for s in stabilizer_elements(code))
    x, z, e = data.draw(st.sampled_from(elements))
    n = code.n
    word = st.integers(0, (1 << n) - 1)
    candidates = [Pauli(n, x, z, e), Pauli(n, x, z, e).negate(),
                  Pauli(n, x, z, data.draw(st.integers(0, 3))),
                  Pauli(n, data.draw(word), data.draw(word), data.draw(st.integers(0, 3)))]
    group = stabilizer_group(code)
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
