import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuconcat.codes import BARE, CodeConstructionError, min_weight_logical, staircase_support
from nuconcat.concat import (LayoutError, bare_layout, concatenated_distance, flatten,
                             lift, non_uniform_layout, parse_layout, uniform_layout)
from nuconcat.pauli import Pauli
from reference import commutes
from reference import concatenated_distance as reference_distance
from reference import hierarchical_decode, is_uniform, single


def test_non_uniform_layout_encodes_staircase_support(cat):
    rm15 = cat.code("rm15")
    for name, coupled in (("steane", (0, 1, 2)), ("five_prime", (0, 2, 4))):
        code = cat.code(name)
        assert staircase_support(code) == coupled
        assert len(coupled) == min_weight_logical(code, "Z").weight()
        layout = non_uniform_layout(code, rm15)
        assert tuple(q for q, inner in enumerate(layout.assignment) if inner is not BARE) == coupled


@pytest.mark.parametrize("total", [105, 49, 75, 47, 73, 55])
def test_layout_sizes(layouts, total):
    assert layouts[total].total_n == total


def test_uniformity_flags(layouts, cat):
    assert is_uniform(layouts[105])
    assert is_uniform(layouts[75])
    assert not is_uniform(layouts[49])
    assert not is_uniform(layouts[73])
    assert is_uniform(bare_layout(cat.code("steane")))


def test_descriptor_round_trip(layouts, cat):
    for layout in layouts.values():
        again = parse_layout(layout.descriptor, cat.code)
        assert again.descriptor == layout.descriptor
        assert again.total_n == layout.total_n
    short = parse_layout("nonuniform:steane:rm15", cat.code)
    assert short.total_n == 49
    assert parse_layout("bare:steane", cat.code).total_n == 7
    with pytest.raises(LayoutError):
        parse_layout("nope:steane", cat.code)


@pytest.mark.parametrize("with_bare,without", [
    ("b2:steane:rm15:bare", "nonuniform:steane:rm15"),
    ("uniform:steane:bare", "bare:steane"),
    ("nonuniform:steane:bare", "bare:steane"),
])
def test_bare_is_accepted_in_every_inner_position(cat, with_bare, without):
    got, want = parse_layout(with_bare, cat.code), parse_layout(without, cat.code)
    assert got.descriptor == want.descriptor
    assert flatten(got) == flatten(want)


@pytest.mark.parametrize("total,n_gens", [(105, 104), (49, 48), (75, 74),
                                          (47, 46), (73, 72), (55, 54)])
def test_flatten_counts(layouts, total, n_gens):
    gens = flatten(layouts[total]).generators
    assert len(gens) == n_gens


def test_flatten_of_49_structure(layouts):
    gens = flatten(layouts[49]).generators
    inner = [g for g in gens if len(set(g.support)) and max(g.support) < 45 and min(g.support) >= 0
             and all((q // 15) == (g.support[0] // 15) for q in g.support)]
    assert len(inner) == 42  # 3 blocks x 14 generators, each block-local


def test_bare_layout_flatten_equals_outer(cat):
    code = cat.code("steane")
    flat = flatten(bare_layout(code))
    assert flat.generators == code.generators
    assert (flat.logical_x, flat.logical_z) == (code.logical_x, code.logical_z)


def test_lift_weights(layouts, cat):
    steane = cat.code("steane")
    lay = layouts[49]
    lifted = lift(lay, steane.logical_z)
    assert lifted.n == 49
    # Z letters on the three encoded qubits lift to weight-15 logical Zs? No:
    # the stored representative is Z on all 15, so the lift is heavy; the
    # minimum-weight witness machinery is exercised separately.
    assert lifted.weight() == 3 * 15 + 4


@pytest.mark.parametrize("total", [105, 49, 75, 47, 73, 55])
def test_weight_one_errors_all_corrected(layouts, total):
    lay = layouts[total]
    for q in range(lay.total_n):
        for letter in "XYZ":
            err = single(lay.total_n, q, letter)
            assert hierarchical_decode(lay, err) == "I"


def test_hierarchical_decode_examples(layouts, cat):
    lay = layouts[49]
    rm = cat.code("rm15")
    inner_z = min_weight_logical(rm, "Z")
    inner_z = Pauli(49, inner_z.x, inner_z.z, inner_z.phase_exp)
    assert hierarchical_decode(lay, inner_z) == "I"
    outer_z = lift(lay, cat.code("steane").logical_z)
    assert hierarchical_decode(lay, outer_z) == "Z"


@pytest.mark.parametrize("total,expected", [
    (105, 9), (49, 5), (75, 9), (47, 5), (73, 9), (55, 9),
])
def test_concatenated_distances(layouts, total, expected):
    result = concatenated_distance(layouts[total])
    assert result.distance == expected
    assert result.witness.weight() == expected


def test_uniform_distance_is_product(layouts):
    # d1 * d2 = 3 * 3 for the uniform construction
    assert concatenated_distance(layouts[105]).distance == 9


def test_49_witness_decomposition(layouts):
    result = concatenated_distance(layouts[49])
    outer = result.outer_element
    assert outer.weight() == 3
    encoded = [q for q in outer.support if q < 3]
    bare = [q for q in outer.support if q >= 3]
    assert len(encoded) == 1 and len(bare) == 2


def test_witness_is_verified_logical(layouts):
    result = concatenated_distance(layouts[49])
    flat = flatten(layouts[49])
    for g in flat.generators:
        assert commutes(result.witness, g)
    assert not (commutes(result.witness, flat.logical_x) and commutes(result.witness, flat.logical_z))


def test_degenerate_bare_layout_distance(cat):
    result = concatenated_distance(bare_layout(cat.code("steane")))
    assert result.distance == 3


def signed(p):
    return (p.x, p.z, p.phase_exp)


@st.composite
def explicit_layouts(draw, cat):
    outer = draw(st.sampled_from(["steane", "five_qubit", "five_prime"]))
    names = draw(st.lists(st.sampled_from(["bare", "steane", "five_qubit", "five_prime", "rm15"]),
                          min_size=cat.code(outer).n, max_size=cat.code(outer).n))
    return f"outer={outer};assign=" + ",".join(names)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_concatenated_distance_matches_reference(cat, data):
    layout = parse_layout(data.draw(explicit_layouts(cat)), cat.code)
    got, want = concatenated_distance(layout), reference_distance(layout)
    assert got.distance == want.distance
    assert signed(got.outer_element) == signed(want.outer_element)
    assert got.outer_class == want.outer_class
    assert signed(got.witness) == signed(want.witness)


def test_distance_of_a_15_qubit_outer_code(cat):
    """rm15 as the outer code with Steane blocks: d = 3 * 3.  The outer scan
    refuses outer codes past 20 qubits, like every coset scan."""
    layout = parse_layout("uniform:rm15:steane", cat.code)
    result = concatenated_distance(layout)
    assert (result.distance, result.outer_class, str(result.outer_element)) == (
        9, "Z", "+ZZZIIIIIIIIIIII")
    want = reference_distance(layout)
    assert signed(result.witness) == signed(want.witness) and result.distance == want.distance
    five = cat.code("five_qubit")
    with pytest.raises(CodeConstructionError, match="refused at n=25"):
        concatenated_distance(bare_layout(flatten(uniform_layout(five, five))))
