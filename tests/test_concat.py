import pytest

from nuconcat.codes import min_weight_logical, staircase_support
from nuconcat.concat import (LayoutError, bare_layout, concatenated_distance, flatten,
                             lift, parse_layout, partition_from_gadget)
from nuconcat.pauli import Pauli
from reference import hierarchical_decode


def test_partition_sizes(cat):
    p = partition_from_gadget(cat.code("steane"))
    assert len(p.b1) == 3 and len(p.b2) == 4
    p = partition_from_gadget(cat.code("five_prime"))
    assert len(p.b1) == 3 and len(p.b2) == 2
    full = partition_from_gadget(cat.code("steane"), range(7))
    assert not full.b2


def test_partition_matches_staircase(cat):
    for name in ("steane", "five_prime"):
        code = cat.code(name)
        p = partition_from_gadget(code)
        assert p.b1 == set(staircase_support(code))
        assert len(p.b1) == min_weight_logical(code, "Z").weight()


def test_empty_support_rejected(cat):
    with pytest.raises(LayoutError):
        partition_from_gadget(cat.code("steane"), ())


@pytest.mark.parametrize("total", [105, 49, 75, 47, 73, 55])
def test_layout_sizes(layouts, total):
    assert layouts[total].total_n == total


def test_uniformity_flags(layouts, cat):
    assert layouts[105].is_uniform
    assert layouts[75].is_uniform
    assert not layouts[49].is_uniform
    assert not layouts[73].is_uniform
    assert bare_layout(cat.code("steane")).is_uniform


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
            err = Pauli.single(lay.total_n, q, letter)
            assert hierarchical_decode(lay, err) == "I"


def test_hierarchical_decode_examples(layouts, cat):
    lay = layouts[49]
    rm = cat.code("rm15")
    inner_z = min_weight_logical(rm, "Z").embed(49, range(15))
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
        assert result.witness.commutes(g)
    assert not (result.witness.commutes(flat.logical_x) and result.witness.commutes(flat.logical_z))


def test_degenerate_bare_layout_distance(cat):
    result = concatenated_distance(bare_layout(cat.code("steane")))
    assert result.distance == 3
