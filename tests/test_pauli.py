import numpy as np
import pytest

from nuconcat.gates import pauli_matrix
from nuconcat.pauli import DimensionError, Pauli
from reference import display_phase, from_letters, is_identity, restrict


def test_single_qubit_letters():
    for letter in "IXYZ":
        p = Pauli.from_string(letter)
        assert p.letter(0) == letter
        assert str(p) == "+" + letter


def test_multiply_xz_phase():
    x = Pauli.from_string("XI")
    z = Pauli.from_string("ZI")
    assert str(x * z) == "-iYI"
    assert display_phase(x * z) == -1j


def test_hermitian_has_plus_phase():
    """Letters from bit masks print without a phase, Y included."""
    for x, z, text in ((0b011, 0b010, "+XYI"), (0, 0b100, "+IIZ"), (0b111, 0b111, "+YYY")):
        p = Pauli.hermitian(3, x, z)
        assert str(p) == text and p == Pauli.from_string(text)


def test_self_inverse_and_group_inverse():
    zzz = from_letters(7, {0: "Z", 1: "Z", 6: "Z"})
    assert is_identity(zzz * zzz)
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                  int(rng.integers(0, 4)))
        assert is_identity(p * p.inverse())


def test_weight():
    assert Pauli.identity(7).weight() == 0
    assert from_letters(7, {0: "Z", 1: "Z", 6: "Z"}).weight() == 3
    assert Pauli.from_string("Y" * 15).weight() == 15


def test_commutes():
    assert Pauli.from_string("XX").commutes(Pauli.from_string("ZZ"))
    assert not Pauli.from_string("XI").commutes(Pauli.from_string("ZI"))
    p = Pauli.from_string("-iXYZ")
    assert p.commutes(Pauli.identity(3))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        Pauli.from_string("X") * Pauli.from_string("XX")
    with pytest.raises(DimensionError):
        Pauli.from_string("X").commutes(Pauli.from_string("XX"))


def test_string_round_trip():
    for text in ("+XIZZY", "-iYYYY", "+iIXZ", "-ZZ", "+I"):
        assert str(Pauli.from_string(text)) == text


def test_embed_and_restrict():
    p = Pauli.from_string("XZ")
    e = p.embed(5, [1, 4])
    assert str(e) == "+IXIIZ"
    assert str(restrict(e, [1, 4])) == "+XZ"
    assert str(restrict(e, [0, 2])) == "+II"


def test_phase_convention_y_is_ixz():
    y = Pauli.from_string("Y")
    ref = 1j * pauli_matrix(Pauli.from_string("X")) @ pauli_matrix(Pauli.from_string("Z"))
    assert np.allclose(pauli_matrix(y), ref)


@pytest.mark.parametrize("n,cases", [(1, 10_000), (2, 10_000)])
def test_randomized_algebra_against_dense(n, cases):
    """Multiplication and commutation agree with dense matrix algebra."""
    rng = np.random.default_rng(1234 + n)
    mats = {}

    def matrix(p):
        key = (p.x, p.z, p.phase_exp)
        if key not in mats:
            mats[key] = pauli_matrix(p)
        return mats[key]

    for _ in range(cases):
        p = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                  int(rng.integers(0, 4)))
        q = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                  int(rng.integers(0, 4)))
        assert np.allclose(matrix(p) @ matrix(q), matrix(p * q))
        commutator = matrix(p) @ matrix(q) - matrix(q) @ matrix(p)
        assert p.commutes(q) == np.allclose(commutator, 0)


def test_commutation_consistent_with_multiplication():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        p = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 0)
        q = Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 0)
        pq, qp = p * q, q * p
        assert (pq.x, pq.z) == (qp.x, qp.z)
        same_phase = pq.phase_exp == qp.phase_exp
        assert p.commutes(q) == same_phase
