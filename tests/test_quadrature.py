import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnbudget import (SYMPLECTIC_FORM, arccot, db_from_r, mat2, mat_inv,
                      ponderomotive_decompose, ponderomotive_matrix, r_from_db,
                      rotation_matrix, squeeze_matrix)
from qnbudget.quadrature import all_true, any_true


@st.composite
def masks(draw):
    """A bool array of a shape the program reduces, one value throughout
    but for up to three flipped entries, or its transpose (a strided view)."""
    shape = draw(st.sampled_from([(0,), (3,), (8192,), (3, 4000)]))
    mask = np.full(shape, draw(st.booleans()))
    flat = mask.reshape(-1)
    for i in draw(st.lists(st.integers(0, max(mask.size - 1, 0)),
                           max_size=3 if mask.size else 0)):
        flat[i] = not flat[i]
    return mask.T if draw(st.booleans()) else mask


class TestMaskReductions:
    """any_true and all_true count the True entries of an array; they read
    as ndarray.any() and .all() on every mask, scalar masks included."""

    @given(st.one_of(masks(),
                     st.booleans().map(np.array),        # 0-d arrays
                     st.booleans().map(np.bool_),        # numpy scalars
                     st.booleans()))                     # Python bools
    def test_read_as_any_and_all(self, mask):
        assert any_true(mask) is bool(np.asarray(mask).any())
        assert all_true(mask) is bool(np.asarray(mask).all())


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation_matrix(0.0), np.eye(2), atol=0)

    def test_quarter_rotation(self):
        m = rotation_matrix(math.pi / 2)
        assert np.allclose(m, [[0, -1], [1, 0]], atol=1e-15)

    def test_determinant_one(self):
        for angle in (0.3, -1.7, 12.0):
            assert abs(np.linalg.det(rotation_matrix(angle)) - 1.0) < 1e-14

    def test_group_law(self):
        lhs = rotation_matrix(0.3) @ rotation_matrix(0.4)
        assert np.allclose(lhs, rotation_matrix(0.7), atol=1e-14)

    def test_periodicity(self):
        assert np.allclose(rotation_matrix(1.1),
                           rotation_matrix(1.1 + 2 * math.pi), atol=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        # as a float, in a list and in an array
        for angle in (bad, [0.1, bad], np.array([bad, 0.2])):
            with pytest.raises(ValueError, match="must be finite"):
                rotation_matrix(angle)


class TestSqueeze:
    def test_no_squeeze_is_identity(self):
        for theta in (0.0, 0.9, 4.0):
            assert np.allclose(squeeze_matrix(0.0, theta), np.eye(2), atol=1e-15)

    def test_unit_squeeze_diagonal(self):
        m = squeeze_matrix(1.0, 0.0)
        assert m[0, 0] == pytest.approx(math.e, rel=1e-12)
        assert m[1, 1] == pytest.approx(1.0 / math.e, rel=1e-12)
        assert m[0, 1] == m[1, 0] == 0.0
        # one e-fold is just short of 9 dB of phase squeezing
        assert db_from_r(1.0) == pytest.approx(8.685889638065036, rel=1e-12)

    def test_rotated_squeeze_entries(self):
        # hand expansion: at theta = pi/4 the entries are cosh r and sinh r
        m = squeeze_matrix(0.5, math.pi / 4)
        expect = mat2(math.cosh(0.5), math.sinh(0.5),
                      math.sinh(0.5), math.cosh(0.5))
        assert np.allclose(m, expect, rtol=1e-12)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        assert np.allclose(m, m.T, atol=1e-15)

    def test_inverse_flips_sign_of_r(self):
        m = squeeze_matrix(0.7, 1.1)
        assert np.allclose(mat_inv(m), squeeze_matrix(-0.7, 1.1), atol=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            squeeze_matrix(25.0, 0.0)
        squeeze_matrix(20.0, 0.0)  # boundary value allowed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        # r or theta, as a float, in a list and in an array
        for value in (bad, [0.1, bad], np.array([bad, 0.2])):
            for args in ((value, 0.3), (0.5, value)):
                with pytest.raises(ValueError, match="must be finite"):
                    squeeze_matrix(*args)

    def test_pi_periodic_in_theta(self):
        assert np.allclose(squeeze_matrix(0.4, 0.2),
                           squeeze_matrix(0.4, 0.2 + math.pi), atol=1e-14)


class TestPonderomotive:
    def test_zero_gain_identity(self):
        assert np.allclose(ponderomotive_matrix(0.0), np.eye(2), atol=0)

    def test_matrix_form(self):
        assert np.allclose(ponderomotive_matrix(2.0), [[1, 0], [-2, 1]], atol=0)

    def test_unit_determinant(self):
        assert np.linalg.det(ponderomotive_matrix(7.3)) == pytest.approx(
            1.0, abs=1e-15)

    def test_negative_gain_rejected(self):
        # as are NaN and infinities: as a float, in a list and in an array
        for bad in (-1.0, -5e-324, math.nan, math.inf, -math.inf):
            for gain in (bad, [2.0, bad], np.array([bad, 0.0])):
                with pytest.raises(ValueError, match="finite and >= 0"):
                    ponderomotive_matrix(gain)

    def test_decompose_known_point(self):
        phi, r, theta = ponderomotive_decompose(2.0)
        assert phi == pytest.approx(-math.pi / 4, rel=1e-12)
        assert theta == pytest.approx(math.pi / 8, rel=1e-12)
        assert r == pytest.approx(-math.asinh(1.0), rel=1e-12)
        assert r == pytest.approx(-0.881373587, rel=1e-8)

    def test_decompose_small_gain_limit(self):
        phi, r, theta = ponderomotive_decompose(1e-8)
        assert abs(phi) < 1e-8
        assert abs(r) < 1e-8
        assert theta == pytest.approx(math.pi / 4, rel=1e-7)
        product = squeeze_matrix(r, theta) @ rotation_matrix(phi)
        assert np.allclose(product, np.eye(2), atol=1e-8)

    def test_recomposition(self):
        for gain in (0.016, 1e-3, 1.0, 1e3):
            phi, r, theta = ponderomotive_decompose(gain)
            product = squeeze_matrix(r, theta) @ rotation_matrix(phi)
            assert np.abs(product - ponderomotive_matrix(gain)).max() < 1e-10

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_decompose_rejects_degenerate(self, bad):
        with pytest.raises(ValueError):
            ponderomotive_decompose(bad)


# each constructor computes in float64 whatever the dtype of its argument:
# a float32 r once moved the matrix by 5e-8, and a bool gave a float16 one
@pytest.mark.parametrize("value", [
    np.float32(0.3), np.array([0.3, -1.7], dtype=np.float32), True,
    np.array([True, False]), 2, np.array([2, 0, 1]), np.int8(1)])
@pytest.mark.parametrize("build", [
    rotation_matrix, squeeze_matrix, lambda x: squeeze_matrix(0.4, x),
    lambda x: ponderomotive_matrix(np.abs(x))])
def test_arguments_are_read_as_float64(build, value):
    got, want = build(value), build(np.asarray(value, dtype=float))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


class TestDecibels:
    def test_known_values(self):
        assert db_from_r(0.0) == 0.0
        assert db_from_r(1.0) == pytest.approx(8.685889638065036, rel=1e-12)
        assert r_from_db(30.0) == pytest.approx(3.453877639491069, rel=1e-12)

    def test_round_trip(self):
        for r in (-3.0, 0.1, 2.5):
            assert r_from_db(db_from_r(r)) == pytest.approx(r, abs=1e-12)
        for db in (-10.0, 0.0, 17.0):
            assert db_from_r(r_from_db(db)) == pytest.approx(db, abs=1e-12)


class TestAlgebra:
    def test_symplectic_property(self):
        rng = np.random.default_rng(7)
        j = SYMPLECTIC_FORM
        for _ in range(100):
            mats = [rotation_matrix(rng.uniform(-10, 10)),
                    squeeze_matrix(rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi)),
                    ponderomotive_matrix(10 ** rng.uniform(-3, 2))]
            for m in mats:
                assert np.abs(m @ j @ m.T - j).max() < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        count = 0
        while count < 100:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if np.linalg.cond(m) > 1e3:
                continue
            count += 1
            assert np.abs(m @ mat_inv(m) - np.eye(2)).max() < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            mat_inv(mat2(1.0, 2.0, 2.0, 4.0))

    def test_arccot_branch(self):
        assert arccot(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert 0 < arccot(5.0) < math.pi / 2
        assert math.pi / 2 < arccot(-5.0) < math.pi
