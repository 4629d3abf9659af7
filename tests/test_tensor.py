"""Packed symmetric-tensor algebra against plain 3x3 matrix arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demplast.tensor as t2

from conftest import rand_sym

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
packed = st.lists(finite, min_size=6, max_size=6).map(np.array)


def test_component_order():
    a = t2.tensor(t11=1, t22=2, t33=3, t12=4, t13=5, t23=6)
    m = t2.to_matrix(a)
    assert m[0, 0] == 1 and m[1, 1] == 2 and m[2, 2] == 3
    assert m[0, 1] == m[1, 0] == 4
    assert m[0, 2] == m[2, 0] == 5
    assert m[1, 2] == m[2, 1] == 6


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    a = rand_sym(rng, (4, 5))
    m = t2.to_matrix(a)
    assert m.shape == (4, 5, 3, 3)
    np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))
    np.testing.assert_array_equal(t2.from_matrix(m), a)


def test_from_matrix_symmetrizes():
    m = np.arange(9.0).reshape(3, 3)
    a = t2.from_matrix(m)
    np.testing.assert_allclose(t2.to_matrix(a), 0.5 * (m + m.T))


def test_contract_matches_double_dot():
    rng = np.random.default_rng(1)
    a, b = rand_sym(rng, (7,)), rand_sym(rng, (7,))
    want = np.einsum("nij,nij->n", t2.to_matrix(a), t2.to_matrix(b))
    np.testing.assert_allclose(t2.contract(a, b), want, rtol=1e-14)


def test_norm_is_frobenius():
    rng = np.random.default_rng(2)
    a = rand_sym(rng, (5,))
    want = np.linalg.norm(t2.to_matrix(a), axis=(-2, -1))
    np.testing.assert_allclose(t2.norm(a), want, rtol=1e-14)


def test_trace_deviator_spherical():
    rng = np.random.default_rng(3)
    a = rand_sym(rng, (6,))
    np.testing.assert_allclose(t2.trace(a), a[:, :3].sum(axis=1))
    dev = t2.deviator(a)
    np.testing.assert_allclose(t2.trace(dev), 0.0, atol=1e-12)
    np.testing.assert_allclose(dev + t2.scale_identity(t2.trace(a) / 3), a,
                               rtol=1e-14)


def test_identity_and_scale():
    assert t2.trace(t2.identity()) == 3.0
    np.testing.assert_array_equal(t2.scale_identity(2.5),
                                  t2.tensor(2.5, 2.5, 2.5))
    s = np.array([1.0, 2.0])
    assert t2.scale_identity(s).shape == (2, 6)


def test_deviator_orthogonal_to_spherical():
    rng = np.random.default_rng(4)
    a, b = rand_sym(rng), rand_sym(rng)
    spherical = t2.scale_identity(t2.trace(b) / 3)
    assert abs(t2.contract(t2.deviator(a), spherical)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(packed)
def test_contract_self_is_norm_squared(a):
    n2 = t2.contract(a, a)
    assert n2 >= 0.0
    np.testing.assert_allclose(n2, t2.norm(a) ** 2, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(packed, packed)
def test_contract_symmetric_bilinear(a, b):
    np.testing.assert_allclose(t2.contract(a, b), t2.contract(b, a),
                               rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(t2.contract(2.0 * a, b),
                               2.0 * t2.contract(a, b),
                               rtol=1e-12, atol=1e-9)


def test_contract_shape_mismatch():
    with pytest.raises(ValueError):
        t2.contract(np.zeros(5), np.zeros(5))
