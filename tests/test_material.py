"""Radial return, free-energy density and its exact strain gradient.

Expected numbers for the single-step shear example were derived by hand
from the closed-form corrector (trial deviator 2*mu*eps12 on the 12 slot,
delta_gamma = f_trial / (2*(mu + (H+C)/3)), etc.) and are frozen here as
literals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demplast.tensor as t2
from demplast import oracle
from demplast.material import (ElasticConstants, HardeningLaw, PlasticState,
                               density_strain_gradient, drive_point,
                               elastic_stress, energy_density,
                               radial_return, return_map, von_mises,
                               yield_value)

from conftest import KAPPA, MU, SY0, rand_sym

# One shear step of tensor strain eps12 = 0.05 from the virgin state.
DGAMMA = 0.01230634968160034
SIG12_ISO = 31.76814789665212
EBAR_ISO = 0.010048092438727688
Q12_KIN = 2.900634437170836
EPSP12 = 0.008701903311512509

SHEAR_STEP = t2.tensor(t12=0.05)


def test_validation():
    with pytest.raises(ValueError):
        ElasticConstants(mu=-1.0, kappa=1.0)
    with pytest.raises(ValueError):
        HardeningLaw(sigma_y0=0.0, H=1.0)
    with pytest.raises(ValueError):
        HardeningLaw(sigma_y0=1.0, H=1.0, C=1.0, mode="isotropic")
    with pytest.raises(ValueError):
        HardeningLaw(sigma_y0=1.0, H=1.0, mode="kinematic")
    with pytest.raises(ValueError):
        HardeningLaw(sigma_y0=1.0, C=0.0, mode="kinematic")
    with pytest.raises(ValueError):
        HardeningLaw(sigma_y0=1.0, mode="mixed")


def test_elastic_stress_decomposition(consts):
    rng = np.random.default_rng(0)
    eps = rand_sym(rng, (4,), scale=0.01)
    sig = elastic_stress(consts, eps)
    np.testing.assert_allclose(t2.deviator(sig),
                               2 * consts.mu * t2.deviator(eps), rtol=1e-13)
    np.testing.assert_allclose(t2.trace(sig),
                               3 * consts.kappa * t2.trace(eps), rtol=1e-13)


def test_single_step_isotropic(consts, iso_law):
    res = radial_return(consts, iso_law, PlasticState.zero(), SHEAR_STEP)
    assert res.yielded
    np.testing.assert_allclose(res.delta_gamma, DGAMMA, rtol=1e-14)
    np.testing.assert_allclose(res.state.sigma[3], SIG12_ISO, rtol=1e-14)
    np.testing.assert_allclose(res.state.ebar_p, EBAR_ISO, rtol=1e-14)
    np.testing.assert_allclose(res.state.eps_p[3], EPSP12, rtol=1e-14)
    np.testing.assert_array_equal(res.state.q, np.zeros(6))
    # only the 12 slot is active in simple shear
    assert np.all(res.state.sigma[[0, 1, 2, 4, 5]] == 0.0)


def test_single_step_kinematic(consts, kin_law):
    res = radial_return(consts, kin_law, PlasticState.zero(), SHEAR_STEP)
    assert res.yielded
    np.testing.assert_allclose(res.delta_gamma, DGAMMA, rtol=1e-14)
    np.testing.assert_allclose(res.state.sigma[3], SIG12_ISO, rtol=1e-14)
    np.testing.assert_allclose(res.state.q[3], Q12_KIN, rtol=1e-14)
    np.testing.assert_allclose(res.state.ebar_p, EBAR_ISO, rtol=1e-14)


def test_elastic_step_keeps_trial_exactly(consts, iso_law):
    rng = np.random.default_rng(1)
    state = PlasticState.zero()
    d_eps = rand_sym(rng, scale=1e-3)          # far inside the surface
    res = radial_return(consts, iso_law, state, d_eps)
    assert not res.yielded
    assert res.delta_gamma == 0.0
    want = elastic_stress(consts, d_eps)
    np.testing.assert_array_equal(res.state.sigma, want)
    np.testing.assert_array_equal(res.state.eps_p, np.zeros(6))
    assert res.state.ebar_p == 0.0


def test_committed_state_not_mutated(consts, iso_law):
    state = PlasticState.zero()
    before = state.copy()
    radial_return(consts, iso_law, state, SHEAR_STEP)
    np.testing.assert_array_equal(state.sigma, before.sigma)
    np.testing.assert_array_equal(state.eps_p, before.eps_p)


def _random_walk_states(law, n=200, seed=2, scale=0.03):
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    rng = np.random.default_rng(seed)
    state = PlasticState.zero(n)
    for _ in range(4):
        d_eps = rand_sym(rng, (n,), scale=scale)
        res = radial_return(consts, law, state, d_eps)
        state = res.state
    return consts, state, res


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_discrete_consistency_and_invariants(mode):
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    consts, state, res = _random_walk_states(law)
    plastic = res.yielded
    assert plastic.any() and (~plastic).any()
    # updated state sits on the yield surface where the step was plastic
    f_new = yield_value(law, state.sigma, state.q, state.ebar_p)
    assert np.all(np.abs(res.delta_gamma * f_new) <= 1e-8 * SY0)
    assert np.all(f_new[~plastic] <= 1e-9)
    assert np.all(res.delta_gamma >= 0.0)
    # plastic flow is deviatoric
    assert np.all(np.abs(t2.trace(state.eps_p)) <= 1e-12)
    # equivalent plastic strain never decreases
    assert np.all(state.ebar_p >= 0.0)


def test_batched_matches_scalar(consts, iso_law):
    rng = np.random.default_rng(3)
    d_eps = rand_sym(rng, (10,), scale=0.05)
    batched = radial_return(consts, iso_law, PlasticState.zero(10), d_eps)
    for i in range(10):
        single = radial_return(consts, iso_law, PlasticState.zero(),
                               d_eps[i])
        np.testing.assert_array_equal(batched.state.sigma[i],
                                      single.state.sigma)
        np.testing.assert_array_equal(batched.state.ebar_p[i],
                                      single.state.ebar_p)


def test_per_point_material_parameters():
    rng = np.random.default_rng(4)
    d_eps = rand_sym(rng, (6,), scale=0.05)
    sy0 = np.array([50.0, 60.0, 50.0, 60.0, 50.0, 60.0])
    res, _ = return_map(MU, KAPPA, sy0, 500.0, 0.0, PlasticState.zero(6),
                        d_eps)
    for i in range(6):
        law = HardeningLaw(sigma_y0=sy0[i], H=500.0)
        single = radial_return(ElasticConstants(mu=MU, kappa=KAPPA), law,
                               PlasticState.zero(), d_eps[i])
        np.testing.assert_array_equal(res.state.sigma[i], single.state.sigma)


def test_radial_substep_invariance(consts, iso_law, kin_law):
    """Splitting a proportional segment must not change the endpoint."""
    for law in (iso_law, kin_law):
        one = drive_point(consts, law, [t2.tensor(t12=0.08)])[-1]
        path = [t2.tensor(t12=g) for g in np.linspace(0.01, 0.08, 8)]
        many = drive_point(consts, law, path)[-1]
        np.testing.assert_allclose(many.sigma, one.sigma, atol=1e-10)
        np.testing.assert_allclose(many.ebar_p, one.ebar_p, atol=1e-12)
        np.testing.assert_allclose(many.q, one.q, atol=1e-10)


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_drive_point_matches_scalar_curve(consts, mode):
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    gammas = 0.125 * np.array([1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3, 0.0,
                               -1 / 3, -2 / 3, -1.0, -2 / 3, -1 / 3, 0.0])
    states = drive_point(consts, law, [t2.tensor(t12=g / 2) for g in gammas])
    tau, ebar, back = oracle.analytic_shear_curve(consts, law, gammas)
    got_tau = np.array([s.sigma[3] for s in states])
    got_ebar = np.array([s.ebar_p for s in states])
    got_back = np.array([s.q[3] for s in states])
    np.testing.assert_allclose(got_tau, tau, atol=1e-10)
    np.testing.assert_allclose(got_ebar, ebar, atol=1e-12)
    np.testing.assert_allclose(got_back, back, atol=1e-10)


def test_kinematic_reverse_yield_window(consts, kin_law):
    """After unloading from a plastic excursion, reverse yielding starts
    once the stress has dropped by 2 sigma_y0 / sqrt(3)."""
    window = oracle.reverse_yield_window(kin_law)
    np.testing.assert_allclose(window, 57.73502691896258, rtol=1e-13)
    gammas = np.concatenate([[0.125], 0.125 - np.linspace(0.0, 0.25, 201)[1:]])
    tau, ebar, _ = oracle.analytic_shear_curve(consts, kin_law, gammas)
    peak_tau, peak_ebar = tau[0], ebar[0]
    moved = ebar > peak_ebar + 1e-12
    first = np.flatnonzero(moved)[0]
    drop_before = peak_tau - tau[first - 1]
    drop_after = peak_tau - tau[first]
    assert drop_before <= window + 1e-9 <= drop_after + 1e-6


def test_von_mises():
    # uniaxial sigma_11 = s has equivalent stress s
    np.testing.assert_allclose(von_mises(t2.tensor(t11=30.0)), 30.0,
                               rtol=1e-13)
    # pure shear: vm = sqrt(3) * tau
    np.testing.assert_allclose(von_mises(t2.tensor(t12=10.0)),
                               np.sqrt(3.0) * 10.0, rtol=1e-13)


def test_elastic_energy_density_value(consts, iso_law):
    """Unit-volume elastic shear example: psi = 2 mu eps12^2."""
    eps = t2.tensor(t12=0.02)
    res = radial_return(consts, iso_law, PlasticState.zero(), eps)
    assert not res.yielded
    dens = energy_density(iso_law.H, iso_law.C, True, res.state,
                          PlasticState.zero(), eps)
    np.testing.assert_allclose(dens, 0.307696, rtol=1e-12)


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_energy_density_gradient_vs_fd(mode):
    """The hand-derived d(psi)/d(eps) must match central differences for
    random committed states, elastic and plastic points alike."""
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    n = 40
    _, committed, _ = _random_walk_states(law, n=n, seed=5, scale=0.02)
    rng = np.random.default_rng(6)
    eps_old = rand_sym(rng, (n,), scale=0.01)
    # small increments on the first half so both branches show up
    step_scale = np.where(np.arange(n) < n // 2, 0.002, 0.04)
    eps = eps_old + rand_sym(rng, (n,)) * step_scale[:, None]
    iso_mask = np.full(n, mode == "isotropic")

    def density(e):
        res, _ = return_map(MU, KAPPA, SY0, law.H, law.C, committed,
                            e - eps_old)
        return energy_density(law.H, law.C, iso_mask, res.state, committed, e)

    res, aux = return_map(MU, KAPPA, SY0, law.H, law.C, committed,
                          eps - eps_old)
    assert res.yielded.any() and (~res.yielded).any()
    grad = density_strain_gradient(MU, KAPPA, law.H, law.C, iso_mask,
                                   res.state, committed, eps, aux)
    # keep clear of the elastic/plastic switch, where the finite
    # difference would straddle the kink
    far = np.abs(aux.f_trial) > 1e-3
    assert far.sum() >= n - 2
    h = 1e-7
    w = t2.CONTRACTION_WEIGHTS
    for k in range(6):
        ep = eps.copy()
        em = eps.copy()
        ep[:, k] += h
        em[:, k] -= h
        fd = (density(ep) - density(em)) / (2 * h)
        # contraction weights: moving one packed slot moves both off-diagonal
        # matrix entries, so d(psi)/d(slot) = w_k * grad_k
        ana = w[k] * grad[:, k]
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-8)
        assert np.max(np.abs(ana - fd)[far] / scale[far]) < 2e-5, f"slot {k}"


def test_energy_gradient_is_stress_at_committed_elastic(consts, iso_law):
    """For a purely elastic step the density gradient is the stress plus
    the elastic predictor sensitivity, which collapses to sigma when the
    committed state is self-consistent."""
    eps = t2.tensor(t12=0.02, t11=0.01)
    res, aux = return_map(consts.mu, consts.kappa, iso_law.sigma_y0,
                          iso_law.H, iso_law.C, PlasticState.zero(), eps)
    grad = density_strain_gradient(consts.mu, consts.kappa, iso_law.H,
                                   iso_law.C, np.array(True), res.state,
                                   PlasticState.zero(), eps, aux)
    np.testing.assert_allclose(grad, res.state.sigma, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.2, max_value=0.2),
       st.floats(min_value=-0.2, max_value=0.2),
       st.floats(min_value=-0.2, max_value=0.2))
def test_property_plastic_state_admissible(e11, e12, e23):
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    law = HardeningLaw(sigma_y0=SY0, H=500.0)
    res = radial_return(consts, law, PlasticState.zero(),
                        t2.tensor(t11=e11, t12=e12, t23=e23))
    f = yield_value(law, res.state.sigma, res.state.q, res.state.ebar_p)
    assert f <= 1e-8 * SY0
    assert res.delta_gamma >= 0.0
    assert abs(t2.trace(res.state.eps_p)) <= 1e-12
