"""Radial return, free-energy density and its strain gradient (the stress).

Expected numbers for the single-step shear example were derived by hand
from the closed-form corrector (trial deviator 2*mu*eps12 on the 12 slot,
delta_gamma = f_trial / (2*(mu + (H+C)/3)), etc.) and are frozen here as
literals.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demplast.tensor as t2
from demplast import oracle
from demplast.material import (ElasticConstants, HardeningLaw, PlasticState,
                               StepConstants, density_strain_gradient,
                               drive_point, energy_density, radial_return,
                               return_map, von_mises)

from conftest import KAPPA, MU, SY0, rand_sym

# One shear step of tensor strain eps12 = 0.05 from the virgin state.
DGAMMA = 0.01230634968160034
SIG12_ISO = 31.76814789665212
EBAR_ISO = 0.010048092438727688
Q12_KIN = 2.900634437170836
EPSP12 = 0.008701903311512509

SHEAR_STEP = t2.tensor(t12=0.05)

SQ23 = np.sqrt(2.0 / 3.0)


def elastic_stress(consts, eps_e):
    """Reference elastic law sigma = 2 mu dev(eps_e) + kappa tr(eps_e) I."""
    return 2.0 * consts.mu * t2.deviator(eps_e) + t2.scale_identity(
        consts.kappa * t2.trace(eps_e))


def yield_value(law, sigma, q, ebar_p):
    """Reference f = ||dev(sigma - q)|| - sqrt(2/3) (sigma_y0 + H ebar)."""
    eta = t2.deviator(sigma) - t2.deviator(q)
    return t2.norm(eta) - SQ23 * (law.sigma_y0 + law.H * np.asarray(ebar_p))


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
    # the hardening mode is read from C > 0, so no field may be nan or
    # infinite, which would slip past the sign checks
    for fields in (dict(sigma_y0=np.nan, H=1.0),
                   dict(sigma_y0=50.0, H=np.inf),
                   dict(sigma_y0=np.inf, H=np.nan), dict(sigma_y0=np.inf),
                   dict(sigma_y0=50.0, H=-np.inf),
                   dict(sigma_y0=50.0, C=np.nan),
                   dict(sigma_y0=50.0, C=np.inf, mode="kinematic")):
        with pytest.raises(ValueError, match="finite"):
            HardeningLaw(**fields)
    for mu, kappa in ((np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0),
                      (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            ElasticConstants(mu=mu, kappa=kappa)


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
    """Fold random strain increments through the return map.  Returns the
    constants, the final state, the last result and the total strain, so
    the state is the self-consistent image of that strain history."""
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    rng = np.random.default_rng(seed)
    state = PlasticState.zero(n)
    eps = np.zeros((n, 6))
    for _ in range(4):
        d_eps = rand_sym(rng, (n,), scale=scale)
        res = radial_return(consts, law, state, d_eps)
        state = res.state
        eps = eps + d_eps
    return consts, state, res, eps


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_discrete_consistency_and_invariants(mode):
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    consts, state, res, _ = _random_walk_states(law)
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


@pytest.mark.parametrize("substeps", [0, -1])
def test_shear_curve_rejects_substeps_below_one(consts, kin_law, substeps):
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        oracle.analytic_shear_curve(consts, kin_law, [0.1], substeps)


def test_kinematic_reverse_yield_window(consts, kin_law):
    """After unloading from a plastic excursion, reverse yielding starts
    once the stress has dropped by 2 sigma_y0 / sqrt(3)."""
    window = 2.0 * kin_law.sigma_y0 / np.sqrt(3.0)
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
    dens = energy_density(res, eps)
    np.testing.assert_allclose(dens, 0.307696, rtol=1e-12)


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_energy_density_gradient_is_stress(mode):
    """d(psi)/d(eps) equals sigma_new at committed states produced by the
    return map from the committed strain, elastic and plastic points
    alike, in both hardening modes."""
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    n = 40
    _, committed, _, eps_old = _random_walk_states(law, n=n, seed=5,
                                                   scale=0.02)
    rng = np.random.default_rng(6)
    # small increments on the first half so both branches show up
    step_scale = np.where(np.arange(n) < n // 2, 0.002, 0.04)
    eps = eps_old + rand_sym(rng, (n,)) * step_scale[:, None]

    def density(e):
        res, _ = return_map(MU, KAPPA, SY0, law.H, law.C, committed,
                            e - eps_old)
        return energy_density(res, e)

    res, f_trial = return_map(MU, KAPPA, SY0, law.H, law.C, committed,
                              eps - eps_old)
    assert res.yielded.any() and (~res.yielded).any()
    grad = density_strain_gradient(res.state)
    np.testing.assert_array_equal(grad, res.state.sigma)
    # keep clear of the elastic/plastic switch, where the finite
    # difference would straddle the kink
    far = np.abs(f_trial) > 1e-3
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
        # matrix entries, so d(psi)/d(slot) = w_k * sigma_k
        ana = w[k] * res.state.sigma[:, k]
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-8)
        assert np.max(np.abs(ana - fd)[far] / scale[far]) < 2e-5, f"slot {k}"


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


# -- the kernels before they were trimmed, kept as a reference ---------------

def _col(x):
    return np.asarray(x, dtype=float)[..., None]


def reference_return_map(mu, kappa, sigma_y0, H, C, state, d_eps):
    """The radial return written out step by step, with the back-stress
    direction rebuilt from the deviator of (sigma_new - q_old)."""
    s_trial = t2.deviator(state.sigma) + 2.0 * _col(mu) * t2.deviator(d_eps)
    eta_trial = s_trial - t2.deviator(state.q)
    n_trial = t2.norm(eta_trial)
    f_trial = n_trial - SQ23 * (sigma_y0 + H * state.ebar_p)
    vol_trial = kappa * t2.trace(d_eps) + t2.trace(state.sigma) / 3.0
    sigma_trial = s_trial + t2.scale_identity(vol_trial)
    plastic = f_trial > 0.0
    delta_gamma = np.where(plastic, f_trial / (2.0 * (mu + (H + C) / 3.0)),
                           0.0)
    safe_n = np.where(n_trial > 0.0, n_trial, 1.0)
    n_dir = np.where(_col(plastic), eta_trial / _col(safe_n), 0.0)
    eps_p_new = state.eps_p + _col(delta_gamma) * n_dir
    ebar_p_new = state.ebar_p + SQ23 * delta_gamma
    sigma_new = sigma_trial - 2.0 * _col(mu) * _col(delta_gamma) * n_dir
    diff_dev = t2.deviator(sigma_new - state.q)
    m_dev = t2.norm(diff_dev)
    z_dir = np.where(_col(plastic),
                     diff_dev / _col(np.where(m_dev > 0.0, m_dev, 1.0)), 0.0)
    q_new = state.q + (2.0 / 3.0) * _col(delta_gamma * C) * z_dir
    return PlasticState(sigma_new, eps_p_new, ebar_p_new, q_new), plastic


def reference_energy_density(H, C, iso_mask, new, old, eps_total):
    """The incremental free-energy density term by term."""
    w = 0.5 * t2.contract(new.sigma, eps_total - new.eps_p)
    dissip = t2.contract(new.eps_p - old.eps_p, new.sigma)
    iso_part = 0.5 * H * new.ebar_p ** 2 \
        - H * new.ebar_p * (new.ebar_p - old.ebar_p)
    c_safe = np.where(iso_mask, 1.0, C)
    kin_part = 0.75 * t2.contract(new.q, new.q) / c_safe \
        - 1.5 * t2.contract(new.q, new.q - old.q) / c_safe
    return w + dissip + np.where(iso_mask, iso_part, kin_part)


def _assert_close(got, want, label):
    scale = np.abs(want).max()
    assert scale > 0.0, label
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale,
                               err_msg=label)


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_kernels_match_reference_formulas(mode):
    """Random pressurized, non-proportional increments from committed
    states carried through several steps, with per-point parameters:
    sigma, eps_p, ebar_p, q and psi agree with the step-by-step formulas
    to 1e-12 relative."""
    n = 500
    rng = np.random.default_rng(11 if mode == "isotropic" else 12)
    iso = mode == "isotropic"
    mu = rng.uniform(0.8, 1.2, n) * MU
    kappa = rng.uniform(0.8, 1.2, n) * KAPPA
    sy0 = rng.uniform(0.8, 1.2, n) * SY0
    H = rng.uniform(0.0, 800.0, n) if iso else np.zeros(n)
    C = np.zeros(n) if iso else rng.uniform(100.0, 800.0, n)
    iso_mask = np.full(n, iso)
    state = PlasticState.zero(n)
    eps = np.zeros((n, 6))
    plastic_steps = 0
    for step in range(6):
        # each step has its own random direction and a pressure part
        d_eps = rand_sym(rng, (n,), scale=0.01) \
            + t2.scale_identity(rng.uniform(-0.01, 0.01, n))
        res, _ = return_map(mu, kappa, sy0, H, C, state, d_eps)
        want, plastic = reference_return_map(mu, kappa, sy0, H, C, state,
                                             d_eps)
        np.testing.assert_array_equal(res.yielded, plastic)
        for name in ("sigma", "eps_p", "ebar_p") + (() if iso else ("q",)):
            _assert_close(getattr(res.state, name), getattr(want, name),
                          f"step {step} {name}")
        if iso:
            np.testing.assert_array_equal(res.state.q, want.q)
        psi = energy_density(res, eps + d_eps)
        _assert_close(psi, reference_energy_density(H, C, iso_mask, want,
                                                    state, eps + d_eps),
                      f"step {step} psi")
        plastic_steps += 0 < plastic.sum() < n
        state, eps = res.state, eps + d_eps
    assert plastic_steps >= 4


# -- the kernels as they were before the per-point constants and the
# stacked deviator pass, kept as a bitwise reference -------------------------

_EYE = t2.identity()


def _head_dev(a, tr):
    return a - (tr / 3.0)[..., None] * _EYE


def head_return_map(mu, kappa, sigma_y0, H, C, state, d_eps):
    two_mu = 2.0 * np.asarray(mu)[..., None]
    tr_sigma = t2.trace(state.sigma)
    tr_eps = t2.trace(d_eps)
    s_trial = _head_dev(state.sigma, tr_sigma) \
        + two_mu * _head_dev(d_eps, tr_eps)
    eta_trial = s_trial - _head_dev(state.q, t2.trace(state.q))
    n_trial = t2.norm(eta_trial)
    radius = SQ23 * (sigma_y0 + H * state.ebar_p)
    f_trial = n_trial - radius
    sigma_trial = s_trial + (kappa * tr_eps + tr_sigma / 3.0)[..., None] * _EYE
    plastic = f_trial > 0.0
    delta_gamma = np.where(plastic, f_trial / (2.0 * (mu + (H + C) / 3.0)),
                           0.0)
    flow = (delta_gamma / np.maximum(n_trial, radius))[..., None] * eta_trial
    q_new = state.q + (2.0 / 3.0) * np.asarray(C)[..., None] * flow
    new = PlasticState(sigma=sigma_trial - two_mu * flow,
                       eps_p=state.eps_p + flow,
                       ebar_p=state.ebar_p + SQ23 * delta_gamma, q=q_new)
    return new, delta_gamma, plastic, f_trial


def head_energy_density(H, C, iso_mask, new, old, eps_total):
    inv_c = np.where(iso_mask, 0.0, 1.0 / np.where(iso_mask, 1.0, C))
    terms = new.sigma * (0.5 * (eps_total - new.eps_p)
                         + (new.eps_p - old.eps_p)) \
        + inv_c[..., None] * new.q * (1.5 * old.q - 0.75 * new.q)
    iso_part = np.where(iso_mask, H, 0.0) * new.ebar_p \
        * (old.ebar_p - 0.5 * new.ebar_p)
    return np.einsum("...k,k->...", terms, t2.CONTRACTION_WEIGHTS) + iso_part


def _same_bits(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), label


def test_kernels_from_state_and_constants_bitwise_equal_to_reference():
    """Per-point isotropic and kinematic materials in one batch, carried
    through steps with elastic and plastic points: the plain positional
    calls, the calls from step constants and the reference forms give the
    same bits in every return-map output.  The closed-form density gives
    the same bits from both calls, and agrees with the state-based
    reference to 1e-12 relative."""
    n = 400
    rng = np.random.default_rng(21)
    iso = rng.uniform(size=n) < 0.5
    mu = rng.uniform(0.8, 1.2, n) * MU
    kappa = rng.uniform(0.8, 1.2, n) * KAPPA
    sy0 = rng.uniform(0.8, 1.2, n) * SY0
    H = np.where(iso, rng.uniform(0.0, 800.0, n), 0.0)
    C = np.where(iso, 0.0, rng.uniform(100.0, 800.0, n))
    state, eps = PlasticState.zero(n), np.zeros((n, 6))
    mixed_steps = 0
    for step in range(5):
        d_eps = rand_sym(rng, (n,), scale=0.006) \
            + t2.scale_identity(rng.uniform(-0.005, 0.005, n))
        plain, f_plain = return_map(mu, kappa, sy0, H, C, state, d_eps)
        fast, f_fast = return_map(mu, kappa, sy0, H, C,
                                  StepConstants.of(state, mu, sy0, H, C),
                                  d_eps)
        want, dgamma, plastic, f_want = head_return_map(mu, kappa, sy0, H, C,
                                                        state, d_eps)
        for res, f in ((plain, f_plain), (fast, f_fast)):
            for name in ("sigma", "eps_p", "ebar_p", "q"):
                _same_bits(getattr(res.state, name), getattr(want, name),
                           f"step {step} {name}")
            _same_bits(res.delta_gamma, dgamma, f"step {step} delta_gamma")
            _same_bits(res.yielded, plastic, f"step {step} yielded")
            _same_bits(f, f_want, f"step {step} f_trial")
        psi = energy_density(plain, eps + d_eps)
        _same_bits(energy_density(fast, eps + d_eps), psi, f"step {step} psi")
        _assert_close(psi, head_energy_density(H, C, iso, want, state,
                                               eps + d_eps),
                      f"step {step} psi")
        for mask in (iso, ~iso):
            mixed_steps += 0 < plastic[mask].sum() < mask.sum()
        state, eps = plain.state, eps + d_eps
    assert mixed_steps >= 6      # both modes had elastic and plastic points


# -- the step constants and the closed-form density --------------------------

def _mode_batch(mode, n, rng):
    """Per-point parameters of ``n`` isotropic, kinematic or mixed points."""
    iso = {"isotropic": np.ones(n, bool), "kinematic": np.zeros(n, bool),
           "mixed": rng.uniform(size=n) < 0.5}[mode]
    mu = rng.uniform(0.8, 1.2, n) * MU
    kappa = rng.uniform(0.8, 1.2, n) * KAPPA
    sy0 = rng.uniform(0.8, 1.2, n) * SY0
    H = np.where(iso, rng.uniform(0.0, 800.0, n), 0.0)
    C = np.where(iso, 0.0, rng.uniform(100.0, 800.0, n))
    return iso, mu, kappa, sy0, H, C


def _walk(mode, seed, n=400, steps=5):
    """Yield (step, parameters, committed state, committed strain,
    increment) along random pressurized, non-proportional increments,
    each committed through the plain return map."""
    rng = np.random.default_rng(seed)
    params = _mode_batch(mode, n, rng)
    _, mu, kappa, sy0, H, C = params
    state, eps = PlasticState.zero(n), np.zeros((n, 6))
    for step in range(steps):
        d_eps = rand_sym(rng, (n,), scale=0.006) \
            + t2.scale_identity(rng.uniform(-0.005, 0.005, n))
        yield step, params, state, eps, d_eps
        res, _ = return_map(mu, kappa, sy0, H, C, state, d_eps)
        state, eps = res.state, eps + d_eps


@pytest.mark.parametrize("mode", ["isotropic", "kinematic", "mixed"])
def test_closed_form_density_matches_state_formula(mode):
    """sigma_trial : (eps - eps_p_old) / 2 + stored_old - dgamma f_trial / 2
    agrees with the state-based density, in both reference forms, to
    1e-12 relative, at elastic and plastic points, from the plain call
    and from the step constants."""
    mixed_steps = 0
    for step, (iso, mu, kappa, sy0, H, C), state, eps, d_eps in _walk(
            mode, {"isotropic": 31, "kinematic": 32, "mixed": 33}[mode]):
        plain, _ = return_map(mu, kappa, sy0, H, C, state, d_eps)
        fast, _ = return_map(mu, kappa, sy0, H, C,
                             StepConstants.of(state, mu, sy0, H, C), d_eps)
        want, _, plastic, _ = head_return_map(mu, kappa, sy0, H, C, state,
                                              d_eps)
        for ref in (head_energy_density, reference_energy_density):
            psi_want = ref(H, C, iso, want, state, eps + d_eps)
            for res in (plain, fast):
                _assert_close(energy_density(res, eps + d_eps),
                              psi_want, f"step {step} {ref.__name__}")
        mixed_steps += 0 < plastic.sum() < plastic.size
    assert mixed_steps >= 3      # elastic and plastic points side by side


def test_step_constants_give_plain_bits():
    """A return map from the step constants gives the bits of a plain call
    in every output, and so does the density.  The constants are frozen,
    so they cannot be re-paired with another state."""
    for step, (iso, mu, kappa, sy0, H, C), state, eps, d_eps in _walk(
            "mixed", 34):
        start = StepConstants.of(state, mu, sy0, H, C)
        assert start.state is state
        plain, f_plain = return_map(mu, kappa, sy0, H, C, state, d_eps)
        fast, f_fast = return_map(mu, kappa, sy0, H, C, start, d_eps)
        assert fast.start is start
        for name in ("sigma", "eps_p", "ebar_p", "q"):
            _same_bits(getattr(fast.state, name), getattr(plain.state, name),
                       f"step {step} {name}")
        _same_bits(fast.delta_gamma, plain.delta_gamma, f"step {step} dgamma")
        _same_bits(fast.yielded, plain.yielded, f"step {step} yielded")
        _same_bits(f_fast, f_plain, f"step {step} f_trial")
        _same_bits(energy_density(fast, eps + d_eps),
                   energy_density(plain, eps + d_eps), f"step {step} psi")
    with pytest.raises(FrozenInstanceError):
        start.state = plain.state


def test_step_deviators_keep_signed_zeros():
    """The column-wise deviators of the step constants, formed above
    ``LONG_ARRAY`` values, equal the broadcast form of the plain kernel
    bit for bit, on states full of signed zeros, subnormals and exact
    traces."""
    rng = np.random.default_rng(35)
    n = t2.LONG_ARRAY + 1
    values = np.array([0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 1e-300, -5e-324])
    state = PlasticState(rng.choice(values, (n, 6)), np.zeros((n, 6)),
                         rng.uniform(size=n), rng.choice(values, (n, 6)))
    start = StepConstants.of(state, MU, SY0, 500.0, 0.0)
    for a, dev in ((state.sigma, start.s_dev), (state.q, start.q_dev)):
        third = (a[:, 0] + a[:, 1] + a[:, 2]) / 3.0
        _same_bits(dev, a - third[:, None] * t2.identity(), "deviator")
    assert np.signbit(start.s_dev).any() and (start.s_dev == 0.0).any()


def test_long_return_map_bitwise_equal_to_short_chunks():
    """On more than ``LONG_ARRAY`` points the identity products of the
    return map and of the step constants go a column at a time; every
    output has the bits of the same points run in chunks small enough for
    numpy's broadcast.  A third of the points have zero off-diagonal
    strain and state of either sign with traces of either sign, so a
    column form that dropped the sign of a zero would show."""
    n = 2 * t2.LONG_ARRAY + 37
    chunk = t2.LONG_ARRAY
    rng = np.random.default_rng(37)
    _, mu, kappa, sy0, H, C = _mode_batch("mixed", n, rng)
    sigma, q = rand_sym(rng, (n,), scale=80.0), rand_sym(rng, (n,), scale=20.0)
    d_eps = rand_sym(rng, (n,), scale=0.006)
    zeros = np.arange(n) % 3 == 0
    for a in (sigma, q, d_eps):
        a[zeros, 3:] = rng.choice([0.0, -0.0], (zeros.sum(), 3))
        a[:, :3] += rng.choice([-1.0, 1.0], (n, 1)) * np.abs(a[:, :3]).max()
    state = PlasticState(sigma, rand_sym(rng, (n,), scale=0.01),
                         rng.uniform(0.0, 0.01, n), q)
    whole, f_whole = return_map(mu, kappa, sy0, H, C, state, d_eps)
    parts = [return_map(mu[s], kappa[s], sy0[s], H[s], C[s],
                        PlasticState(sigma[s], state.eps_p[s],
                                     state.ebar_p[s], q[s]), d_eps[s])
             for s in (slice(i, i + chunk) for i in range(0, n, chunk))]
    for name in ("sigma", "sigma_trial", "flow", "delta_gamma", "yielded",
                 "f_trial"):
        _same_bits(getattr(whole, name),
                   np.concatenate([getattr(r, name) for r, _ in parts]), name)
    for name in ("s_dev", "p", "q_dev", "radius", "stored"):
        _same_bits(getattr(whole.start, name),
                   np.concatenate([getattr(r.start, name) for r, _ in parts]),
                   name)
    for name in ("sigma", "eps_p", "ebar_p", "q"):
        _same_bits(getattr(whole.state, name),
                   np.concatenate([getattr(r.state, name) for r, _ in parts]),
                   f"state {name}")
    _same_bits(f_whole, np.concatenate([f for _, f in parts]), "f")
    for a in (whole.start.s_dev, whole.start.q_dev):
        signs = np.signbit(a[a == 0.0])
        assert signs.any() and not signs.all()
    assert (whole.sigma_trial[zeros, 3:] == 0.0).any()
    assert 0 < whole.yielded.sum() < n
    assert (t2.trace(d_eps) < 0.0).any() and (t2.trace(d_eps) > 0.0).any()


def test_stored_energy_matches_masked_form():
    """The stored energy of the step constants, read from C > 0 alone,
    has the bits of the form masked by hardening mode, on a mixed batch
    with H = 0 at some isotropic points and a back stress everywhere."""
    rng = np.random.default_rng(36)
    n = 1000
    iso = rng.uniform(size=n) < 0.5
    H = np.where(iso & (rng.uniform(size=n) < 0.5),
                 rng.uniform(0.0, 800.0, n), 0.0)
    C = np.where(iso, 0.0, rng.uniform(100.0, 800.0, n))
    state = PlasticState(rand_sym(rng, (n,)), rand_sym(rng, (n,)),
                         rng.uniform(0.0, 0.1, n), rand_sym(rng, (n,)))
    qq = (state.q * state.q) @ t2.CONTRACTION_WEIGHTS
    want = np.where(iso, 0.0, 0.75 / np.where(iso, 1.0, C)) * qq \
        + np.where(iso, 0.5 * H, 0.0) * state.ebar_p * state.ebar_p
    assert (iso & (H == 0.0)).any() and (iso & (H > 0.0)).any()
    _same_bits(StepConstants.of(state, MU, SY0, H, C).stored, want, "stored")


def test_new_state_is_formed_once_on_first_read():
    """The plastic strain, back stress and accumulated plastic strain of a
    result are formed on the first read of its state, which later reads
    return unchanged; sigma is the result's own sigma_new."""
    res = radial_return(ElasticConstants(mu=MU, kappa=KAPPA),
                        HardeningLaw(sigma_y0=SY0, C=500.0, mode="kinematic"),
                        PlasticState.zero(), SHEAR_STEP)
    first = res.state
    assert res.state is first and first.sigma is res.sigma
    np.testing.assert_allclose(first.q[3], Q12_KIN, rtol=1e-12)
    np.testing.assert_allclose(first.eps_p[3], EPSP12, rtol=1e-12)
