"""Small-strain J2 plasticity with a radial-return state update.

The model is linear isotropic elasticity plus a von Mises yield surface
with either linear isotropic hardening (modulus ``H``) or linear kinematic
hardening (modulus ``C``, back stress ``q``).  The update is the classic
elastic-predictor / plastic-corrector scheme: form a trial stress from the
strain increment, evaluate the yield function on the trial state, and if
it is positive scale back onto the (translated, possibly expanded) yield
surface along the trial flow direction.

All state arrays are packed symmetric tensors of shape (..., 6) as in
:mod:`demplast.tensor`, and every kernel broadcasts over leading axes so a
whole mesh worth of quadrature points updates in one call.  Material
parameters may be scalars or per-point arrays of shape (...).

The plastic multiplier solves the discrete consistency condition in
closed form, so after a plastic update the yield function is zero to
round-off:

    dgamma = f_trial / (2 * (mu + (H + C) / 3))

The back-stress direction is taken from the deviator of
(sigma_new - q_old).  The deviator is what enters the yield function, and
using it keeps the back stress trace-free and the discrete consistency
condition exact for arbitrary (non-proportional, pressurized) increments;
for pressure-free states it coincides with normalizing the full tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as t2

ISOTROPIC = "isotropic"
KINEMATIC = "kinematic"

_SQ23 = np.sqrt(2.0 / 3.0)


def _col(x) -> np.ndarray:
    """Append a length-1 axis so scalar-or-(...) fields broadcast against
    (..., 6) tensor arrays."""
    return np.asarray(x, dtype=float)[..., None]


@dataclass(frozen=True)
class ElasticConstants:
    """Shear modulus mu and bulk modulus kappa, both > 0 (MPa)."""

    mu: float
    kappa: float

    def __post_init__(self):
        if not (self.mu > 0.0 and self.kappa > 0.0):
            raise ValueError(f"elastic moduli must be positive, got mu={self.mu}, "
                             f"kappa={self.kappa}")


@dataclass(frozen=True)
class HardeningLaw:
    """Initial yield stress plus one linear hardening branch.

    mode "isotropic" uses modulus H (C must be 0); mode "kinematic" uses
    modulus C > 0 (H must be 0).  The mixed case is not supported.
    """

    sigma_y0: float
    H: float = 0.0
    C: float = 0.0
    mode: str = ISOTROPIC

    def __post_init__(self):
        if self.sigma_y0 <= 0.0:
            raise ValueError(f"sigma_y0 must be positive, got {self.sigma_y0}")
        if self.H < 0.0 or self.C < 0.0:
            raise ValueError("hardening moduli must be non-negative")
        if self.mode == ISOTROPIC:
            if self.C != 0.0:
                raise ValueError("isotropic mode requires C = 0")
        elif self.mode == KINEMATIC:
            if self.H != 0.0:
                raise ValueError("kinematic mode requires H = 0")
            if self.C <= 0.0:
                raise ValueError("kinematic mode requires C > 0 (the free energy "
                                 "divides by C)")
        else:
            raise ValueError(f"unknown hardening mode {self.mode!r}")


@dataclass
class PlasticState:
    """Committed quadrature-point state: stress, plastic strain, accumulated
    plastic strain and back stress.  All arrays share leading shape (...)."""

    sigma: np.ndarray
    eps_p: np.ndarray
    ebar_p: np.ndarray
    q: np.ndarray

    @classmethod
    def zero(cls, shape=()) -> "PlasticState":
        if np.isscalar(shape):
            shape = (shape,)
        shape = tuple(shape)
        return cls(sigma=np.zeros(shape + (6,)), eps_p=np.zeros(shape + (6,)),
                   ebar_p=np.zeros(shape), q=np.zeros(shape + (6,)))

    def copy(self) -> "PlasticState":
        return PlasticState(self.sigma.copy(), self.eps_p.copy(),
                            self.ebar_p.copy(), self.q.copy())


class ReturnAux(NamedTuple):
    """Intermediates of the return map kept for the energy gradient."""

    plastic: np.ndarray      # bool, trial state outside the surface
    f_trial: np.ndarray
    norm_eta_trial: np.ndarray
    n_dir: np.ndarray        # unit trial flow direction (zero where elastic)
    delta_gamma: np.ndarray


@dataclass
class ReturnResult:
    state: PlasticState
    delta_gamma: np.ndarray
    yielded: np.ndarray
    n_dir: np.ndarray


def elastic_stress(consts: ElasticConstants, eps_e: np.ndarray) -> np.ndarray:
    """sigma = 2 mu dev(eps_e) + kappa tr(eps_e) I."""
    return 2.0 * consts.mu * t2.deviator(eps_e) + t2.scale_identity(
        consts.kappa * t2.trace(eps_e))


def yield_value(law: HardeningLaw, sigma: np.ndarray, q: np.ndarray,
                ebar_p: np.ndarray) -> np.ndarray:
    """f = ||dev(sigma) - dev(q)|| - sqrt(2/3) (sigma_y0 + H ebar_p)."""
    eta = t2.deviator(sigma) - t2.deviator(q)
    return t2.norm(eta) - _SQ23 * (law.sigma_y0 + law.H * np.asarray(ebar_p))


def return_map(mu, kappa, sigma_y0, H, C, state: PlasticState,
               d_eps: np.ndarray):
    """Vectorized radial return.  Parameters broadcast against the batch.

    Returns (ReturnResult, ReturnAux).  The elastic branch keeps the trial
    stress bit-for-bit; the plastic branch applies the closed-form
    corrector.  Committed state arrays are never mutated.
    """
    d_eps = np.asarray(d_eps, dtype=float)
    mu = np.asarray(mu, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    sigma_y0 = np.asarray(sigma_y0, dtype=float)
    H = np.asarray(H, dtype=float)
    C = np.asarray(C, dtype=float)

    s_trial = t2.deviator(state.sigma) + 2.0 * _col(mu) * t2.deviator(d_eps)
    eta_trial = s_trial - t2.deviator(state.q)
    n_trial = t2.norm(eta_trial)
    f_trial = n_trial - _SQ23 * (sigma_y0 + H * state.ebar_p)

    vol_trial = kappa * t2.trace(d_eps) + t2.trace(state.sigma) / 3.0
    sigma_trial = s_trial + t2.scale_identity(vol_trial)

    plastic = f_trial > 0.0
    if np.any(plastic & (n_trial <= 0.0)):
        raise AssertionError("zero trial direction with positive yield value; "
                             "impossible for sigma_y0 > 0")

    delta_gamma = np.where(plastic, f_trial / (2.0 * (mu + (H + C) / 3.0)), 0.0)

    safe_n = np.where(n_trial > 0.0, n_trial, 1.0)
    n_dir = np.where(_col(plastic).astype(bool), eta_trial / _col(safe_n), 0.0)

    eps_p_new = state.eps_p + _col(delta_gamma) * n_dir
    ebar_p_new = state.ebar_p + _SQ23 * delta_gamma
    sigma_new = sigma_trial - 2.0 * _col(mu) * _col(delta_gamma) * n_dir

    # Back-stress push along the deviator of (sigma_new - q_old), as the
    # update sequence lists it; this equals the trial direction n_dir.
    diff_dev = t2.deviator(sigma_new - state.q)
    m_dev = t2.norm(diff_dev)
    z_dir = np.where(_col(plastic).astype(bool),
                     diff_dev / _col(np.where(m_dev > 0.0, m_dev, 1.0)), 0.0)
    q_new = state.q + (2.0 / 3.0) * _col(delta_gamma * C) * z_dir

    new = PlasticState(sigma=sigma_new, eps_p=eps_p_new, ebar_p=ebar_p_new,
                       q=q_new)
    aux = ReturnAux(plastic=plastic, f_trial=f_trial, norm_eta_trial=n_trial,
                    n_dir=n_dir, delta_gamma=delta_gamma)
    return ReturnResult(state=new, delta_gamma=delta_gamma, yielded=plastic,
                        n_dir=n_dir), aux


def radial_return(consts: ElasticConstants, law: HardeningLaw,
                  state: PlasticState, d_eps: np.ndarray) -> ReturnResult:
    """Public single-material entry point; see :func:`return_map`."""
    res, _ = return_map(consts.mu, consts.kappa, law.sigma_y0, law.H, law.C,
                        state, d_eps)
    return res


def energy_density(H, C, iso_mask, state_new: PlasticState,
                   state_old: PlasticState, eps_total: np.ndarray) -> np.ndarray:
    """Incremental free-energy density at one quadrature point (batched).

    Isotropic:  W + H ebar^2 / 2 + (eps_p_new - eps_p_old) : sigma_new
                - H ebar_new (ebar_new - ebar_old)
    Kinematic:  W + q:q / (2C) + (eps_p_new - eps_p_old) : sigma_new
                - q_new : (q_new - q_old) / C
    with the elastic energy W = sigma_new : (eps_total - eps_p_new) / 2.

    ``iso_mask`` selects the isotropic expression per point.
    """
    H = np.asarray(H, dtype=float)
    C = np.asarray(C, dtype=float)
    iso_mask = np.asarray(iso_mask, dtype=bool)

    w = 0.5 * t2.contract(state_new.sigma, eps_total - state_new.eps_p)
    dissip = t2.contract(state_new.eps_p - state_old.eps_p, state_new.sigma)

    iso_part = 0.5 * H * state_new.ebar_p ** 2 \
        - H * state_new.ebar_p * (state_new.ebar_p - state_old.ebar_p)

    c_safe = np.where(iso_mask, 1.0, C)
    kin_part = 0.5 * t2.contract(state_new.q, state_new.q) / c_safe \
        - t2.contract(state_new.q, state_new.q - state_old.q) / c_safe

    return w + dissip + np.where(iso_mask, iso_part, kin_part)


def density_strain_gradient(mu, kappa, H, C, iso_mask, state_new: PlasticState,
                            state_old: PlasticState, eps_total: np.ndarray,
                            aux: ReturnAux) -> np.ndarray:
    """Exact gradient of :func:`energy_density` with respect to eps_total.

    Hand-derived adjoint of the return map, per point.  The result G is a
    packed symmetric tensor defined against the full-contraction inner
    product, d(density) = G : d(eps), so it chains directly through a
    strain-displacement operator.  The elastic branch is

        G = sigma/2 + mu dev(eps - eps_p_old) + kappa tr(eps - eps_p_old) I/2

    (the adjoint of the trial stress map applied to W).  The plastic branch
    adds the corrector sensitivities through dgamma and the trial direction;
    for a committed state produced by this same kernel, the isotropic case
    collapses to G = sigma_new exactly.
    """
    mu = np.asarray(mu, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    H = np.asarray(H, dtype=float)
    C = np.asarray(C, dtype=float)
    iso_mask = np.asarray(iso_mask, dtype=bool)

    eps_e_old = eps_total - state_old.eps_p
    g_elastic = 0.5 * state_new.sigma + _col(mu) * t2.deviator(eps_e_old) \
        + 0.5 * t2.scale_identity(kappa * t2.trace(eps_e_old))

    plastic = aux.plastic
    if not np.any(plastic):
        return g_elastic

    n = aux.n_dir
    dgam = aux.delta_gamma
    n_tr = np.where(plastic, aux.norm_eta_trial, 1.0)
    a_mod = mu + (H + C) / 3.0

    def perp(x):
        return t2.deviator(x) - _col(t2.contract(n, x)) * n

    # Upstream sensitivities of the density with respect to the new state.
    s_up = 0.5 * (eps_total - state_new.eps_p) + _col(dgam) * n
    p_up = 0.5 * state_new.sigma
    b_up = np.where(iso_mask, -_SQ23 * H * dgam, 0.0)
    q_up = np.where(_col(iso_mask).astype(bool), 0.0,
                    -(2.0 / 3.0) * _col(dgam) * n)

    mu_over_a = mu / a_mod
    two_mu_dg_over_n = 2.0 * mu * dgam / n_tr

    g_sigma = 2.0 * _col(mu) * t2.deviator(s_up) \
        + t2.scale_identity(kappa * t2.trace(s_up)) \
        - _col(2.0 * mu * mu_over_a * t2.contract(n, s_up)) * n \
        - _col(2.0 * mu * two_mu_dg_over_n) * perp(s_up)
    g_epsp = _col(mu_over_a * t2.contract(n, p_up)) * n \
        + _col(two_mu_dg_over_n) * perp(p_up)
    g_ebar = _col(_SQ23 * mu_over_a * b_up) * n
    g_q = 2.0 * _col(C) / 3.0 * (_col(mu_over_a * t2.contract(n, q_up)) * n
                                 + _col(two_mu_dg_over_n) * perp(q_up))

    g_plastic = 0.5 * state_new.sigma + g_sigma + g_epsp + g_ebar + g_q
    return np.where(_col(plastic).astype(bool), g_plastic, g_elastic)


def von_mises(sigma: np.ndarray) -> np.ndarray:
    """Equivalent stress sqrt(3/2) ||dev(sigma)||."""
    return np.sqrt(1.5) * t2.norm(t2.deviator(sigma))


def drive_point(consts: ElasticConstants, law: HardeningLaw,
                strain_path: np.ndarray) -> list[PlasticState]:
    """Fold the return map over a strain history (n_steps, 6).

    Returns the committed state after each entry of the path, starting
    from the zero state.  The first path entry is treated as the strain at
    the end of the first step (initial strain is zero).
    """
    strain_path = np.atleast_2d(np.asarray(strain_path, dtype=float))
    state = PlasticState.zero()
    eps_prev = np.zeros(6)
    out = []
    for eps in strain_path:
        res = radial_return(consts, law, state, eps - eps_prev)
        state = res.state
        eps_prev = eps
        out.append(state.copy())
    return out
