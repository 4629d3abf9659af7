"""Small-strain J2 plasticity: radial-return update and incremental energy.

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

The back-stress direction is the deviator of (sigma_new - q_old),
normalized.  The deviator is what enters the yield function, and using it
keeps the back stress trace-free and the discrete consistency condition
exact for arbitrary (non-proportional, pressurized) increments; for
pressure-free states it coincides with normalizing the full tensor.  That
deviator is eta_trial scaled by a positive factor, so its direction is
the trial flow direction n_dir = eta_trial / ||eta_trial||, and the update
moves q along n_dir without forming the deviator.

Per-point constants of the material parameters (2 mu, 2 (mu + (H + C)
/ 3) and (2/3) C for the return map, the masked 1/C and H for the
energy) are computed on every plain call.  The energy workspace, which
evaluates the same points once per optimizer iteration, computes them
once (``_return_moduli``, ``_energy_moduli``) and passes them as
``moduli``; the arithmetic is the same to the bit.

The incremental free-energy density of :func:`energy_density` is the
variationally consistent potential of this update (Ortiz & Stainier 1999;
Simo & Hughes 1998), so at self-consistent committed states its strain
derivative is sigma_new in both hardening modes and needs no adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as t2

ISOTROPIC = "isotropic"
KINEMATIC = "kinematic"

_SQ23 = np.sqrt(2.0 / 3.0)

# Packed identity, to form a * I from a per-point a; a - (tr(a) / 3) I is
# :func:`demplast.tensor.deviator` of a, bit for bit.
_EYE = t2.identity()


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


@dataclass
class ReturnResult:
    state: PlasticState
    delta_gamma: np.ndarray
    yielded: np.ndarray


def _return_moduli(mu, H, C):
    """Per-point constants of :func:`return_map`: 2 mu and (2/3) C as
    (..., 1) columns, and the consistency denominator 2 (mu + (H + C) / 3)."""
    return (2.0 * np.asarray(mu)[..., None], 2.0 * (mu + (H + C) / 3.0),
            (2.0 / 3.0) * np.asarray(C)[..., None])


def return_map(mu, kappa, sigma_y0, H, C, state: PlasticState,
               d_eps: np.ndarray, *, moduli=None):
    """Vectorized radial return.  Parameters broadcast against the batch;
    ``d_eps`` and the state arrays are float ndarrays of one shape.

    Returns (ReturnResult, f_trial), the second item being the trial yield
    value.  The elastic branch keeps the trial stress bit-for-bit; the
    plastic branch applies the closed-form corrector.  Committed state
    arrays are never mutated; the new sigma, eps_p and q are views into
    one (3, ..., 6) array.  ``moduli`` is ``_return_moduli(mu, H, C)``
    computed once by a caller that updates the same points many times.
    """
    two_mu, denom, c23 = _return_moduli(mu, H, C) if moduli is None \
        else moduli
    # sigma, d_eps and q stacked: their traces and deviators take one
    # pass, and the buffer then receives the updated sigma, eps_p and q
    buf = np.array((state.sigma, d_eps, state.q))
    tr = buf[..., 0] + buf[..., 1] + buf[..., 2]
    buf -= (tr / 3.0)[..., None] * _EYE
    s_trial = buf[0] + two_mu * buf[1]
    eta_trial = s_trial - buf[2]
    n_trial = t2.norm(eta_trial)
    radius = _SQ23 * (sigma_y0 + H * state.ebar_p)
    f_trial = n_trial - radius
    # the trial stress, formed in place of its deviator
    sigma_trial = s_trial
    sigma_trial += (kappa * tr[1] + tr[0] / 3.0)[..., None] * _EYE

    plastic = f_trial > 0.0
    delta_gamma = np.where(plastic, f_trial / denom, 0.0)
    # delta_gamma * n_dir with n_dir = eta_trial / n_trial.  A plastic
    # point has n_trial > radius, so dividing by the larger of the two
    # leaves it unchanged and keeps elastic points (delta_gamma = 0) off 0/0.
    flow = (delta_gamma / np.maximum(n_trial, radius))[..., None] * eta_trial

    # The back stress moves along the deviator of (sigma_new - q_old),
    # which is n_dir itself (module docstring).  Each product is formed in
    # the slot of buf that its sum then overwrites.
    sigma, eps_p, q = buf
    np.subtract(sigma_trial, np.multiply(two_mu, flow, out=sigma), out=sigma)
    np.add(state.eps_p, flow, out=eps_p)
    np.add(state.q, np.multiply(c23, flow, out=q), out=q)
    new = PlasticState(sigma=sigma, eps_p=eps_p,
                       ebar_p=state.ebar_p + _SQ23 * delta_gamma, q=q)
    return ReturnResult(state=new, delta_gamma=delta_gamma,
                        yielded=plastic), f_trial


def radial_return(consts: ElasticConstants, law: HardeningLaw,
                  state: PlasticState, d_eps: np.ndarray) -> ReturnResult:
    """Public single-material entry point; see :func:`return_map`."""
    res, _ = return_map(consts.mu, consts.kappa, law.sigma_y0, law.H, law.C,
                        state, np.asarray(d_eps, dtype=float))
    return res


def _energy_moduli(H, C, iso_mask):
    """Per-point constants of :func:`energy_density`: 1/C as a (..., 1)
    column and H, each zero where the other mode applies."""
    inv_c = np.where(iso_mask, 0.0, 1.0 / np.where(iso_mask, 1.0, C))
    return inv_c[..., None], np.where(iso_mask, H, 0.0)


def energy_density(H, C, iso_mask, state_new: PlasticState,
                   state_old: PlasticState, eps_total: np.ndarray, *,
                   moduli=None) -> np.ndarray:
    """Incremental free-energy density at one quadrature point (batched).

    Isotropic:  W + H ebar^2 / 2 + (eps_p_new - eps_p_old) : sigma_new
                - H ebar_new (ebar_new - ebar_old)
    Kinematic:  W + 3 q:q / (4C) + (eps_p_new - eps_p_old) : sigma_new
                - 3 q_new : (q_new - q_old) / (2C)
    with the elastic energy W = sigma_new : (eps_total - eps_p_new) / 2.

    The kinematic terms are the stored energy C eps_p:eps_p / 3 written
    through q = 2 C eps_p / 3.  At committed states produced by
    :func:`return_map`, d(psi)/d(eps_total) = sigma_new in both modes.
    ``iso_mask`` selects the isotropic expression per point.  The sigma
    and q terms go through one weighted contraction:

        sigma : ((eps_total - eps_p_new) / 2 + eps_p_new - eps_p_old)
        + q_new : (1.5 q_old - 0.75 q_new) / C
        + H ebar_new (ebar_old - ebar_new / 2)

    ``moduli`` is ``_energy_moduli(H, C, iso_mask)`` computed once by a
    caller that evaluates the same points many times.
    """
    new, old = state_new, state_old
    inv_c, h_iso = _energy_moduli(H, C, iso_mask) if moduli is None \
        else moduli
    terms = new.sigma * (0.5 * (eps_total - new.eps_p)
                         + (new.eps_p - old.eps_p)) \
        + inv_c * new.q * (1.5 * old.q - 0.75 * new.q)
    iso_part = h_iso * new.ebar_p * (old.ebar_p - 0.5 * new.ebar_p)
    return np.einsum("...k,k->...", terms, t2.CONTRACTION_WEIGHTS) + iso_part


def density_strain_gradient(state_new: PlasticState) -> np.ndarray:
    """d(psi)/d(eps_total) of :func:`energy_density`, i.e. sigma_new.  Kept
    as a named function because the benchmark's span tracer wraps this name
    and its self-test raises KeyError when a wrapped name is missing."""
    return state_new.sigma


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
