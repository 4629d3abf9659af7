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
/ 3) and (2/3) C for the return map, the masked 3 / (4C) and H / 2 for
the stored energy) are computed on every plain call; the energy
workspace computes them once (``_return_moduli``, passed to the return
map as ``moduli``, and ``_energy_moduli``).  Within a load step every
point restarts from the same committed state, so what depends on that
state alone (dev(sigma_old), tr(sigma_old) / 3, dev(q_old), the yield
radius and the stored energy) is formed once, as :class:`StepConstants`,
when the state is committed.  The return map takes either the state or
its constants and gives the same bits; a plain call forms the constants
inline.

The incremental free-energy density of :func:`energy_density` is the
variationally consistent potential of this update (Ortiz & Stainier 1999;
Simo & Hughes 1998), so at self-consistent committed states its strain
derivative is sigma_new in both hardening modes and needs no adjoint.
Substituting the return map gives it in closed form from the trial state,
psi = sigma_trial : (eps - eps_p_old) / 2 + stored_old - delta_gamma
f_trial / 2, so an evaluation needs neither the new plastic strain nor
the new back stress; :class:`ReturnResult` forms those only when its
``state`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class StepConstants:
    """A committed state with what :func:`return_map` and
    :func:`energy_density` use of it, formed once by :meth:`of`.

    Everything here is fixed for a whole load step, so a caller that
    updates the same points many times from one committed state forms it
    once and passes it in place of the state.  Being frozen and built
    only from ``state``, it cannot pair the constants with another state.
    ``stored`` is None when no energy moduli were given.
    """

    state: PlasticState
    s_dev: np.ndarray       # dev(sigma_old)
    p: np.ndarray           # tr(sigma_old) / 3
    q_dev: np.ndarray       # dev(q_old)
    radius: np.ndarray      # sqrt(2/3) (sigma_y0 + H ebar_old)
    stored: np.ndarray | None = None   # stored energy of the state

    @classmethod
    def of(cls, state: PlasticState, sigma_y0, H,
           energy_moduli=None) -> "StepConstants":
        """``energy_moduli`` is ``_energy_moduli(H, C, iso_mask)``; without
        it the stored energy is left to :func:`energy_density`."""
        # sigma and q stacked, so their traces and deviators take one pass.
        # The deviators go a column at a time: the bits of
        # buf -= third[..., None] * _EYE, at a fraction of the cost of
        # numpy's broadcast over a length-6 axis on a whole mesh.
        buf = np.array((state.sigma, state.q))
        third = (buf[..., 0] + buf[..., 1] + buf[..., 2]) / 3.0
        off_diagonal = third * 0.0
        for k in range(6):
            buf[..., k] -= third if k < 3 else off_diagonal
        stored = None if energy_moduli is None \
            else _stored_energy(state, energy_moduli)
        return cls(state=state, s_dev=buf[0], p=third[0], q_dev=buf[1],
                   radius=_SQ23 * (sigma_y0 + H * state.ebar_p),
                   stored=stored)


@dataclass
class ReturnResult:
    """The updated stress, the plastic multiplier and what the energy needs
    of the trial state.  The new eps_p, ebar_p and q are formed from
    ``flow`` on the first read of :attr:`state`: an optimizer evaluates
    many trial increments per step but commits one."""

    start: StepConstants
    sigma: np.ndarray           # sigma_new
    sigma_trial: np.ndarray
    flow: np.ndarray            # delta_gamma * n_dir
    delta_gamma: np.ndarray
    yielded: np.ndarray
    f_trial: np.ndarray
    c23: np.ndarray             # (2/3) C, the back-stress rate
    _state: PlasticState | None = field(default=None, init=False, repr=False)

    @property
    def state(self) -> PlasticState:
        if self._state is None:
            old = self.start.state
            self._state = PlasticState(
                sigma=self.sigma, eps_p=old.eps_p + self.flow,
                ebar_p=old.ebar_p + _SQ23 * self.delta_gamma,
                q=old.q + self.c23 * self.flow)
        return self._state


def _return_moduli(mu, H, C):
    """Per-point constants of :func:`return_map`: 2 mu and (2/3) C as
    (..., 1) columns, and the consistency denominator 2 (mu + (H + C) / 3)."""
    return (2.0 * np.asarray(mu)[..., None], 2.0 * (mu + (H + C) / 3.0),
            (2.0 / 3.0) * np.asarray(C)[..., None])


def return_map(mu, kappa, sigma_y0, H, C, state, d_eps: np.ndarray, *,
               moduli=None):
    """Vectorized radial return.  Parameters broadcast against the batch;
    ``d_eps`` and the state arrays are float ndarrays of one shape.

    ``state`` is the committed :class:`PlasticState`, or its
    :class:`StepConstants` (whose yield radius then stands for
    ``sigma_y0`` and ``H``).  Returns (ReturnResult, f_trial), the second
    item being the trial yield value.  The elastic branch keeps the trial
    stress bit-for-bit; the plastic branch applies the closed-form
    corrector.  Committed state arrays are never mutated.  ``moduli`` is
    ``_return_moduli(mu, H, C)`` computed once by a caller that updates
    the same points many times.
    """
    two_mu, denom, c23 = _return_moduli(mu, H, C) if moduli is None \
        else moduli
    start = state if isinstance(state, StepConstants) \
        else StepConstants.of(state, sigma_y0, H)
    tr = d_eps[..., 0] + d_eps[..., 1] + d_eps[..., 2]
    s_trial = start.s_dev + two_mu * (d_eps - (tr / 3.0)[..., None] * _EYE)
    eta_trial = s_trial - start.q_dev
    n_trial = t2.norm(eta_trial)
    f_trial = n_trial - start.radius
    # the trial stress, formed in place of its deviator
    sigma_trial = s_trial
    sigma_trial += (kappa * tr + start.p)[..., None] * _EYE

    plastic = f_trial > 0.0
    delta_gamma = np.where(plastic, f_trial / denom, 0.0)
    # delta_gamma * n_dir with n_dir = eta_trial / n_trial.  A plastic
    # point has n_trial > radius, so dividing by the larger of the two
    # leaves it unchanged and keeps elastic points (delta_gamma = 0) off 0/0.
    # The back stress moves along the deviator of (sigma_new - q_old),
    # which is n_dir itself (module docstring), at the rate c23.
    flow = (delta_gamma / np.maximum(n_trial, start.radius))[..., None] \
        * eta_trial
    res = ReturnResult(start=start, sigma=sigma_trial - two_mu * flow,
                       sigma_trial=sigma_trial, flow=flow,
                       delta_gamma=delta_gamma, yielded=plastic,
                       f_trial=f_trial, c23=c23)
    return res, f_trial


def radial_return(consts: ElasticConstants, law: HardeningLaw,
                  state: PlasticState, d_eps: np.ndarray) -> ReturnResult:
    """Public single-material entry point; see :func:`return_map`."""
    res, _ = return_map(consts.mu, consts.kappa, law.sigma_y0, law.H, law.C,
                        state, np.asarray(d_eps, dtype=float))
    return res


def _energy_moduli(H, C, iso_mask):
    """Per-point constants of the stored energy: 3 / (4C) and H / 2, each
    zero where the other mode applies."""
    q_mod = np.where(iso_mask, 0.0, 0.75 / np.where(iso_mask, 1.0, C))
    return q_mod, np.where(iso_mask, 0.5 * H, 0.0)


def _stored_energy(state: PlasticState, moduli) -> np.ndarray:
    """Hardening energy 3 q:q / (4C) + H ebar^2 / 2 of a state, with the
    masked ``_energy_moduli``."""
    q_mod, h_mod = moduli
    return q_mod * ((state.q * state.q) @ t2.CONTRACTION_WEIGHTS) \
        + h_mod * state.ebar_p * state.ebar_p


def energy_density(H, C, iso_mask, result: ReturnResult,
                   eps_total: np.ndarray) -> np.ndarray:
    """Incremental free-energy density at the points of a
    :func:`return_map` result (batched).

    In terms of the state it is

        W(eps_total - eps_p_new) + stored(new)
        + (eps_p_new - eps_p_old) : sigma_new - stored'(new) (new - old)

    with the elastic energy W, the stored energy 3 q:q / (4C) (kinematic;
    C eps_p:eps_p / 3 written through q = 2 C eps_p / 3) or H ebar^2 / 2
    (isotropic), and its derivative stored' in q or ebar.  ``iso_mask``
    selects the stored energy per point.  Substituting the radial return
    gives the closed form evaluated here:

        sigma_trial : (eps_total - eps_p_old) / 2 + stored(old)
        - delta_gamma f_trial / 2

    so only the trial stress and the multiplier vary within a step.
    At committed states produced by :func:`return_map` from the committed
    strain, d(psi)/d(eps_total) = sigma_new in both modes.  The stored
    energy comes from ``result.start`` when it carries one, and is formed
    from ``H``, ``C`` and ``iso_mask`` otherwise.
    """
    start = result.start
    stored = start.stored
    if stored is None:
        stored = _stored_energy(start.state, _energy_moduli(H, C, iso_mask))
    work = (result.sigma_trial * (eps_total - start.state.eps_p)) \
        @ t2.CONTRACTION_WEIGHTS
    return 0.5 * (work - result.delta_gamma * result.f_trial) + stored


def density_strain_gradient(result) -> np.ndarray:
    """d(psi)/d(eps_total) of :func:`energy_density`, i.e. sigma_new, of a
    :class:`ReturnResult` or a :class:`PlasticState`.  Kept as a named
    function because the benchmark's span tracer wraps this name and its
    self-test raises KeyError when a wrapped name is missing."""
    return result.sigma


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
