"""Independent cross-checks used by the test suite and the CLI.

Everything here deliberately avoids the packed-tensor code paths of the
main modules: the shear-curve oracle works on plain scalars, and the
brute-force energy oracle loops over elements with full 3x3 matrices.
Disagreement between these and the vectorized implementation is how bugs
get caught, so keep them independent.
"""

from __future__ import annotations

import numpy as np

from .material import ElasticConstants, HardeningLaw, ISOTROPIC

_SQ23 = np.sqrt(2.0 / 3.0)


# -- scalar shear-path integrator -------------------------------------------

def analytic_shear_curve(consts: ElasticConstants, law: HardeningLaw,
                         gamma_path, substeps: int = 1):
    """Drive a single point through an engineering shear-strain history.

    Pure-scalar recursion in the (sigma_12, q_12) plane; exact for simple
    shear because every tensor in that motion has only a 12-component.
    Returns (tau, ebar_p, back) arrays sampled at each entry of
    ``gamma_path``.  ``substeps`` subdivides every segment, which must not
    change the result beyond round-off (rate independence).
    """
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, not {substeps}")
    mu = consts.mu
    sy0, hard_h, hard_c = law.sigma_y0, law.H, law.C
    denom = 2.0 * (mu + (hard_h + hard_c) / 3.0)

    tau = 0.0
    back = 0.0
    ebar = 0.0
    gamma = 0.0
    taus, ebars, backs = [], [], []
    for g_target in np.asarray(gamma_path, dtype=float):
        for g in np.linspace(gamma, g_target, substeps + 1)[1:]:
            d_gamma = g - gamma
            gamma = g
            tau_trial = tau + mu * d_gamma
            eta = tau_trial - back
            f = np.sqrt(2.0) * abs(eta) - _SQ23 * (sy0 + hard_h * ebar)
            if f > 0.0:
                dg = f / denom
                s = np.sign(eta)
                tau = tau_trial - np.sqrt(2.0) * mu * dg * s
                ebar += _SQ23 * dg
                back += np.sqrt(2.0) / 3.0 * hard_c * dg * s
            else:
                tau = tau_trial
        taus.append(tau)
        ebars.append(ebar)
        backs.append(back)
    return np.array(taus), np.array(ebars), np.array(backs)


# -- finite-difference loss gradient ----------------------------------------

def gradient_audit(problem, params: np.ndarray, indices, factor: float,
                   step: float = 1e-6):
    """Max relative disagreement between the assembled gradient and central
    finite differences over the sampled parameter indices.  One workspace
    serves every evaluation: a loss depends only on its parameters and the
    committed state, which no evaluation changes."""
    from .bc import build_mask_offset
    from .solver import make_network, make_workspace

    ws = make_workspace(problem)
    ws.set_bc(*build_mask_offset(problem.mesh, problem.dirichlet, factor))
    ws.set_load_factor(factor)
    net = make_network(problem)
    params = np.asarray(params, dtype=float)
    net.set_params(params)
    _, grad = ws.loss_and_grad(net)

    def loss_at(idx, delta):
        p = params.copy()
        p[idx] += delta
        net.set_params(p)
        return ws.loss(net)

    indices = np.asarray(indices, dtype=int)
    fd = np.array([(loss_at(i, step) - loss_at(i, -step)) / (2.0 * step)
                   for i in indices])
    ana = grad[indices]
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-12)
    rel = np.abs(ana - fd) / scale
    return float(rel.max()), rel, ana, fd


# -- brute-force free-energy evaluation --------------------------------------

def _dev(m: np.ndarray) -> np.ndarray:
    return m - np.trace(m) / 3.0 * np.eye(3)


def _norm(m: np.ndarray) -> float:
    return float(np.sqrt((m * m).sum()))


def total_free_energy(mesh, ops, materials, committed, committed_strain,
                      u: np.ndarray, factor: float = 1.0,
                      traction_loads=None) -> float:
    """Term-by-term re-evaluation of the free-energy functional.

    Plain per-element loop on full 3x3 matrices with its own inline
    predictor/corrector, independent of the packed-tensor kernels.  Used
    to certify the solver's reported loss on a converged field.
    """
    from . import tensor as t2
    from .mesh import strain_at_qp

    total = 0.0
    for e in range(mesh.n_elements):
        op = ops.element(e)
        consts, law = materials[mesh.mat_id[e]]
        mu, kappa = consts.mu, consts.kappa
        eps = t2.to_matrix(strain_at_qp(op, u))
        eps_old = t2.to_matrix(committed_strain[e])
        sig_old = t2.to_matrix(committed.sigma[e])
        ep_old = t2.to_matrix(committed.eps_p[e])
        q_old = t2.to_matrix(committed.q[e])
        ebar_old = float(committed.ebar_p[e])

        d_eps = eps - eps_old
        s_tr = _dev(sig_old) + 2.0 * mu * _dev(d_eps)
        eta = s_tr - _dev(q_old)
        n_tr = _norm(eta)
        f_tr = n_tr - _SQ23 * (law.sigma_y0 + law.H * ebar_old)
        sigma = s_tr + (kappa * np.trace(d_eps)
                        + np.trace(sig_old) / 3.0) * np.eye(3)
        ep_new, ebar_new, q_new = ep_old, ebar_old, q_old
        if f_tr > 0.0:
            dg = f_tr / (2.0 * (mu + (law.H + law.C) / 3.0))
            n_hat = eta / n_tr
            ep_new = ep_old + dg * n_hat
            ebar_new = ebar_old + _SQ23 * dg
            sigma = sigma - 2.0 * mu * dg * n_hat
            zdir = _dev(sigma - q_old)
            zdir = zdir / _norm(zdir)
            q_new = q_old + 2.0 / 3.0 * dg * law.C * zdir

        w = 0.5 * (sigma * (eps - ep_new)).sum()
        dissip = ((ep_new - ep_old) * sigma).sum()
        if law.mode == ISOTROPIC:
            hard = 0.5 * law.H * ebar_new ** 2 \
                - law.H * ebar_new * (ebar_new - ebar_old)
        else:
            hard = 0.75 * (q_new * q_new).sum() / law.C \
                - 1.5 * (q_new * (q_new - q_old)).sum() / law.C
        total += op.measure * (w + dissip + hard)

    if traction_loads:
        for load in traction_loads:
            tvec = factor * np.asarray(load.base_vector, dtype=float)
            for i in range(load.corners.shape[0]):
                c = load.corners[i, :load.n_corners[i]]
                total -= load.area[i] * float(tvec @ u[c].mean(axis=0))
    return float(total)
