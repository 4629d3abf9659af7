"""Discrete incremental free-energy functional and its exact parameter
gradient.

The loss for one load step is

    L(theta) = sum_e measure_e * psi_e(eps_e(u))  -  sum_f area_f * t.u_f

where u = mask * net(theta) + offset, eps_e is the reduced-quadrature
strain, psi_e the incremental free-energy density driven through the
radial return from the committed state of the previous step, and the
second sum is the external work of prescribed tractions evaluated at
facet centroids.

psi_e is the variationally consistent incremental potential of the
return map, so d(psi_e)/d(eps_e) is the updated stress sigma_new, and the
nodal gradient of the loss is exactly the internal force B^T sigma_new
minus the external load.  The gradient chains that force through the
Dirichlet mask and the network's reverse pass; no separate adjoint of the
return map is needed.

The whole mesh is evaluated in one pass: strains and the scatter of the
density gradient go through :class:`GradOperators`, and the material
kernels see every element at once.  The traction work is linear in u, so
it is held as one nodal load per unit load factor.
"""

from __future__ import annotations

import numpy as np

from . import material as mat
from .bc import BCError, apply_bc
from .mesh import GradOperators, Mesh, extract_boundary_facets, facet_corners


def _facet_areas(p: np.ndarray) -> np.ndarray:
    """Areas of facets from their outward-ordered corner coordinates
    (k, 3 or 4, 3), split as :func:`mesh.facet_area_normal` splits one
    facet: a quad is the sum of triangles (0, 1, 2) and (0, 2, 3)."""
    def tri(a, b, c):
        return 0.5 * np.linalg.norm(np.cross(p[:, b] - p[:, a],
                                             p[:, c] - p[:, a]), axis=1)
    if p.shape[1] == 3:
        return tri(0, 1, 2)
    return tri(0, 1, 2) + tri(0, 2, 3)


class EnergyWorkspace:
    """Committed quadrature states plus everything needed to evaluate the
    loss and its gradient for the current load step.

    ``materials`` is a sequence of (ElasticConstants, HardeningLaw)
    indexed by mesh.mat_id.  Scratch state is replaced on every loss
    evaluation, never written in place, so :meth:`commit` promotes it to
    the committed state without a copy.
    """

    def __init__(self, mesh: Mesh, ops: GradOperators, materials,
                 tractions=()):
        self.mesh = mesh
        self.ops = ops
        self.measure = ops.measures()

        mid = mesh.mat_id
        if np.any(mid < 0) or np.any(mid >= len(materials)):
            raise ValueError("mesh.mat_id references a missing material")
        mu = np.array([c.mu for c, _ in materials])
        kappa = np.array([c.kappa for c, _ in materials])
        sy0 = np.array([l.sigma_y0 for _, l in materials])
        hh = np.array([l.H for _, l in materials])
        cc = np.array([l.C for _, l in materials])
        iso = np.array([l.mode == mat.ISOTROPIC for _, l in materials])
        self.mu = mu[mid]
        self.kappa = kappa[mid]
        self.sigma_y0 = sy0[mid]
        self.H = hh[mid]
        self.C = cc[mid]
        self.iso = iso[mid]
        # per-point constants of the two kernels, computed once
        self._return_moduli = mat._return_moduli(self.mu, self.H, self.C)
        self._energy_moduli = mat._energy_moduli(self.H, self.C, self.iso)

        ne = mesh.n_elements
        self.committed = mat.PlasticState.zero(ne)
        self.committed_strain = np.zeros((ne, 6))
        self.scratch = mat.PlasticState.zero(ne)
        self.scratch_strain = np.zeros((ne, 6))

        # Nodal load at unit factor: each facet's traction force split
        # equally over its corners, so the work is sum(load * u).
        self.load = np.zeros((mesh.n_nodes, 3))
        for bc in tractions:
            pairs = []
            for name in bc.side_sets:
                if name in mesh.side_sets:
                    pairs.append(mesh.side_sets[name])
                elif name in mesh.node_sets:
                    pairs.append(extract_boundary_facets(mesh, name))
                else:
                    raise BCError(f"traction {bc.name or '?'}: unknown side "
                                  f"or node set {name!r}")
            pairs = np.concatenate(pairs) if pairs else np.empty((0, 2), int)
            corners = facet_corners(mesh, pairs)
            if not corners:
                continue
            counts = np.array([len(c) for c in corners])
            area = np.empty(len(corners))
            for n in (3, 4):
                sel = np.flatnonzero(counts == n)
                if sel.size:
                    area[sel] = _facet_areas(
                        mesh.nodes[np.stack([corners[i] for i in sel])])
            # unbuffered and in facet order, as a per-facet loop sums
            np.add.at(self.load, np.concatenate(corners),
                      np.repeat(area / counts, counts)[:, None]
                      * np.asarray(bc.vector, dtype=float))

        self.mask = np.ones((mesh.n_nodes, 3))
        self.offset = np.zeros((mesh.n_nodes, 3))
        self.factor = 1.0
        self.last_u = None

    def set_bc(self, mask: np.ndarray, offset: np.ndarray) -> None:
        self.mask = mask
        self.offset = offset

    def set_load_factor(self, factor: float) -> None:
        self.factor = float(factor)

    def commit(self) -> None:
        """Promote the scratch states of the last evaluation."""
        self.committed = self.scratch
        self.committed_strain = self.scratch_strain

    # -- assembly ---------------------------------------------------------

    def _evaluate(self, u: np.ndarray, need_grad: bool):
        eps = self.ops.strains(u)
        old = self.committed
        res, _ = mat.return_map(self.mu, self.kappa, self.sigma_y0, self.H,
                                self.C, old, eps - self.committed_strain,
                                moduli=self._return_moduli)
        dens = mat.energy_density(self.H, self.C, self.iso, res.state, old,
                                  eps, moduli=self._energy_moduli)
        self.scratch = res.state
        self.scratch_strain = eps
        value = float(self.measure @ dens) + self.external_potential(u)

        adj = None
        if need_grad:
            adj = -self.factor * self.load
            self.ops.scatter_strain_gradient(
                mat.density_strain_gradient(res.state), adj)
        return value, adj

    # -- public entry points ----------------------------------------------

    def displacement(self, net) -> np.ndarray:
        raw = net.forward(self.mesh.nodes)
        return apply_bc(self.mask, self.offset, raw)

    def loss_for_displacement(self, u: np.ndarray) -> float:
        """Loss of a given admissible nodal field (updates scratch state)."""
        self.last_u = u
        value, _ = self._evaluate(u, need_grad=False)
        return value

    def loss(self, net) -> float:
        return self.loss_for_displacement(self.displacement(net))

    def loss_and_grad(self, net):
        """Loss and its exact gradient with respect to the network
        parameters, as (float, flat ndarray)."""
        u = self.displacement(net)
        self.last_u = u
        value, adj = self._evaluate(u, need_grad=True)
        grad = net.backward(self.mask * adj)
        return value, grad

    def external_potential(self, u: np.ndarray) -> float:
        """The - integral(t . u dA) term alone, at the current factor."""
        return -self.factor * float((self.load * u).sum())
