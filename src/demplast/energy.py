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

Every evaluation of a load step restarts the return map from the same
committed state, so the workspace forms that state's
:class:`material.StepConstants`, every per-point constant of the
material kernels, once: at construction and in
:meth:`EnergyWorkspace.commit`.  psi_e is then evaluated in closed form,

    psi_e = sigma_trial : (eps_e - eps_p_old) / 2 + stored_old
            - delta_gamma f_trial / 2,

from the trial state alone; the new plastic strain, back stress and
accumulated plastic strain are formed only for the evaluation that gets
committed, or when ``scratch`` is read.

The whole mesh is evaluated in one pass: strains and the scatter of the
density gradient go through :class:`GradOperators`, and the material
kernels see every element at once.  The traction work is linear in u, so
it is held as one nodal load per unit load factor; a problem without a
traction holds no load and skips the external work.

:meth:`EnergyWorkspace.loss` keeps no reverse-pass state: it runs the
network's loss-only pass, ``forward(coords, keep=False)``, which holds
no activations.  It serves every evaluation that needs no gradient, the
end-of-step loss of training and of inference alike, so the two give the
same bits on one mesh.
"""

from __future__ import annotations

import numpy as np

from . import material as mat
from .bc import BCError
from .mesh import GradOperators, Mesh, extract_boundary_facets, facet_geometry


class EnergyWorkspace:
    """Committed quadrature states plus everything needed to evaluate the
    loss and its gradient for the current load step.

    ``materials`` is a sequence of (ElasticConstants, HardeningLaw)
    indexed by mesh.mat_id.  The result of the last evaluation is replaced
    on every loss evaluation, never written in place, so :meth:`commit`
    promotes its state to the committed state without a copy.
    """

    def __init__(self, mesh: Mesh, ops: GradOperators, materials,
                 tractions=()):
        self.mesh = mesh
        self.ops = ops
        self.measure = ops.measures()

        mid = mesh.mat_id
        if np.any(mid < 0) or np.any(mid >= len(materials)):
            raise ValueError("mesh.mat_id references a missing material")
        # one row per parameter, one column per point
        table = np.array([[c.mu, c.kappa, l.sigma_y0, l.H, l.C]
                          for c, l in materials]).T[:, mid].copy()
        self.mu, self.kappa, self.sigma_y0, self.H, self.C = table

        ne = mesh.n_elements
        self._start = self._constants(mat.PlasticState.zero(ne))
        self._last = None        # ReturnResult of the last evaluation
        self.committed_strain = np.zeros((ne, 6))
        self.scratch_strain = self.committed_strain

        # Nodal load at unit factor: each facet's traction force split
        # equally over its corners, so the work is sum(load * u); None
        # without a traction.
        self.load = np.zeros((mesh.n_nodes, 3)) if tractions else None
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
            corners, area = facet_geometry(mesh, np.concatenate(pairs))
            if not len(area):
                raise BCError(f"traction {bc.name or '?'}: sets "
                              f"{', '.join(map(repr, bc.side_sets))} hold "
                              "no boundary facet to load")
            used = corners >= 0
            counts = used.sum(axis=1)
            # unbuffered and in facet order, as a per-facet loop sums
            np.add.at(self.load, corners[used],
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

    @property
    def committed(self) -> mat.PlasticState:
        """The committed quadrature states."""
        return self._start.state

    @property
    def scratch(self) -> mat.PlasticState:
        """The quadrature states of the last evaluation, formed on first
        read; the committed states before any evaluation."""
        return self.committed if self._last is None else self._last.state

    def _constants(self, state: mat.PlasticState) -> mat.StepConstants:
        return mat.StepConstants.of(state, self.mu, self.sigma_y0, self.H,
                                    self.C)

    def commit(self) -> None:
        """Promote the states of the last evaluation and form the next
        step's constants from them."""
        if self._last is not None:
            self._start = self._constants(self._last.state)
            self._last = None
        self.committed_strain = self.scratch_strain

    # -- assembly ---------------------------------------------------------

    def _evaluate(self, u: np.ndarray, need_grad: bool):
        eps = self.ops.strains(u)
        res, _ = mat.return_map(self.mu, self.kappa, self.sigma_y0, self.H,
                                self.C, self._start,
                                eps - self.committed_strain)
        dens = mat.energy_density(res, eps)
        self._last = res
        self.scratch_strain = eps
        value = float(self.measure @ dens)
        if self.load is not None:
            value += self.external_potential(u)

        adj = None
        if need_grad:
            adj = self.ops.scatter_strain_gradient(
                mat.density_strain_gradient(res))
            if self.load is not None:
                adj -= self.factor * self.load
        return value, adj

    # -- public entry points ----------------------------------------------

    def displacement(self, net, keep: bool = True) -> np.ndarray:
        """The admissible nodal field of ``net``; ``keep`` is passed to
        its forward pass."""
        return self.mask * net.forward(self.mesh.nodes, keep=keep) \
            + self.offset

    def loss_for_displacement(self, u: np.ndarray) -> float:
        """Loss of a given admissible nodal field (updates scratch state)."""
        self.last_u = u
        value, _ = self._evaluate(u, need_grad=False)
        return value

    def loss(self, net) -> float:
        """Loss of ``net``'s field (updates scratch state).  Its forward
        pass keeps no activations, so no reverse pass can follow."""
        return self.loss_for_displacement(self.displacement(net, keep=False))

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
        if self.load is None:
            return 0.0
        return -self.factor * float((self.load * u).sum())
