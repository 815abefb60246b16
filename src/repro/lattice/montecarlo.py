"""Pure-gauge Monte Carlo: the *generation* phase of the LQCD workflow.

The paper's introduction describes lattice QCD as a two-phase computation:
first "one generates thousands of configurations of the strong force
fields", then each configuration is analyzed with the solvers this
library parallelizes.  The conclusion lists gauge generation on GPU
clusters as future work ("Parallelization onto multiple GPUs may make
gauge generation on GPU clusters an interesting and desirable
possibility"); this module supplies that missing phase with the standard
pure-gauge algorithm suite:

* the **Wilson gauge action** ``S = beta * sum_P (1 - Re tr U_P / 3)``,
* the **Cabibbo-Marinari pseudo-heatbath**: each SU(3) link is updated
  through its three SU(2) subgroups, each subgroup drawn from the exact
  local heatbath distribution (Creutz / Kennedy-Pendleton),
* **overrelaxation** sweeps (microcanonical reflections) to decorrelate,
* an :class:`Ensemble` driver with plaquette thermalization tracking.

Updates sweep the lattice checkerboard-by-checkerboard and
direction-by-direction so that every link in a batch has a staple sum
independent of the other links being updated — the standard
parallelizable ordering (and the one a multi-GPU port would use).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import NDIM, LatticeGeometry
from . import su3
from .fields import GaugeField

__all__ = [
    "staple_sum",
    "wilson_action",
    "su2_heatbath",
    "heatbath_sweep",
    "overrelaxation_sweep",
    "Ensemble",
]

#: The three SU(2) subgroups of SU(3): index pairs (i, j) with i < j.
_SU2_SUBGROUPS = ((0, 1), (0, 2), (1, 2))


def staple_sum(gauge: GaugeField, mu: int) -> np.ndarray:
    """Sum of the six staples around every ``mu`` link, shape ``(V, 3, 3)``.

    Oriented so that ``U_mu(x) @ A`` is the sum of the six plaquettes
    containing the link: the local Boltzmann weight of ``U_mu(x)`` is
    ``exp(+beta/3 * Re tr[U_mu(x) A])``, which is all the heatbath and
    overrelaxation updates need.
    """
    geo = gauge.geometry
    u = gauge.data
    fwd = geo.neighbor_fwd
    bwd = geo.neighbor_bwd
    adj = su3.adjoint
    total = np.zeros((geo.volume, 3, 3), dtype=np.complex128)
    for nu in range(NDIM):
        if nu == mu:
            continue
        # Forward staple: U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag.
        total += u[nu][fwd[mu]] @ adj(u[mu][fwd[nu]]) @ adj(u[nu])
        # Backward staple: U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu).
        xm = bwd[nu]
        total += adj(u[nu][fwd[mu]][xm]) @ adj(u[mu][xm]) @ u[nu][xm]
    return total


def wilson_action(gauge: GaugeField, beta: float) -> float:
    """The Wilson gauge action ``beta * sum_P (1 - Re tr U_P / 3)``."""
    n_plaq = 6 * gauge.geometry.volume
    return beta * n_plaq * (1.0 - gauge.plaquette())


def su2_heatbath(k: np.ndarray, beta_eff: float, rng: np.random.Generator) -> np.ndarray:
    """Draw SU(2) matrices from ``dP ~ exp(beta_eff * k * a0/2) dOmega``.

    ``k`` is the per-site magnitude of the embedded SU(2) staple
    projection; returns quaternion components ``(sites, 4)`` =
    ``(a0, a1, a2, a3)``.  Uses Creutz's accept/reject for ``a0`` — exact
    for any coupling — vectorized with a resampling loop.
    """
    n = k.shape[0]
    alpha = np.maximum(beta_eff * k, 1e-12)
    a0 = np.empty(n)
    todo = np.ones(n, dtype=bool)
    # Creutz: a0 = 1 + log(x) / alpha with x uniform in [exp(-2 alpha), 1],
    # accepted with probability sqrt(1 - a0^2).
    while np.any(todo):
        idx = np.nonzero(todo)[0]
        a = alpha[idx]
        x = rng.uniform(np.exp(-2.0 * a), 1.0)
        trial = 1.0 + np.log(x) / a
        accept = rng.uniform(size=idx.size) ** 2 <= 1.0 - trial**2
        a0[idx[accept]] = trial[accept]
        todo[idx[accept]] = False
    # Direction of (a1, a2, a3): uniform on the sphere of radius r.
    r = np.sqrt(np.maximum(0.0, 1.0 - a0**2))
    costh = rng.uniform(-1.0, 1.0, size=n)
    sinth = np.sqrt(1.0 - costh**2)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack(
        [a0, r * sinth * np.cos(phi), r * sinth * np.sin(phi), r * costh], axis=1
    )


def _su2_extract(w: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Project the (i, j) 2x2 submatrix of ``w`` onto SU(2)xR+.

    Any 2x2 complex matrix decomposes as ``m = k * q`` with ``q`` in SU(2)
    and ``k >= 0`` via ``q ~ (m + sigma_2 m* sigma_2)``.  Returns the
    quaternion components of ``q`` (sites, 4) and the magnitudes ``k``.
    """
    m00 = w[:, i, i]
    m01 = w[:, i, j]
    m10 = w[:, j, i]
    m11 = w[:, j, j]
    a0 = 0.5 * (m00 + m11).real
    a1 = 0.5 * (m01 + m10).imag
    a2 = 0.5 * (m01 - m10).real
    a3 = 0.5 * (m00 - m11).imag
    quat = np.stack([a0, a1, a2, a3], axis=1)
    k = np.sqrt(np.sum(quat**2, axis=1))
    safe = np.where(k < 1e-300, 1.0, k)
    return quat / safe[:, None], k


def _su2_embed(quat: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Embed quaternions as SU(2) matrices in the (i, j) plane of SU(3)."""
    out = su3.identity((n,))
    a0, a1, a2, a3 = (quat[:, c] for c in range(4))
    out[:, i, i] = a0 + 1j * a3
    out[:, i, j] = a2 + 1j * a1
    out[:, j, i] = -a2 + 1j * a1
    out[:, j, j] = a0 - 1j * a3
    return out


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product in the ``a0 + i a_k sigma_k`` basis (vectorized).

    The basis units ``e_k = i sigma_k`` satisfy ``e_i e_j = -eps_ijk e_k``
    (the *reversed* Hamilton convention), so the vector part is
    ``p0 q_vec + q0 p_vec - p_vec x q_vec``; this makes ``_su2_embed`` a
    group homomorphism, which the tests verify directly.
    """
    a0, a1, a2, a3 = (p[:, c] for c in range(4))
    b0, b1, b2, b3 = (q[:, c] for c in range(4))
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 - (a2 * b3 - a3 * b2),
            a0 * b2 + a2 * b0 - (a3 * b1 - a1 * b3),
            a0 * b3 + a3 * b0 - (a1 * b2 - a2 * b1),
        ],
        axis=1,
    )


def _quat_conj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[:, 1:] *= -1.0
    return out


def _update_links(
    gauge: GaugeField,
    mu: int,
    sites: np.ndarray,
    rng: np.random.Generator | None,
    beta: float,
    overrelax: bool,
) -> None:
    """Heatbath (or overrelaxation) update of one checkerboard of U_mu."""
    staples = staple_sum(gauge, mu)[sites]
    u = gauge.data[mu][sites]
    for i, j in _SU2_SUBGROUPS:
        w = u @ staples
        v_quat, k = _su2_extract(w, i, j)
        if overrelax:
            # Microcanonical reflection: g = v^dag^2 keeps tr[g w] fixed.
            g_quat = _quat_mul(_quat_conj(v_quat), _quat_conj(v_quat))
        else:
            # Heatbath in this subgroup: new subgroup element q with
            # q * (k v) distributed per the local action => q = h v^dag.
            h = su2_heatbath(k, 2.0 * beta / 3.0, rng)
            g_quat = _quat_mul(h, _quat_conj(v_quat))
        g = _su2_embed(g_quat, i, j, sites.size)
        u = g @ u
    gauge.data[mu][sites] = su3.reunitarize(u)


def heatbath_sweep(gauge: GaugeField, beta: float, rng: np.random.Generator) -> None:
    """One Cabibbo-Marinari pseudo-heatbath sweep over all links.

    Checkerboard-by-checkerboard, direction-by-direction: every link in a
    batch sees a fixed staple environment, so the update is embarrassingly
    parallel within a batch (the ordering a GPU port would exploit).
    """
    geo = gauge.geometry
    for parity in (0, 1):
        sites = geo.sites_of_parity[parity]
        for mu in range(NDIM):
            _update_links(gauge, mu, sites, rng, beta, overrelax=False)


def overrelaxation_sweep(gauge: GaugeField, rng: np.random.Generator) -> None:
    """One microcanonical overrelaxation sweep (action-preserving up to
    the SU(2)-subgroup approximation; decorrelates the ensemble)."""
    geo = gauge.geometry
    for parity in (0, 1):
        sites = geo.sites_of_parity[parity]
        for mu in range(NDIM):
            _update_links(gauge, mu, sites, rng, 0.0, overrelax=True)


@dataclass
class Ensemble:
    """A Markov chain of gauge configurations at coupling ``beta``.

    The usual production mix: each "update" is one heatbath sweep followed
    by ``n_overrelax`` overrelaxation sweeps.
    """

    geometry: LatticeGeometry
    beta: float
    rng: np.random.Generator
    n_overrelax: int = 2
    start: str = "cold"  # 'cold' (unit links) or 'hot' (random)
    gauge: GaugeField = field(init=False)
    plaquette_history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        from .random_fields import random_gauge, unit_gauge

        if self.start == "cold":
            self.gauge = unit_gauge(self.geometry)
        elif self.start == "hot":
            self.gauge = random_gauge(self.geometry, self.rng)
        else:
            raise ValueError(f"start must be 'cold' or 'hot', got {self.start!r}")
        self.plaquette_history.append(self.gauge.plaquette())

    def update(self, n: int = 1) -> float:
        """Run ``n`` compound updates; returns the latest plaquette."""
        for _ in range(n):
            heatbath_sweep(self.gauge, self.beta, self.rng)
            for _ in range(self.n_overrelax):
                overrelaxation_sweep(self.gauge, self.rng)
            self.plaquette_history.append(self.gauge.plaquette())
        return self.plaquette_history[-1]
