"""The Gaussian fluctuation limit around the mean-field path.

In the large-network limit the rescaled deviation of vertex k solves

    K^k_t = int_0^t phi(t - s) dG^k_s,
    dG^k = dGbar + sqrt(q (1 - q)) [ Wtilde^k h(I_s) ds + sqrt(h(I_s)) dBtilde^k_s ],
    dGbar = q [ W h(I_s) ds + (2p - 1) h'(I_s) Kbar_s ds + sqrt(h(I_s)) dB_s ],

with W ~ N(0, 4 p (1 - p)), Wtilde^k ~ N(0, 1), and independent Brownian
motions B, Btilde^k.  The integrator is Euler-Maruyama with left-point
(Ito) coefficients; for the exponential kernel the running convolution
collapses to the one-step recursion K_{m+1} = e^{-rate dt} (K_m + dG_m),
so a path costs O(M).  Other kernels fall back to the O(M^2) direct sum.

Every sample s draws from its own streams (seed, FLUCT, s, component), so a
single stored path and a large terminal-value batch agree bit for bit on
common sample indices.

The scheme is linear in its drivers (W, Wtilde^k, B, Btilde^k), so its
terminal law is Gaussian with mean 0, and `terminal_covariance` gives its
covariance exactly.  With the left-point values h_r = h(I(t_r)), h'_r,
phi_k = phi(k dt) and g_s = q (2p - 1) h'_s dt, the sensitivity of Kbar_T
to the driver increment of step r solves the backward pass (r = M-1..0)

    mu_r = phi_{M-r} + sum_{s>r} mu_s g_s phi_{s-r},

so Kbar_T = q sum_r mu_r (W h_r dt + sqrt(h_r dt) xi_r) with standard
normal xi_r.  The vertex part E^k = K^k_T - Kbar_T feeds no drift; it is
independent of Kbar_T and of E^j for j != k.  Hence

    Var Kbar_T = (q dt sum_r mu_r h_r)^2 4p(1-p) + q^2 dt sum_r mu_r^2 h_r,
    Var E^k    = q(1-q) [ (dt sum_r phi_{M-r} h_r)^2
                          + dt sum_r phi_{M-r}^2 h_r ],

every covariance entry equals Var Kbar_T, and the vertex variances add
Var E^k.  The pass costs O(M^2) for any kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, DerivativeUnavailableError,
                     ParameterError, is_integer)
from .kernels import Kernel, TransferFunction
from .network import _check_pq
from .rng import FLUCT, stream
from .volterra import IntensityPath

__all__ = [
    "FluctuationSample",
    "simulate_fluctuations",
    "sample_terminal_fluctuations",
    "terminal_covariance",
    "jackknife_covariance",
]


@dataclass(frozen=True)
class FluctuationSample:
    """One realization of (Kbar, K^1..K^n) with the drivers that produced it."""

    grid: np.ndarray
    kbar: np.ndarray          # (M+1,)
    k: np.ndarray             # (n, M+1)
    w: float
    w_tilde: np.ndarray       # (n,)
    db: np.ndarray            # (M,) Brownian increments of B
    db_tilde: np.ndarray      # (n, M)


def _check_count(name, value, least):
    """A count is an integer >= least: no float, even an integral one, and
    no bool."""
    if not is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}")


def _check_inputs(mean_path, transfer, p, q, n_vertices):
    _check_pq(p, q)
    _check_count("n_vertices", n_vertices, 0)
    if not transfer.has_derivative:
        raise DerivativeUnavailableError(
            "the fluctuation drift needs h'; supply a transfer with a "
            "derivative"
        )
    grid = mean_path.grid
    if len(grid) < 2:
        raise ContractError("mean path must carry at least one time step")
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ContractError("mean path must live on a uniform grid")


def _draw_chunk(seed, indices, n_vertices, m, p):
    """Drivers for the given sample indices, one stream per (sample, comp)."""
    size = len(indices)
    w = np.empty(size)
    w_tilde = np.empty((size, n_vertices))
    db = np.empty((size, m))
    db_tilde = np.empty((size, n_vertices, m))
    sd_w = 2.0 * math.sqrt(p * (1.0 - p))
    for row, s in enumerate(indices):
        g = stream(seed, FLUCT, s, 0)
        w[row] = sd_w * g.normal()
        db[row] = g.normal(size=m)
        for comp in range(n_vertices):
            gk = stream(seed, FLUCT, s, comp + 1)
            w_tilde[row, comp] = gk.normal()
            db_tilde[row, comp] = gk.normal(size=m)
    return w, w_tilde, db, db_tilde


def _left_point_table(mean_path, kernel, transfer):
    """(dt, h_r, h'_r, phi_k) of the scheme, for the sampler and the moments."""
    grid = mean_path.grid
    dt = grid[1] - grid[0]
    left = mean_path.values[:-1]
    return (dt, transfer(left), transfer.derivative(left),
            kernel.grid_values(dt, len(left)))


def _integrate_chunk(kernel, transfer, mean_path, p, q, w, w_tilde, db,
                     db_tilde):
    """Euler-Maruyama paths (S, M+1) and (S, n, M+1) over one chunk.

    db / db_tilde are standard-normal draws (first axis = sample); the
    sqrt(dt) scaling happens here so driver overrides can be stated in
    normalized units.
    """
    dt, h_left, hp_left, phi = _left_point_table(mean_path, kernel, transfer)
    m = len(h_left)
    size, n_vertices = w_tilde.shape
    root_h = np.sqrt(h_left)
    drift_gain = (2.0 * p - 1.0)
    spread = math.sqrt(q * (1.0 - q))
    sqdt = math.sqrt(dt)
    if kernel.is_exponential:
        decay = math.exp(-kernel.rate * dt)
    else:
        dgbar_all = np.empty((size, m))
        dg_all = np.empty((size, n_vertices, m))

    # time-major, so each step reads and writes one contiguous row
    kbar = np.zeros((m + 1, size))
    k = np.zeros((m + 1, size, n_vertices))
    for j in range(m):
        dgbar = q * (w * h_left[j] * dt
                     + drift_gain * hp_left[j] * kbar[j] * dt
                     + root_h[j] * sqdt * db[:, j])
        dg = dgbar[:, None] + spread * (
            w_tilde * h_left[j] * dt
            + root_h[j] * sqdt * db_tilde[:, :, j])
        if kernel.is_exponential:
            kbar[j + 1] = decay * (kbar[j] + dgbar)
            k[j + 1] = decay * (k[j] + dg)
        else:
            # K at t_{j+1} sums phi(t_{j+1} - t_r) dG_r over r <= j
            dgbar_all[:, j] = dgbar
            dg_all[:, :, j] = dg
            weights = phi[j + 1:0:-1]
            kbar[j + 1] = dgbar_all[:, :j + 1] @ weights
            k[j + 1] = dg_all[:, :, :j + 1] @ weights
    return kbar.T, k.transpose(1, 2, 0)


def simulate_fluctuations(mean_path: IntensityPath, kernel: Kernel,
                          transfer: TransferFunction, p: float, q: float,
                          n_vertices: int, seed: int, sample_index: int = 0,
                          drivers: dict | None = None) -> FluctuationSample:
    """Sample one realization of the limit system on the mean path's grid.

    ``drivers`` optionally overrides the random input, e.g.
    ``{"w": 0.0, "db": np.zeros(M)}`` forces the shared part to zero; keys
    are w, w_tilde, db, db_tilde with db entries in standard-normal units
    (the sqrt(dt) scaling is applied internally).  Overridden runs consume
    no randomness at all.
    """
    _check_inputs(mean_path, transfer, p, q, n_vertices)
    _check_count("sample_index", sample_index, 0)
    m = len(mean_path.grid) - 1
    if drivers is None:
        w, w_tilde, db, db_tilde = _draw_chunk(seed, [sample_index],
                                               n_vertices, m, p)
    else:
        unknown = set(drivers) - {"w", "w_tilde", "db", "db_tilde"}
        if unknown:
            raise ContractError(f"unknown driver keys {sorted(unknown)}")
        w = np.array([float(drivers.get("w", 0.0))])
        w_tilde = np.asarray(drivers.get("w_tilde", np.zeros(n_vertices)),
                             dtype=np.float64).reshape(1, n_vertices)
        db = np.asarray(drivers.get("db", np.zeros(m)),
                        dtype=np.float64).reshape(1, m)
        db_tilde = np.asarray(drivers.get("db_tilde", np.zeros((n_vertices, m))),
                              dtype=np.float64).reshape(1, n_vertices, m)
    kbar, k = _integrate_chunk(kernel, transfer, mean_path, p, q, w, w_tilde,
                               db, db_tilde)
    return FluctuationSample(
        grid=mean_path.grid, kbar=kbar[0], k=k[0], w=float(w[0]),
        w_tilde=w_tilde[0], db=db[0], db_tilde=db_tilde[0])


def sample_terminal_fluctuations(mean_path: IntensityPath, kernel: Kernel,
                                 transfer: TransferFunction, p: float,
                                 q: float, n_vertices: int, n_samples: int,
                                 seed: int, chunk: int = 256) -> dict:
    """Monte Carlo batch of terminal values (Kbar_T, K^1_T..K^n_T).

    Streams match simulate_fluctuations sample for sample, so spot checks
    against stored paths are exact.  Paths are held for one chunk of
    samples at a time and only their last column is kept.  Returns arrays
    kbar (S,), k (S, n), w (S,), w_tilde (S, n).
    """
    _check_inputs(mean_path, transfer, p, q, n_vertices)
    _check_count("n_samples", n_samples, 1)
    _check_count("chunk", chunk, 1)
    m = len(mean_path.grid) - 1
    kbar = np.empty(n_samples)
    k = np.empty((n_samples, n_vertices))
    w_all = np.empty(n_samples)
    wt_all = np.empty((n_samples, n_vertices))
    for start in range(0, n_samples, chunk):
        idx = list(range(start, min(start + chunk, n_samples)))
        w, w_tilde, db, db_tilde = _draw_chunk(seed, idx, n_vertices, m, p)
        kb, kk = _integrate_chunk(kernel, transfer, mean_path, p, q, w,
                                  w_tilde, db, db_tilde)
        kbar[idx] = kb[:, -1]
        k[idx] = kk[:, :, -1]
        w_all[idx] = w
        wt_all[idx] = w_tilde
    return {"kbar": kbar, "k": k, "w": w_all, "w_tilde": wt_all}


def _left_point_terms(mean_path, kernel, transfer, p, q):
    """(dt, h_r, phi_{M-r}, mu_r) of the scheme; see the module docstring."""
    dt, h, hp, phi = _left_point_table(mean_path, kernel, transfer)
    m = len(h)
    gain = q * (2.0 * p - 1.0) * hp * dt
    to_end = phi[m:0:-1]
    mu = np.empty(m)
    fed = np.empty(m)          # mu_s g_s, filled from the end
    for r in range(m - 1, -1, -1):
        mu[r] = to_end[r] + fed[r + 1:] @ phi[1:m - r]
        fed[r] = mu[r] * gain[r]
    return dt, h, to_end, mu


def terminal_covariance(mean_path: IntensityPath, kernel: Kernel,
                        transfer: TransferFunction, p: float, q: float,
                        n_vertices: int) -> np.ndarray:
    """Exact covariance of (Kbar_T, K^1_T..K^n_T) under the scheme.

    The terminal law of simulate_fluctuations is Gaussian with mean 0;
    this returns its (n+1, n+1) covariance, index 0 for Kbar, from the
    formulas in the module docstring.
    """
    _check_inputs(mean_path, transfer, p, q, n_vertices)
    dt, h, to_end, mu = _left_point_terms(mean_path, kernel, transfer, p, q)
    var_kbar = ((q * dt * (mu @ h)) ** 2 * 4.0 * p * (1.0 - p)
                + q * q * dt * (mu * mu @ h))
    var_vertex = q * (1.0 - q) * ((dt * (to_end @ h)) ** 2
                                  + dt * (to_end * to_end @ h))
    cov = np.full((n_vertices + 1, n_vertices + 1), var_kbar)
    cov[1:, 1:] += var_vertex * np.eye(n_vertices)
    return cov


def jackknife_covariance(values: np.ndarray, return_loo: bool = False):
    """Covariance matrix of the rows with leave-one-out jackknife errors.

    Returns (cov, se) where cov uses the unbiased R-1 denominator and se[a, b]
    is the jackknife standard error of cov[a, b]; with return_loo the stack of
    leave-one-out covariance matrices is appended (for errors of derived
    statistics such as entry differences).  Needs at least 3 rows.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    r = len(x)
    if r < 3:
        raise ContractError("jackknife needs at least 3 samples")
    outer = x[:, :, None] * x[:, None, :]
    s1 = x.sum(axis=0)
    s2 = outer.sum(axis=0)
    mean = s1 / r
    cov = (s2 - r * np.outer(mean, mean)) / (r - 1)
    loo_mean = (s1[None, :] - x) / (r - 1)
    loo_outer = loo_mean[:, :, None] * loo_mean[:, None, :]
    loo_cov = (s2[None] - outer - (r - 1) * loo_outer) / (r - 2)
    center = loo_cov.mean(axis=0)
    se = np.sqrt((r - 1) / r * np.sum((loo_cov - center[None]) ** 2, axis=0))
    if return_loo:
        return cov, se, loo_cov
    return cov, se
