"""Limit-system sampling: stream layout, degeneracies, linearity, jackknife,
and the exact terminal covariance against its Monte Carlo oracle."""

import math

import numpy as np
import pytest

from hawkes_meanfield.errors import (ContractError,
                                     DerivativeUnavailableError,
                                     ParameterError)
from hawkes_meanfield.fluctuations import (_left_point_terms,
                                           jackknife_covariance,
                                           sample_terminal_fluctuations,
                                           simulate_fluctuations,
                                           terminal_covariance)
from hawkes_meanfield.kernels import (arctan_transfer, exponential_kernel,
                                      tabulated_kernel, tabulated_transfer)
from hawkes_meanfield.volterra import IntensityPath, solve_mean_field

EXP = exponential_kernel(1.0)
ARCTAN = arctan_transfer()


def _coarse_path(p=0.8, q=0.5, horizon=2.0, m=128):
    return solve_mean_field(EXP, ARCTAN, p, q, horizon, dt=horizon / m)


def test_same_seed_and_index_reproduce():
    path = _coarse_path()
    a = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 3, seed=7,
                              sample_index=4)
    b = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 3, seed=7,
                              sample_index=4)
    np.testing.assert_array_equal(a.kbar, b.kbar)
    np.testing.assert_array_equal(a.k, b.k)
    c = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 3, seed=7,
                              sample_index=5)
    assert not np.array_equal(a.kbar, c.kbar)


def test_batch_terminals_match_stored_paths_bitwise():
    # same (seed, sample_index) streams on both code paths, so batch entries
    # must equal the corresponding single-sample terminal values exactly
    path = _coarse_path()
    batch = sample_terminal_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2,
                                         n_samples=40, seed=11, chunk=16)
    for idx in (0, 15, 16, 39):
        one = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2, seed=11,
                                    sample_index=idx)
        assert batch["kbar"][idx] == one.kbar[-1]
        np.testing.assert_array_equal(batch["k"][idx], one.k[:, -1])
        assert batch["w"][idx] == one.w
        np.testing.assert_array_equal(batch["w_tilde"][idx], one.w_tilde)


def test_full_connectivity_collapses_vertex_spread():
    # q = 1 kills the sqrt(q(1-q)) terms, every vertex rides the shared part
    path = _coarse_path(q=1.0)
    s = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 1.0, 4, seed=3)
    for comp in range(4):
        np.testing.assert_array_equal(s.k[comp], s.kbar)


def test_empty_graph_freezes_everything():
    path = _coarse_path(q=0.5)
    s = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.0, 3, seed=3)
    assert not s.kbar.any()
    assert not s.k.any()


def test_no_tracked_vertices_is_allowed():
    path = _coarse_path()
    s = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 0, seed=9)
    assert s.k.shape == (0, len(path.grid))
    batch = sample_terminal_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 0,
                                         n_samples=5, seed=9)
    assert batch["k"].shape == (5, 0)


def test_balanced_case_path_is_explicit_driver_sum():
    # at p = 1/2 the drift feedback through h' vanishes and the mean path is
    # identically zero, so with h(0) = 1 the shared recursion reduces to
    #   Kbar_{j+1} = e^{-dt} (Kbar_j + q (w dt + sqrt(dt) db_j))
    # which the stored drivers reproduce directly
    path = _coarse_path(p=0.5)
    assert not path.values.any()
    q = 0.5
    s = simulate_fluctuations(path, EXP, ARCTAN, 0.5, q, 1, seed=21)
    m = len(path.grid) - 1
    dt = path.grid[1] - path.grid[0]
    decay = math.exp(-dt)
    expect = np.zeros(m + 1)
    for j in range(m):
        expect[j + 1] = decay * (expect[j]
                                 + q * (s.w * dt + math.sqrt(dt) * s.db[j]))
    np.testing.assert_allclose(s.kbar, expect, rtol=0.0, atol=1e-12)
    # and the per-vertex path adds the independent channel on top
    spread = math.sqrt(q * (1.0 - q))
    expect_k = np.zeros(m + 1)
    for j in range(m):
        dg = (q * (s.w * dt + math.sqrt(dt) * s.db[j])
              + spread * (s.w_tilde[0] * dt
                          + math.sqrt(dt) * s.db_tilde[0, j]))
        expect_k[j + 1] = decay * (expect_k[j] + dg)
    np.testing.assert_allclose(s.k[0], expect_k, rtol=0.0, atol=1e-12)


def test_balanced_case_terminal_variance_closed_form():
    # same reduction as above; the terminal value is a fixed linear form in
    # independent Gaussians, so its variance is exact for the scheme:
    #   Var = q^2 [ 4 p (1-p) A^2 + dt * B ],  A = dt sum decay^i,
    #   B = sum decay^{2 i},  i = 1..M
    path = _coarse_path(p=0.5, m=128)
    q, n_samples = 0.5, 4000
    batch = sample_terminal_fluctuations(path, EXP, ARCTAN, 0.5, q, 0,
                                         n_samples=n_samples, seed=77)
    dt = path.grid[1] - path.grid[0]
    powers = np.exp(-dt * np.arange(1, len(path.grid)))
    target = q ** 2 * ((dt * powers.sum()) ** 2 + dt * (powers ** 2).sum())
    var = np.var(batch["kbar"], ddof=1)
    se = target * math.sqrt(2.0 / (n_samples - 1))
    assert abs(var - target) < 4.0 * se


def test_driver_override_is_deterministic_and_linear():
    path = _coarse_path()
    rng = np.random.default_rng(5)
    m = len(path.grid) - 1
    drivers = {"w": 0.7, "w_tilde": rng.normal(size=2),
               "db": rng.normal(size=m), "db_tilde": rng.normal(size=(2, m))}
    a = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2, seed=1,
                              drivers=drivers)
    b = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2, seed=999,
                              drivers=drivers)
    np.testing.assert_array_equal(a.kbar, b.kbar)
    np.testing.assert_array_equal(a.k, b.k)
    # doubling every driver doubles the solution exactly: the one-step map is
    # linear and multiplication by two only shifts exponents
    doubled = {key: 2.0 * np.asarray(val) if key != "w" else 2.0 * val
               for key, val in drivers.items()}
    d = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2, seed=1,
                              drivers=doubled)
    np.testing.assert_array_equal(d.kbar, 2.0 * a.kbar)
    np.testing.assert_array_equal(d.k, 2.0 * a.k)


def test_zero_drivers_give_zero_paths():
    path = _coarse_path()
    s = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2, seed=1,
                              drivers={})
    assert not s.kbar.any()
    assert not s.k.any()
    assert s.w == 0.0


def test_unknown_driver_keys_rejected():
    path = _coarse_path()
    with pytest.raises(ContractError):
        simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 1, seed=1,
                              drivers={"noise": 1.0})


def test_tabulated_kernel_reproduces_exponential_recursion():
    # tabulating e^{-u} on the grid lags makes the O(M^2) fallback compute
    # the same weighted sums as the exponential recursion
    path = _coarse_path(m=64)
    m = len(path.grid) - 1
    dt = path.grid[1] - path.grid[0]
    nodes = dt * np.arange(m + 1)
    tab = tabulated_kernel(nodes, np.exp(-nodes))
    assert not tab.is_exponential
    rng = np.random.default_rng(13)
    drivers = {"w": -0.4, "w_tilde": rng.normal(size=2),
               "db": rng.normal(size=m), "db_tilde": rng.normal(size=(2, m))}
    a = simulate_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2, seed=1,
                              drivers=drivers)
    b = simulate_fluctuations(path, tab, ARCTAN, 0.8, 0.5, 2, seed=1,
                              drivers=drivers)
    np.testing.assert_allclose(b.kbar, a.kbar, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(b.k, a.k, rtol=0.0, atol=1e-10)


def test_transfer_without_derivative_is_rejected():
    path = _coarse_path()
    nodes = np.linspace(-5.0, 5.0, 51)
    flat = tabulated_transfer(nodes, np.full(51, 1.5))
    with pytest.raises(DerivativeUnavailableError):
        simulate_fluctuations(path, EXP, flat, 0.8, 0.5, 1, seed=1)


def test_grid_contract_violations():
    bad = IntensityPath(grid=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
    with pytest.raises(ContractError):
        simulate_fluctuations(bad, EXP, ARCTAN, 0.8, 0.5, 1, seed=1)
    point = IntensityPath(grid=np.array([0.0]), values=np.zeros(1))
    with pytest.raises(ContractError):
        simulate_fluctuations(point, EXP, ARCTAN, 0.8, 0.5, 1, seed=1)
    with pytest.raises(ParameterError):
        simulate_fluctuations(_coarse_path(), EXP, ARCTAN, 1.2, 0.5, 1, seed=1)
    with pytest.raises(ParameterError):
        sample_terminal_fluctuations(_coarse_path(), EXP, ARCTAN, 0.8, 0.5, 1,
                                     n_samples=0, seed=1)
    with pytest.raises(ParameterError, match="^n_vertices must be >= 0$"):
        simulate_fluctuations(_coarse_path(), EXP, ARCTAN, 0.8, 0.5, -1,
                              seed=1)


def test_terminal_covariance_structure():
    # K^j = Kbar + sqrt(q(1-q)) S^j with S^j independent across j and of
    # Kbar, so every off-diagonal entry of Cov(Kbar, K^1, K^2) estimates
    # Var(Kbar) and the vertex variances exceed it
    path = _coarse_path(p=0.8, m=128)
    batch = sample_terminal_fluctuations(path, EXP, ARCTAN, 0.8, 0.5, 2,
                                         n_samples=3000, seed=31)
    rows = np.column_stack([batch["kbar"], batch["k"]])
    cov, se = jackknife_covariance(rows)
    var_kbar = cov[0, 0]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        band = 4.0 * (se[a, b] + se[0, 0])
        assert abs(cov[a, b] - var_kbar) < band, (a, b)
    assert cov[1, 1] - cov[0, 1] > 3.0 * (se[1, 1] + se[0, 1])
    assert cov[2, 2] - cov[0, 2] > 3.0 * (se[2, 2] + se[0, 2])


def test_jackknife_matches_direct_covariance():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(40, 3)) @ np.array([[1.0, 0.3, 0.0],
                                             [0.0, 1.0, -0.5],
                                             [0.0, 0.0, 1.0]])
    cov, se, loo = jackknife_covariance(x, return_loo=True)
    np.testing.assert_allclose(cov, np.cov(x.T, ddof=1), rtol=1e-10)
    assert loo.shape == (40, 3, 3)
    for i in (0, 19, 39):
        np.testing.assert_allclose(loo[i],
                                   np.cov(np.delete(x, i, axis=0).T, ddof=1),
                                   rtol=1e-9)
    assert np.all(se > 0.0)
    flat_cov, flat_se = jackknife_covariance(x[:, 0])
    assert flat_cov.shape == (1, 1)
    np.testing.assert_allclose(flat_cov[0, 0], np.var(x[:, 0], ddof=1),
                               rtol=1e-10)
    assert flat_se[0, 0] > 0.0
    with pytest.raises(ContractError):
        jackknife_covariance(x[:2])


# ----------------------------------------------------------------------
# exact terminal covariance
# ----------------------------------------------------------------------

def _truncated_exponential():
    # e^{-u} on [0, 1.5]: finite support inside the horizon, history mode
    nodes = np.linspace(0.0, 1.5, 61)
    return tabulated_kernel(nodes, np.exp(-nodes))


KERNEL_MODES = {"exponential": EXP, "tabulated": _truncated_exponential()}


def _mode_path(kernel, p=0.8, q=0.5, horizon=2.0, m=128):
    return solve_mean_field(kernel, ARCTAN, p, q, horizon, dt=horizon / m)


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
def test_sensitivities_are_the_scheme_responses_to_unit_drivers(mode):
    # the scheme is linear in its drivers, so a unit driver reads off its
    # coefficient in the terminal value exactly (up to rounding)
    kernel = KERNEL_MODES[mode]
    p, q = 0.8, 0.5
    path = _mode_path(kernel)
    dt, h, to_end, mu = _left_point_terms(path, kernel, ARCTAN, p, q)
    m = len(path.grid) - 1
    unit_w = simulate_fluctuations(path, kernel, ARCTAN, p, q, 0, seed=1,
                                   drivers={"w": 1.0})
    np.testing.assert_allclose(unit_w.kbar[-1], q * dt * (mu @ h),
                               rtol=1e-12, atol=0.0)
    for r in (0, 1, m // 2, m - 2, m - 1):
        db = np.zeros(m)
        db[r] = 1.0
        unit_db = simulate_fluctuations(path, kernel, ARCTAN, p, q, 0,
                                        seed=1, drivers={"db": db})
        np.testing.assert_allclose(unit_db.kbar[-1],
                                   q * math.sqrt(h[r] * dt) * mu[r],
                                   rtol=1e-12, atol=0.0)
    # the vertex part feeds no drift: it weighs the drivers with phi_{M-r}
    unit_wt = simulate_fluctuations(path, kernel, ARCTAN, p, q, 1, seed=1,
                                    drivers={"w_tilde": np.ones(1)})
    assert unit_wt.kbar[-1] == 0.0
    np.testing.assert_allclose(unit_wt.k[0, -1],
                               math.sqrt(q * (1.0 - q)) * dt * (to_end @ h),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
def test_terminal_covariance_agrees_with_monte_carlo(mode):
    kernel = KERNEL_MODES[mode]
    p, q = 0.8, 0.5
    path = _mode_path(kernel)
    exact = terminal_covariance(path, kernel, ARCTAN, p, q, 2)
    batch = sample_terminal_fluctuations(path, kernel, ARCTAN, p, q, 2,
                                         n_samples=10000, seed=2024)
    cov, se = jackknife_covariance(np.column_stack([batch["kbar"],
                                                    batch["k"]]))
    assert exact.shape == (3, 3)
    assert np.all(np.abs(cov - exact) <= 4.0 * se), (cov - exact) / se
    # exchangeable structure: one shared variance, vertex variances above it
    assert np.all(exact[0] == exact[0, 0])
    assert exact[1, 2] == exact[0, 0]
    assert exact[1, 1] == exact[2, 2] > exact[0, 0] > 0.0


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_terminal_covariance_degenerate_connectivity(q):
    path = _coarse_path(q=q)
    cov = terminal_covariance(path, EXP, ARCTAN, 0.8, q, 3)
    assert cov.shape == (4, 4)
    assert np.all(cov == cov[0, 0])
    assert (cov[0, 0] == 0.0) == (q == 0.0)


def test_terminal_covariance_edge_cases():
    path = _coarse_path()
    alone = terminal_covariance(path, EXP, ARCTAN, 0.8, 0.5, 0)
    assert alone.shape == (1, 1)
    assert alone[0, 0] == terminal_covariance(path, EXP, ARCTAN, 0.8, 0.5,
                                              2)[0, 0]
    nodes = np.linspace(-5.0, 5.0, 51)
    flat = tabulated_transfer(nodes, np.full(51, 1.5))
    with pytest.raises(DerivativeUnavailableError):
        terminal_covariance(path, EXP, flat, 0.8, 0.5, 1)
    with pytest.raises(ParameterError):
        terminal_covariance(path, EXP, ARCTAN, 0.8, 1.5, 1)
    bad = IntensityPath(grid=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
    with pytest.raises(ContractError):
        terminal_covariance(bad, EXP, ARCTAN, 0.8, 0.5, 1)
