#!/usr/bin/env python3
"""Terminal covariance of the limit fluctuation system.

Prints the exact covariance of (Kbar_T, K^1_T, K^2_T) under the
Euler-Maruyama scheme next to a Monte Carlo estimate from a batch of
samples, with jackknife errors and each entry's z-score.  Off-diagonal
entries all equal Var(Kbar_T): vertex deviations share the common part and
are otherwise independent.
"""

import numpy as np

from hawkes_meanfield import (arctan_transfer, exponential_kernel,
                              jackknife_covariance,
                              sample_terminal_fluctuations, solve_mean_field,
                              terminal_covariance)

P, Q = 0.8, 0.5
HORIZON = 4.0
SAMPLES = 20000


def main():
    kernel = exponential_kernel(1.0)
    h = arctan_transfer()
    mean_path = solve_mean_field(kernel, h, P, Q, HORIZON)
    exact = terminal_covariance(mean_path, kernel, h, P, Q, n_vertices=2)
    batch = sample_terminal_fluctuations(mean_path, kernel, h, P, Q,
                                         n_vertices=2, n_samples=SAMPLES,
                                         seed=7)
    rows = np.column_stack([batch["kbar"], batch["k"]])
    cov, se = jackknife_covariance(rows)
    z = (cov - exact) / se

    labels = ["Kbar", "K1", "K2"]
    print(f"p = {P}, q = {Q}, T = {HORIZON}; {SAMPLES} Monte Carlo samples")
    print("exact / Monte Carlo (jackknife SE) [z]:")
    for i, name in enumerate(labels):
        cells = "  ".join(f"{exact[i, j]:7.4f} / {cov[i, j]:7.4f} "
                          f"({se[i, j]:.4f}) [{z[i, j]:+.2f}]"
                          for j in range(3))
        print(f"  {name:4s} {cells}")
    print(f"shared-part variance Var(Kbar) = {exact[0, 0]:.4f}; "
          f"vertex excess = {exact[1, 1] - exact[0, 0]:.4f} "
          f"(q(1-q) channel); largest |z| = {np.abs(z).max():.2f}")


if __name__ == "__main__":
    main()
