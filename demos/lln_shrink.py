#!/usr/bin/env python3
"""Watch the worst-vertex deviation shrink as the network grows."""

import numpy as np

from hawkes_meanfield import (SimulationConfig, arctan_transfer,
                              exponential_kernel, replicate_seed,
                              sample_network, simulate_thinning,
                              solve_mean_field)


def main():
    kernel = exponential_kernel(1.0)
    h = arctan_transfer()
    p, q, horizon, reps = 0.8, 0.5, 4.0, 10
    mean_path = solve_mean_field(kernel, h, p, q, horizon)

    for n in (50, 200, 800):
        errs = []
        for r in range(reps):
            rs = replicate_seed(123, r + 1000 * n)
            net = sample_network(n, p, q, seed=rs)
            cfg = SimulationConfig(horizon=horizon, seed=rs,
                                   tracked_vertices=())
            res = simulate_thinning(net, kernel, h, cfg)
            # the vertex farthest from I is the lowest or the highest one
            errs.append(np.max(np.abs(res.input_range - mean_path.values)))
        errs = np.asarray(errs)
        print(f"N = {n:4d}: median sup_i,t |I_i - I| = {np.median(errs):.4f} "
              f"(range {errs.min():.4f} .. {errs.max():.4f})")


if __name__ == "__main__":
    main()
