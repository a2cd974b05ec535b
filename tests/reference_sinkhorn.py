"""Slow log-domain reference for ``tvmerge.similarity.sinkhorn_ot``.

Every iteration runs two log-sum-exp passes over the full ``(n_x, n_y)``
matrix, so no scaling can overflow or underflow. The production solver
takes the same steps in kernel space and must agree with this loop on
the iteration count, the convergence flag and the cost. Only numpy is
shared with the production code.
"""

import math

import numpy as np

# The production solver's warm-start schedule.
STAGE_START = 1.0
STAGE_DECAY = 0.25
STAGE_ITERS = 60
STAGE_TOL = 1e-4


def dense_sq_dists(x, y):
    """Squared Euclidean distances by the dense formula over every column."""
    sq_x = np.einsum("ij,ij->i", x, x)
    sq_y = np.einsum("ij,ij->i", y, y)
    return np.maximum(sq_x[:, None] + sq_y[None, :] - 2.0 * (x @ y.T), 0.0)


def logsumexp(values, axis):
    peak = values.max(axis=axis, keepdims=True)
    return np.log(np.exp(values - peak).sum(axis=axis)) + peak.squeeze(axis)


def reference_sinkhorn(x, y, epsilon=1e-2, max_iters=1000, tol=1e-9):
    """(cost, converged, iterations) of the warm-started log-domain loop.

    An unconverged solve reads its cost from the plan after one more
    column update, so that the plan's columns sum to the target weights.
    """
    cost = dense_sq_dists(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    scale = float(cost.mean())
    if scale == 0.0:
        return 0.0, True, 0
    n_x, n_y = cost.shape
    log_a = np.full(n_x, -math.log(n_x))
    log_b = np.full(n_y, -math.log(n_y))

    levels = []
    eps = STAGE_START
    while eps > epsilon:
        levels.append(eps)
        eps *= STAGE_DECAY
    levels.append(epsilon)

    row_cost_pot = np.zeros(n_x)
    col_cost_pot = np.zeros(n_y)
    iterations = 0
    for level, eps in enumerate(levels):
        final = level == len(levels) - 1
        kernel = (cost / -scale) / eps
        row_pot = row_cost_pot / eps
        col_pot = col_cost_pot / eps
        budget = max_iters - iterations if final else min(max_iters - iterations, STAGE_ITERS)
        stage_tol = tol if final else max(tol, STAGE_TOL)
        for _ in range(budget):
            col_lse = logsumexp(kernel + col_pot[None, :], axis=1)
            if np.abs(np.exp(row_pot + col_lse) - np.exp(log_a)).sum() <= stage_tol:
                break
            row_pot = log_a - col_lse
            col_pot = log_b - logsumexp(kernel + row_pot[:, None], axis=0)
            iterations += 1
        row_cost_pot = row_pot * eps
        col_cost_pot = col_pot * eps

    plan = np.exp(kernel + row_pot[:, None] + col_pot[None, :])
    row_gap = np.abs(plan.sum(axis=1) - np.exp(log_a)).sum()
    col_gap = np.abs(plan.sum(axis=0) - np.exp(log_b)).sum()
    converged = bool(row_gap <= tol and col_gap <= tol)
    if not converged:
        col_pot = log_b - logsumexp(kernel + row_pot[:, None], axis=0)
        plan = np.exp(kernel + row_pot[:, None] + col_pot[None, :])
    return float((plan * cost).sum()), converged, iterations
