"""The single-loop iteration restated from the docstrings of
``sslalm.lagrangian`` and ``sslalm.methods``, for bitwise checks of ``run()``.

It calls only the problem's oracles, ``FeasibleSet.project`` and
``prox_weighted``, and ``NoiseModel.draw``; no helper of the solver."""
import math

import numpy as np

NOISE_ROWS = 256  # the noise is drawn this many rows at a time
ZERO_TOL = 1e-14  # a constraint value this short has no direction


def stepsize(s, k):
    if s.kind == "constant":
        return s.c
    if s.kind == "inv_sqrt_epoch":
        return s.c / math.sqrt(k // s.epoch_len + 1)
    return s.c / (k + 1) ** s.exponent


def reference_run(prob, cfg, x0):
    """``(x, lam, w, max_contraction_slack, max_dual_excess)`` after
    ``cfg.max_iters`` steps from ``x0``, on a generator seeded with ``cfg.seed``."""
    mean = getattr(prob, "mean", prob)
    if mean is prob:  # exact oracles: the tokens are None and draw nothing
        draw_f = draw_c = lambda rng: None  # noqa: E731
        subgrad = lambda x, tok: prob.objective_subgradient(x)  # noqa: E731
        jac = lambda x, tok: prob.constraint_jacobian(x)  # noqa: E731
        con = lambda x, tok: prob.constraint(x)  # noqa: E731
    else:
        draw_f, draw_c = prob.draw_objective_sample, prob.draw_constraint_sample
        subgrad, jac = prob.objective_subgradient_sample, prob.constraint_jacobian_sample
        con = prob.constraint_sample
    vec = lambda v: np.asarray(v, dtype=np.float64)  # noqa: E731
    mc, fset, n, exact = cfg.method, mean.feasible_set, mean.dim_primal, cfg.tracker == "exact"
    rng = np.random.default_rng(cfg.seed)
    x = fset.project(vec(x0))
    y = np.zeros({"prox_sgd": 0, "prox_sgdm": n, "prox_adam": 2 * n}[mc.kind])
    lam = np.zeros(mean.dim_constraint)
    w = vec(mean.constraint(x) if exact else con(x, draw_c(rng)))
    noisy = cfg.noise.kind != "none" and cfg.noise.bound > 0.0
    slack = excess = -math.inf
    burned_in = False
    for k in range(cfg.max_iters):
        if noisy and k % NOISE_ROWS == 0:
            block = cfg.noise.draw(rng, (min(NOISE_ROWS, cfg.max_iters - k), n))
        eta = stepsize(cfg.eta, k)
        d = vec(subgrad(x, draw_f(rng)))
        tok = None if exact else draw_c(rng)  # one token for both tracker samples
        g = d + vec(jac(x, draw_c(rng))) @ (lam + cfg.rho * w)
        if noisy:
            g = g + block[k % NOISE_ROWS]
        if mc.kind == "prox_sgd":
            x_next = fset.project(x - eta * g)
        elif mc.kind == "prox_sgdm":
            y = y - mc.tau * eta * (y - g)
            x_next = (1.0 - eta) * x + eta * fset.project(x - mc.alpha * y)
        else:
            m = y[:n] - mc.tau1 * eta * (y[:n] - g)
            v = y[n:] - mc.tau2 * eta * (y[n:] - g * g)
            z = fset.prox_weighted(x, m, np.sqrt(v + mc.eps) / mc.alpha)
            x_next, y = (1.0 - eta) * x + eta * z, np.concatenate((m, v))
        if exact:
            w = vec(mean.constraint(x_next))
        else:
            c_x, c_xn = vec(con(x, tok)), vec(con(x_next, tok))
            w = w - cfg.tau_tilde * eta * (w - c_x) + c_xn - c_x
        x = x_next
        if cfg.dual == "regu":
            theta, w_norm, pre = stepsize(cfg.theta, k), np.linalg.norm(w), np.linalg.norm(lam)
            u = w / w_norm if w_norm > ZERO_TOL else np.zeros_like(w)
            lam = lam + theta * (u - lam / cfg.beta)
            post = float(np.linalg.norm(lam))
            slack = max(slack, (post - cfg.beta) - (1.0 - theta / cfg.beta) * (pre - cfg.beta))
            burned_in = burned_in or pre <= cfg.beta
            excess = max(excess, post - cfg.beta) if burned_in else excess
        elif (k + 1) % cfg.inner_steps == 0 and np.linalg.norm(w) > ZERO_TOL:
            j = (k + 1) // cfg.inner_steps - 1
            cap = math.inf if j * math.log(cfg.sigma) > 700.0 else cfg.beta_tilde * cfg.sigma**j
            lam = lam + min(cfg.theta_tilde / np.linalg.norm(w), cap) * w
    unset = lambda v: math.nan if v == -math.inf else float(v)  # noqa: E731
    return x, lam, w, unset(slack), unset(excess)
