"""The single-loop iteration restated from the docstrings of
``sslalm.lagrangian`` and ``sslalm.methods``, for bitwise checks of ``run()``,
and the brute-force affine oracle in its whole-grid form, for bitwise checks
of ``problems.l1_affine_oracle``.

The iteration calls only the problem's oracles, ``FeasibleSet.project`` and
``prox_weighted``, and ``NoiseModel.draw``; no helper of the solver."""
import itertools
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


def prox_sgd(fset, x, y, g, eta, mc):
    return fset.project(x - eta * g), y


def prox_sgdm(fset, x, y, g, eta, mc):
    y = y - mc.tau * eta * (y - g)
    return (1.0 - eta) * x + eta * fset.project(x - mc.alpha * y), y


def prox_adam(fset, x, y, g, eta, mc):
    n = x.size
    m = y[:n] - mc.tau1 * eta * (y[:n] - g)
    v = y[n:] - mc.tau2 * eta * (y[n:] - g * g)
    z = fset.prox_weighted(x, m, np.sqrt(v + mc.eps) / mc.alpha)
    return (1.0 - eta) * x + eta * z, np.concatenate((m, v))


# each method kind: the number of size-n vectors in its auxiliary block, and its update
UPDATES = {"prox_sgd": (0, prox_sgd), "prox_sgdm": (1, prox_sgdm), "prox_adam": (2, prox_adam)}


def reference_run(prob, cfg, x0, updates=UPDATES):
    """``(x, lam, w, max_contraction_slack, max_dual_excess)`` after
    ``cfg.max_iters`` steps from ``x0``; ``updates`` holds the method's update
    under its kind. The noise comes from a generator seeded with ``cfg.seed``,
    the objective and the constraint tokens from the two generators spawned
    from ``cfg.seed``, one token per draw."""
    mean = getattr(prob, "mean", prob)
    if mean is prob:  # exact oracles: the tokens are None and draw nothing
        draw_f = draw_c = lambda gen: None  # noqa: E731
        subgrad = lambda x, tok: prob.objective_subgradient(x)  # noqa: E731
        jac = lambda x, tok: prob.constraint_jacobian(x)  # noqa: E731
        con = lambda x, tok: prob.constraint(x)  # noqa: E731
    else:
        draw_f = lambda gen: prob.draw_objective_sample(gen, 1)[0]  # noqa: E731
        draw_c = lambda gen: prob.draw_constraint_sample(gen, 1)[0]  # noqa: E731
        subgrad, jac = prob.objective_subgradient_sample, prob.constraint_jacobian_sample
        con = prob.constraint_sample
    vec = lambda v: np.asarray(v, dtype=np.float64)  # noqa: E731
    mc, fset, n, exact = cfg.method, mean.feasible_set, mean.dim_primal, cfg.tracker == "exact"
    rng = np.random.default_rng(cfg.seed)
    gen_f, gen_c = (np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2))
    x = fset.project(vec(x0))
    blocks, update = updates[mc.kind]
    y = np.zeros(blocks * n)
    lam = np.zeros(mean.dim_constraint)
    w = vec(mean.constraint(x) if exact else con(x, draw_c(gen_c)))
    noisy = cfg.noise.kind != "none" and cfg.noise.bound > 0.0
    slack = excess = -math.inf
    burned_in = False
    for k in range(cfg.max_iters):
        if noisy and k % NOISE_ROWS == 0:
            block = cfg.noise.draw(rng, (min(NOISE_ROWS, cfg.max_iters - k), n))
        eta = stepsize(cfg.eta, k)
        d = vec(subgrad(x, draw_f(gen_f)))
        tok = None if exact else draw_c(gen_c)  # one token for both tracker samples
        g = d + vec(jac(x, draw_c(gen_c))) @ (lam + cfg.rho * w)
        if noisy:
            g = g + block[k % NOISE_ROWS]
        x_next, y = update(fset, x, y, g, eta, mc)
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


def meshgrid_l1_affine_oracle(A, b, anchor, lower, upper, tol=1e-9):
    """``l1_affine_oracle`` holding each free set's whole candidate grid at
    once: ``(x_star, f_star)``, the first minimizer in meshgrid ``ij`` order
    of the fixings (lower, upper, then ``anchor_i`` when strictly inside)."""
    p, n = A.shape
    best_f, best_x = np.inf, None
    lo, hi = lower[:, None] - tol, upper[:, None] + tol
    for free in itertools.combinations(range(n), p):
        fixed = [i for i in range(n) if i not in free]
        A_free = A[:, free]
        if np.linalg.cond(A_free) > 1e10:
            continue
        # x_free = c0 - M v, with A_free [c0 | M] = [b | A[:, fixed]]
        sol = np.linalg.solve(A_free, np.column_stack([b, A[:, fixed]]))
        c0, M = sol[:, :1], sol[:, 1:]
        if fixed:
            cands = []
            for i in fixed:
                vals = [lower[i], upper[i]]
                if lower[i] < anchor[i] < upper[i]:
                    vals.append(anchor[i])
                cands.append(vals)
            grids = np.meshgrid(*cands, indexing="ij")
            V = np.stack([g.ravel() for g in grids])  # (n-p, M)
        else:
            V = np.empty((0, 1))
        X = np.empty((n, V.shape[1]))
        X[fixed, :] = V
        X[list(free), :] = c0 - M @ V
        ok = np.all((X >= lo) & (X <= hi), axis=0)
        if not ok.any():
            continue
        fvals = np.abs(X - anchor[:, None]).sum(axis=0)
        fvals[~ok] = np.inf
        j = int(np.argmin(fvals))
        if fvals[j] < best_f:
            best_f, best_x = float(fvals[j]), np.clip(X[:, j], lower, upper)
    return best_x, best_f
