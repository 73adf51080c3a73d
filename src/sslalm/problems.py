"""Built-in desk-scale test problems with independent solution oracles.

Four families:

- ``affine_l1``: L1 objective with affine equality constraints on a box,
  solved independently by brute-force enumeration of candidate active sets.
- ``slack_l1_net``: a small ReLU network under per-layer L1 budgets, written
  as equality constraints through slack variables on the nonnegative orthant.
- ``stochastic_affine``: the affine family with bounded zero-mean sampling
  noise on both oracles and an analytic mean constraint for tracker checks.
- ``exactness_1d``: a one-dimensional instance whose penalty minimizer flips
  from infeasible to feasible at a known threshold of the penalty weight.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .core import ProblemInstance, StochasticProblemInstance
from .geometry import BlockProduct, Box, NonnegativeOrthant

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    f: float
    multipliers: np.ndarray | None = None


@dataclass(frozen=True)
class ProblemRecipe:
    kind: str
    params: dict
    instance: ProblemInstance | StochasticProblemInstance
    start: np.ndarray
    oracle_solution: OracleSolution | None = None
    metadata: dict = field(default_factory=dict)


def l1_affine_oracle(A, b, anchor, lower, upper):
    """Minimize ``||x - anchor||_1`` over ``{Ax = b, lower <= x <= upper}``.

    Brute force, capped at n <= 12: every minimizer of a piecewise-linear
    convex function over a polytope is attained where the p equality rows
    plus n - p coordinate fixings (a bound or the kink value ``anchor_i``)
    are active, so all such candidate points are enumerated. Returns
    ``(x_star, f_star)``. Intended purely as an acceptance oracle; shares no
    code with the solver.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    p, n = A.shape
    if n > 12:
        raise ValueError("brute-force oracle is capped at n <= 12")
    best_f = np.inf
    best_x = None
    for free in itertools.combinations(range(n), p):
        fixed = [i for i in range(n) if i not in free]
        A_free = A[:, free]
        if np.linalg.cond(A_free) > 1e10:
            continue
        if fixed:
            cands = []
            for i in fixed:
                vals = [lower[i], upper[i]]
                if lower[i] < anchor[i] < upper[i]:
                    vals.append(anchor[i])
                cands.append(vals)
            grids = np.meshgrid(*cands, indexing="ij")
            V = np.stack([g.ravel() for g in grids])  # (n-p, M)
            rhs = b[:, None] - A[:, fixed] @ V
            X_free = np.linalg.solve(A_free, rhs)  # (p, M)
            X = np.empty((n, V.shape[1]))
            X[fixed, :] = V
            X[list(free), :] = X_free
        else:
            X = np.linalg.solve(A_free, b).reshape(n, 1)
        ok = np.all((X >= lower[:, None] - _FEAS_TOL) & (X <= upper[:, None] + _FEAS_TOL), axis=0)
        if not ok.any():
            continue
        fvals = np.abs(X - anchor[:, None]).sum(axis=0)
        fvals[~ok] = np.inf
        j = int(np.argmin(fvals))
        if fvals[j] < best_f:
            best_f = float(fvals[j])
            best_x = np.clip(X[:, j], lower, upper)
    if best_x is None:
        raise ValueError("constraint system admits no feasible candidate point")
    return best_x, best_f


def _certify_multiplier(A, x_star, anchor, lower, upper):
    """Multipliers pairing with the fixed sign selection at ``x_star``, or None.

    Minimizes the squared distance of ``-(sign(x - anchor) + A^T lam)`` to the
    box normal cone at ``x_star`` over ``lam``; succeeds only where the fixed
    selection itself certifies stationarity.
    """
    A = np.asarray(A, dtype=np.float64)
    d = np.sign(x_star - anchor)
    at_lower = x_star <= lower + _FEAS_TOL
    at_upper = x_star >= upper - _FEAS_TOL

    def resid2(lam):
        t = -(d + A.T @ lam)
        r = np.abs(t)
        r = np.where(at_lower, np.maximum(t, 0.0), r)
        r = np.where(at_upper, np.maximum(-t, 0.0), r)
        r = np.where(at_lower & at_upper, 0.0, r)
        return float(r @ r)

    res = minimize(resid2, np.zeros(A.shape[0]), method="L-BFGS-B", tol=1e-16)
    if res.fun <= 1e-16:
        return np.asarray(res.x, dtype=np.float64)
    return None


def _affine_l1_mean(n, p, seed, lipschitz_scale):
    """The affine family's mean problem: L1 deviation objective, orthonormal
    affine equalities, unit box, with ``sqrt(n) * lipschitz_scale`` as the
    objective's Lipschitz bound. Returns the problem, its brute-force
    ``(x_star, f_star)`` and the data ``{"A", "b", "anchor"}``."""
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    A = Q.T.copy()  # p x n with A A^T = I
    b = A @ rng.uniform(-0.6, 0.6, n)  # a feasible right-hand side
    anchor = rng.uniform(-1.0, 1.0, n)
    AT = A.T.copy()
    box = Box(np.full(n, -1.0), np.full(n, 1.0))
    prob = ProblemInstance(
        dim_primal=n,
        dim_constraint=p,
        objective=lambda x: float(np.abs(x - anchor).sum()),
        objective_subgradient=lambda x: np.sign(x - anchor),
        constraint=lambda x: A @ x - b,
        constraint_jacobian=lambda x: AT,
        feasible_set=box,
        lipschitz_bound_f=float(np.sqrt(n)) * lipschitz_scale,
        regularity_constant=1.0,
    )
    x_star, f_star = l1_affine_oracle(A, b, anchor, box.lower, box.upper)
    return prob, x_star, f_star, {"A": A, "b": b, "anchor": anchor}


def make_affine_l1(n: int = 6, p: int = 2, seed: int = 0) -> ProblemRecipe:
    """L1 deviation objective, orthonormal affine equalities, unit box."""
    inst, x_star, f_star, data = _affine_l1_mean(n, p, seed, 1.0)
    box = inst.feasible_set
    lam_star = _certify_multiplier(data["A"], x_star, data["anchor"], box.lower, box.upper)
    return ProblemRecipe(
        kind="affine_l1",
        params={"n": n, "p": p, "seed": seed},
        instance=inst,
        start=np.zeros(n),
        oracle_solution=OracleSolution(x=x_star, f=f_star, multipliers=lam_star),
        metadata=data,
    )


def make_stochastic_affine(
    n: int = 5, p: int = 2, noise_scale: float = 0.5, seed: int = 0
) -> ProblemRecipe:
    """Affine family with bounded zero-mean perturbations on both oracles.

    Constraint samples are ``(A + dB) x - (b + dd)`` with entrywise-uniform
    perturbations of half-width ``noise_scale``; objective samples reweight
    the L1 terms by nonnegative factors of unit mean. The analytic mean
    problem is kept for tracker-error measurement.
    """
    if not noise_scale >= 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale!r}")
    # weight half-width < 1 keeps the per-sample losses convex with
    # nonnegative coefficients
    a_obj = min(noise_scale, 0.9)
    mean, x_star, f_star, data = _affine_l1_mean(n, p, seed, 1.0 + a_obj)
    A, b, anchor = data["A"], data["b"], data["anchor"]

    def draw_obj(gen):
        return gen.uniform(1.0 - a_obj, 1.0 + a_obj, n)

    def draw_con(gen):
        dB = gen.uniform(-noise_scale, noise_scale, (p, n))
        dd = gen.uniform(-noise_scale, noise_scale, p)
        return dB, dd

    inst = StochasticProblemInstance(
        mean=mean,
        draw_objective_sample=draw_obj,
        draw_constraint_sample=draw_con,
        objective_sample=lambda x, u: float((u * np.abs(x - anchor)).sum()),
        objective_subgradient_sample=lambda x, u: u * np.sign(x - anchor),
        constraint_sample=lambda x, tok: (A + tok[0]) @ x - (b + tok[1]),
        constraint_jacobian_sample=lambda x, tok: (A + tok[0]).T,
    )
    return ProblemRecipe(
        kind="stochastic_affine",
        params={"n": n, "p": p, "noise_scale": noise_scale, "seed": seed},
        instance=inst,
        start=np.zeros(n),
        oracle_solution=OracleSolution(x=x_star, f=f_star),
        metadata=data,
    )


def _blob_dataset(rng, dim_in, n_points):
    """Two Gaussian blobs on opposite diagonal corners."""
    center = np.full(dim_in, 1.5)
    labels = rng.integers(0, 2, n_points)
    signs = np.where(labels == 0, 1.0, -1.0)
    inputs = signs[:, None] * center[None, :] + 0.5 * rng.standard_normal((n_points, dim_in))
    return inputs, labels


def make_slack_l1_net(
    layer_widths=(2, 8, 2),
    radius: float = 1.0,
    dataset_seed: int = 0,
    n_train: int = 256,
    n_test: int = 128,
    batch_size: int = 128,
    init_scale: float = 0.4,
) -> ProblemRecipe:
    """Bias-free ReLU network with least-absolute-deviation loss on synthetic
    blobs; each layer's weight block carries an L1 budget turned into one
    equality constraint through a slack coordinate on the orthant.

    The primal variable is ``(vec(W_1), ..., vec(W_L), s)`` with
    ``s`` in the nonnegative orthant; constraint ``i`` reads
    ``||W_i||_1 + s_i - radius``.
    """
    widths = tuple(int(w) for w in layer_widths)
    if len(widths) < 2:
        raise ValueError("need at least one layer")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 1 <= batch_size <= n_train:
        raise ValueError("batch_size must lie in [1, n_train]")
    L = len(widths) - 1
    shapes = [(widths[i], widths[i + 1]) for i in range(L)]
    sizes = [r * c for r, c in shapes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_w = int(offsets[-1])
    n = n_w + L
    rng = np.random.default_rng(dataset_seed)
    train_x, train_y = _blob_dataset(rng, widths[0], n_train)
    test_x, test_y = _blob_dataset(rng, widths[0], n_test)
    train_t = np.eye(widths[-1])[train_y]
    test_t = np.eye(widths[-1])[test_y]

    def unpack(x):
        return [
            x[offsets[i] : offsets[i + 1]].reshape(shapes[i]) for i in range(L)
        ]

    def forward(weights, inputs):
        pre = []
        acts = [inputs]
        a = inputs
        for i in range(L):
            z = a @ weights[i]
            pre.append(z)
            a = np.maximum(z, 0.0) if i < L - 1 else z
            acts.append(a)
        return pre, acts

    def loss_and_grad(x, inputs, targets):
        weights = unpack(x)
        pre, acts = forward(weights, inputs)
        m = inputs.shape[0]
        resid = acts[-1] - targets
        value = float(np.abs(resid).sum()) / m
        delta = np.sign(resid) / m
        grad = np.zeros(n)
        for i in range(L - 1, -1, -1):
            grad[offsets[i] : offsets[i + 1]] = (acts[i].T @ delta).ravel()
            if i > 0:
                delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
        return value, grad

    def layer_norms(x):
        return np.array([np.abs(x[offsets[i] : offsets[i + 1]]).sum() for i in range(L)])

    def constraint(x):
        return layer_norms(x) + x[n_w:] - radius

    # J[j, i] = sign(x_j) for the weights j of layer i and J[n_w + i, i] = 1;
    # the slack entries are fixed, the weight entries sit at fixed flat indices
    slack_jacobian = np.zeros((n, L))
    slack_jacobian[n_w + np.arange(L), np.arange(L)] = 1.0
    weight_cells = np.arange(n_w) * L + np.repeat(np.arange(L), sizes)

    def jacobian(x):
        J = slack_jacobian.copy()
        J.reshape(-1)[weight_cells] = np.sign(x[:n_w])
        return J

    # a record asks for the full-batch loss and its gradient at one x; a
    # one-entry cache keyed on the bytes of x computes both in one pass
    full_batch = {}

    def full_batch_loss_and_grad(x):
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        if full_batch.get("key") != key:
            full_batch["value"] = loss_and_grad(x, train_x, train_t)
            full_batch["key"] = key
        return full_batch["value"]

    fset = BlockProduct((Box(np.full(n_w, -1.0), np.full(n_w, 1.0)), NonnegativeOrthant(L)))
    mean = ProblemInstance(
        dim_primal=n,
        dim_constraint=L,
        objective=lambda x: full_batch_loss_and_grad(x)[0],
        objective_subgradient=lambda x: full_batch_loss_and_grad(x)[1].copy(),
        constraint=constraint,
        constraint_jacobian=jacobian,
        feasible_set=fset,
    )

    inst = StochasticProblemInstance(
        mean=mean,
        draw_objective_sample=lambda gen: gen.integers(0, n_train, batch_size),
        draw_constraint_sample=lambda gen: None,
        objective_sample=lambda x, idx: loss_and_grad(x, train_x[idx], train_t[idx])[0],
        objective_subgradient_sample=lambda x, idx: loss_and_grad(x, train_x[idx], train_t[idx])[1],
        constraint_sample=lambda x, tok: constraint(x),
        constraint_jacobian_sample=lambda x, tok: jacobian(x),
    )

    w0 = np.clip(init_scale * rng.standard_normal(n_w), -1.0, 1.0)
    start = np.concatenate([w0, np.zeros(L)])

    def accuracy(x):
        _, acts = forward(unpack(x), test_x)
        return float(np.mean(np.argmax(acts[-1], axis=1) == test_y))

    return ProblemRecipe(
        kind="slack_l1_net",
        params={
            "layer_widths": widths,
            "radius": radius,
            "dataset_seed": dataset_seed,
            "n_train": n_train,
            "n_test": n_test,
            "batch_size": batch_size,
            "init_scale": init_scale,
        },
        instance=inst,
        start=start,
        metadata={
            "epoch_len": max(1, n_train // batch_size),
            "accuracy": accuracy,
            "n_weights": n_w,
            "n_layers": L,
        },
    )


def make_exactness_1d(slope: float = 2.0) -> ProblemRecipe:
    """Linear objective ``-slope * x`` on [-1, 1] with constraint ``x = 0``.

    The penalty ``f + beta*|x| + (rho/2)x^2`` has the feasible minimizer 0
    exactly when ``beta > slope``; below the threshold its minimizer sits at
    ``(slope - beta)/rho`` clipped into the box.
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    inst = ProblemInstance(
        dim_primal=1,
        dim_constraint=1,
        objective=lambda x: float(-slope * x[0]),
        objective_subgradient=lambda x: np.array([-slope]),
        constraint=lambda x: x.copy(),
        constraint_jacobian=lambda x: np.array([[1.0]]),
        feasible_set=Box(np.array([-1.0]), np.array([1.0])),
        lipschitz_bound_f=slope,
        regularity_constant=1.0,
    )
    return ProblemRecipe(
        kind="exactness_1d",
        params={"slope": slope},
        instance=inst,
        start=np.array([0.9]),
        oracle_solution=OracleSolution(x=np.zeros(1), f=0.0, multipliers=np.array([slope])),
        metadata={"slope": slope},
    )


RECIPES = {
    "affine_l1": make_affine_l1,
    "slack_l1_net": make_slack_l1_net,
    "stochastic_affine": make_stochastic_affine,
    "exactness_1d": make_exactness_1d,
}


def make_recipe(kind: str, **params) -> ProblemRecipe:
    if kind not in RECIPES:
        raise ValueError(f"unknown problem kind {kind!r}; known: {sorted(RECIPES)}")
    return RECIPES[kind](**params)
