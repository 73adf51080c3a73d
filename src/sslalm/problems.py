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

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from inspect import signature

import numpy as np

from .core import ProblemInstance, StochasticProblemInstance
from .core import _check_integer, _check_value, _field_types
from .geometry import MEMBERSHIP_TOL, Box, _shaped


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    f: float
    multipliers: np.ndarray | None = None


@dataclass(frozen=True)
class ProblemRecipe:
    instance: ProblemInstance | StochasticProblemInstance
    start: np.ndarray
    oracle_solution: OracleSolution | None = None
    metadata: dict = field(default_factory=dict)
    kind: str = ""  # set, with params, by the maker's registration
    params: dict = field(default_factory=dict)


RECIPES: dict = {}  # each recipe kind with its maker, filled by @_recipe


def _recipe(maker):
    """Register ``maker``, named ``make_<kind>``, as the recipe ``kind``. A call
    applies the config type rule to each annotated argument (to the defaults once,
    here) and returns the maker's recipe with that kind and, as its params, the
    checked arguments, defaults included."""
    kind, sig, types = maker.__name__.removeprefix("make_"), signature(maker), _field_types(maker)
    defaults = {name: _check_value(name, types[name], p.default)
                for name, p in sig.parameters.items() if p.default is not p.empty}

    @functools.wraps(maker)
    def make(*args, **kwargs):
        given = sig.bind(*args, **kwargs).arguments.items()
        params = {**defaults, **{name: _check_value(name, types[name], v) for name, v in given}}
        return replace(maker(**params), kind=kind, params=params)

    RECIPES[kind] = make
    return make


ORACLE_CHUNK = 4096  # candidate points l1_affine_oracle holds at a time


def l1_affine_oracle(A, b, anchor, lower, upper):
    """Minimize ``||x - anchor||_1`` over ``{Ax = b, lower <= x <= upper}``.

    Brute force, capped at n <= 12: every minimizer of a piecewise-linear
    convex function over a polytope is attained where the p equality rows
    plus n - p coordinate fixings (a bound or the kink value ``anchor_i``)
    are active, so all such candidate points are enumerated. They are walked
    in one pass: the well-conditioned sets of p free coordinates in
    ``combinations`` order, each one's grid of fixings (lower, upper, then
    ``anchor_i`` when strictly inside) in meshgrid ``ij`` order, in blocks of
    at most ``ORACLE_CHUNK`` points, each either several whole grids of one
    size or one slice of a larger grid. The first minimizer in that order is
    kept. Returns ``(x_star, f_star)``. Intended purely as an acceptance
    oracle; shares no code with the solver.

    The free coordinates ``x_free = c0 - M v`` are linear in the fixings ``v``:
    one stacked solve of ``A_free [c0 | M] = [b | A_fixed]`` over all kept free
    sets gives every ``(c0, M)``, and each block is then one stacked product.
    Near the ``cond`` cap of 1e10, ``c0 - M v`` can lose accuracy to
    cancellation; its error is of the order ``cond * eps`` that solving for
    each ``v`` would leave too. Raises ``ValueError`` when no free set passes
    that cap (``A`` of less than full row rank) or no candidate is feasible.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or not 1 <= A.shape[0] <= A.shape[1]:
        raise ValueError(f"A has shape {A.shape}, expected (p, n) with 1 <= p <= n")
    p, n = A.shape
    b = _shaped(b, (p,), "b")
    anchor, lower, upper = (_shaped(v, (n,), name) for v, name in
                            ((anchor, "anchor"), (lower, "lower"), (upper, "upper")))
    if n > 12:
        raise ValueError("brute-force oracle is capped at n <= 12")
    free = np.array(list(itertools.combinations(range(n), p)), dtype=np.intp).reshape(-1, p)
    # each item of the stacks is laid out as the 2-d A[:, free], [b | A[:, fixed]]
    # and the solution's M are, so that it meets LAPACK and BLAS as those would
    A_free = A.T[free].transpose(0, 2, 1)
    keep = np.linalg.cond(A_free) <= 1e10
    if not keep.any():
        raise ValueError("brute-force oracle needs A of full row rank: "
                         "no p of its columns have cond <= 1e10")
    free, A_free = free[keep], A_free[keep]
    is_fixed = np.ones((len(free), n), dtype=bool)
    is_fixed[np.arange(len(free))[:, None], free] = False
    fixed = np.nonzero(is_fixed)[1].reshape(len(free), n - p)
    # column 0 of [b | A] is b, column 1 + i is A's column i
    rhs = np.column_stack([b, A]).T[np.column_stack([np.zeros(len(free), np.intp), fixed + 1])]
    sol = np.linalg.solve(A_free, rhs.transpose(0, 2, 1))
    c0, M = sol[..., :1], sol[..., 1:]
    # a fixed coordinate sits on a bound or strictly inside the box, so only
    # the free rows can leave it
    lo, hi = lower[free][..., None] - MEMBERSHIP_TOL, upper[free][..., None] + MEMBERSHIP_TOL
    # fixing j of coordinate i is entry 3 i + j of the table
    table = np.stack([lower, upper, anchor], axis=1).ravel()
    counts = np.where((lower < anchor) & (anchor < upper), 3, 2)[fixed]
    patterns, sizes = list(map(tuple, counts.tolist())), counts.prod(axis=1).tolist()
    # the fixing of each coordinate at each grid point, per count pattern
    digits = functools.cache(lambda pattern: np.indices(pattern, dtype=np.int8).reshape(
        len(pattern), math.prod(pattern)))

    # a large grid's slices and each block's points, rows in coordinate order,
    # go into buffers made once per call: fresh arrays per block were slower
    width = min(ORACLE_CHUNK, len(free) * max(sizes, default=1))
    V_buf, X_buf = np.empty((n - p) * width), np.empty(n * width)

    def blocks():
        """``(k, V)``: the candidate fixings ``V``, ``(K, n - p, m)``, of free
        sets ``k:k + K``, block by block in walk order."""
        k = 0
        while k < len(free):
            size, K = sizes[k], 1
            if size <= ORACLE_CHUNK:
                while (k + K < len(free) and sizes[k + K] == size
                       and (K + 1) * size <= ORACLE_CHUNK):
                    K += 1
                D = np.stack([digits(pattern) for pattern in patterns[k : k + K]])
                yield k, table.take(D + 3 * fixed[k : k + K, :, None])
            else:
                # an outer grid of the leading fixings times an inner grid of
                # the trailing ones, as many as fit in ORACLE_CHUNK points
                pattern = patterns[k]
                split = next(s for s in range(len(pattern) + 1)
                             if math.prod(pattern[s:]) <= ORACLE_CHUNK)
                outer, inner = (table.take(digits(pattern[s]) + 3 * fixed[k, s, None])
                                for s in (slice(None, split), slice(split, None)))
                m = inner.shape[1]
                for start in range(0, size, ORACLE_CHUNK):
                    stop = min(start + ORACLE_CHUNK, size)
                    V = V_buf[: (n - p) * (stop - start)].reshape(1, n - p, stop - start)
                    for o in range(start // m, (stop - 1) // m + 1):
                        # the block's points that share outer point o
                        i0, i1 = max(start, o * m), min(stop, (o + 1) * m)
                        V[0, :split, i0 - start : i1 - start] = outer[:, o : o + 1]
                        V[0, split:, i0 - start : i1 - start] = inner[:, i0 - o * m : i1 - o * m]
                    yield k, V
            k += K

    best_f = np.inf
    best_x = None
    for k, V in blocks():
        K, m = V.shape[0], V.shape[2]
        X_free = c0[k : k + K] - np.matmul(M[k : k + K], V)
        ok = np.all((X_free >= lo[k : k + K]) & (X_free <= hi[k : k + K]), axis=1)
        cols = np.flatnonzero(ok)
        if cols.size == 0:
            continue
        if cols.size == 1 and sizes[k] > 1:
            # numpy sums a one-column array pairwise but a wider one row by
            # row, as it sums every wider block: a lone column goes in twice
            cols = cols.repeat(2)
        X = X_buf[: n * K * m].reshape(n, K, m)
        X[fixed[k : k + K].T, np.arange(K)] = V.transpose(1, 0, 2)
        X[free[k : k + K].T, np.arange(K)] = X_free.transpose(1, 0, 2)
        X = X.reshape(n, K * m).take(cols, axis=1)
        fvals = np.abs(X - anchor[:, None]).sum(axis=0)
        j = int(np.argmin(fvals))
        if fvals[j] < best_f:
            best_f = float(fvals[j])
            best_x = np.clip(X[:, j], lower, upper)
    if best_x is None:
        raise ValueError("constraint system admits no feasible candidate point")
    return best_x, best_f


def _certify_multiplier(A, x_star, anchor, box: Box):
    """Multipliers pairing with the fixed sign selection at ``x_star``, or None.

    A certificate puts ``-(d + A^T lam)``, with ``d = sign(x_star - anchor)``,
    in the normal cone of ``box`` at ``x_star``. Such multipliers form a
    polyhedron; if it is not empty, its minimal face solves the free rows plus
    ``r - rank(free rows)`` one-sided rows held with equality, ``r`` being the
    rank of all its rows. Each such choice of rows is solved in turn, and the
    first solution whose residual ``box.normal_cone_distance`` is <= 1e-8 is
    returned.
    """
    A = np.asarray(A, dtype=np.float64)
    d = np.sign(x_star - anchor)
    at_lower = x_star <= box.lower + MEMBERSHIP_TOL
    at_upper = x_star >= box.upper - MEMBERSHIP_TOL
    free = np.flatnonzero(~at_lower & ~at_upper)
    one_sided = np.flatnonzero(at_lower ^ at_upper)
    rank_free = np.linalg.matrix_rank(A[:, free].T)
    rank_all = np.linalg.matrix_rank(A[:, np.concatenate([free, one_sided])].T)
    for extra in itertools.combinations(one_sided, rank_all - rank_free):
        rows = np.concatenate([free, np.asarray(extra, dtype=np.intp)])
        lam = np.linalg.lstsq(A[:, rows].T, -d[rows], rcond=None)[0]
        if box.normal_cone_distance(x_star, d + A.T @ lam) <= 1e-8:
            return lam
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
        constraint=lambda x: A.dot(x) - b,
        constraint_jacobian=lambda x: AT,
        feasible_set=box,
        lipschitz_bound_f=float(np.sqrt(n)) * lipschitz_scale,
        regularity_constant=1.0,
    )
    x_star, f_star = l1_affine_oracle(A, b, anchor, box.lower, box.upper)
    return prob, x_star, f_star, {"A": A, "b": b, "anchor": anchor}


@_recipe
def make_affine_l1(n: int = 6, p: int = 2, seed: int = 0) -> ProblemRecipe:
    """L1 deviation objective, orthonormal affine equalities, unit box."""
    inst, x_star, f_star, data = _affine_l1_mean(n, p, seed, 1.0)
    lam_star = _certify_multiplier(data["A"], x_star, data["anchor"], inst.feasible_set)
    solution = OracleSolution(x=x_star, f=f_star, multipliers=lam_star)
    return ProblemRecipe(instance=inst, start=np.zeros(n), oracle_solution=solution, metadata=data)


@_recipe
def make_stochastic_affine(
    n: int = 5, p: int = 2, noise_scale: float = 0.5, seed: int = 0
) -> ProblemRecipe:
    """Affine family with bounded zero-mean perturbations on both oracles.

    A constraint token is the perturbed data ``(A + dB, b + dd)``, with
    entrywise-uniform perturbations of half-width ``noise_scale``, and its
    sample is ``(A + dB) x - (b + dd)``; objective samples reweight
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

    def draw_obj(gen, size):
        return gen.uniform(1.0 - a_obj, 1.0 + a_obj, (size, n))

    def draw_con(gen, size):
        # one call fills each token's dB row by row and then its dd, token
        # after token: the same stream as a (p, n) and a p draw per token
        z = gen.uniform(-noise_scale, noise_scale, (size, p * n + p))
        return list(zip(A + z[:, : p * n].reshape(size, p, n), b + z[:, p * n :]))

    inst = StochasticProblemInstance(
        mean=mean,
        draw_objective_sample=draw_obj,
        draw_constraint_sample=draw_con,
        objective_sample=lambda x, u: float((u * np.abs(x - anchor)).sum()),
        objective_subgradient_sample=lambda x, u: u * np.sign(x - anchor),
        constraint_sample=lambda x, tok: tok[0].dot(x) - tok[1],
        constraint_jacobian_sample=lambda x, tok: tok[0].T,
    )
    solution = OracleSolution(x=x_star, f=f_star)
    return ProblemRecipe(instance=inst, start=np.zeros(n), oracle_solution=solution, metadata=data)


# points of a stack the network's full-batch pass holds at a time: larger chunks
# let the pass's intermediates fall out of cache
NET_CHUNK = 8


def _blob_dataset(rng, dim_in, n_points):
    """Two Gaussian blobs on opposite diagonal corners."""
    center = np.full(dim_in, 1.5)
    labels = rng.integers(0, 2, n_points)
    signs = np.where(labels == 0, 1.0, -1.0)
    inputs = signs[:, None] * center[None, :] + 0.5 * rng.standard_normal((n_points, dim_in))
    return inputs, labels


@_recipe
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

    The primal variable is ``(vec(W_1), ..., vec(W_L), s)`` in the box of
    weights in ``[-1, 1]`` and slacks in ``[0, inf)``; constraint ``i`` reads
    ``||W_i||_1 + s_i - radius``.
    """
    if np.ndim(layer_widths) != 1 or len(layer_widths) < 2:
        raise ValueError(f"layer_widths must list two or more widths, got {layer_widths!r}")
    widths = tuple(_check_integer("layer_widths", w) for w in layer_widths)
    if min(widths) < 1:
        raise ValueError(f"layer_widths must be positive integers, got {layer_widths!r}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 1 <= batch_size <= n_train:
        raise ValueError("batch_size must lie in [1, n_train]")
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    L = len(widths) - 1
    shapes = [(widths[i], widths[i + 1]) for i in range(L)]
    sizes = [r * c for r, c in shapes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_w = int(offsets[-1])
    n = n_w + L
    rng = np.random.default_rng(dataset_seed)
    train_x, train_y = _blob_dataset(rng, widths[0], n_train)
    test_x, test_y = _blob_dataset(rng, widths[0], n_test)
    # one-hot targets; a single output's target is the indicator of class 0
    train_t = np.eye(2, widths[-1])[train_y]

    layer_slices = [slice(offsets[i], offsets[i + 1]) for i in range(L)]

    def unpack(x):
        return [x[s].reshape(shape) for s, shape in zip(layer_slices, shapes)]

    def unpack_stack(X):
        # each layer's weights of each point, as C-contiguous (r, c) items
        return [np.ascontiguousarray(X[:, s]).reshape(len(X), *shape)
                for s, shape in zip(layer_slices, shapes)]

    # the recipe's constants as 0-d arrays: a ufunc reads the same double from
    # one as from a Python float, at less call cost
    zero, bound, train_count = np.array(0.0), np.array(float(radius)), np.array(float(n_train))

    # ndarray.dot gives matmul's bits for these 2-D products, at less call cost;
    # on stacked weights np.matmul multiplies item by item, each item meeting BLAS
    # as the point's 2-D product does, so each item has its point's bits. A
    # hidden layer's ReLU runs in place on its product; np.maximum(z, 0) turns -0
    # into +0, so a hidden activation is +0, positive, +inf or NaN
    def forward(weights, inputs, product=np.ndarray.dot):
        acts = [inputs]
        for i in range(L):
            z = product(acts[-1], weights[i])
            acts.append(np.maximum(z, zero, out=z) if i < L - 1 else z)
        return acts

    # in the backward passes, sign(r) * fl(1/n) is fl(sign(r) / n), since sign
    # gives only +-1, +-0 or NaN; and sign(act) is the ReLU mask (pre > 0) as a
    # float, 1 or +0, on every finite input. A NaN activation gives a NaN mask
    # entry only in a row whose delta is NaN already
    def residual_and_grad(x, inputs, targets):
        # the forward/backward pass: the output residual and the gradient of
        # the mean absolute residual; loss(resid) is the value, computed
        # only where it is read
        weights = unpack(x)
        acts = forward(weights, inputs)
        resid = acts[-1] - targets
        delta = np.sign(resid)
        delta *= 1.0 / inputs.shape[0]
        grad = np.zeros(n)
        for i in range(L - 1, -1, -1):
            grad[layer_slices[i]] = acts[i].T.dot(delta).ravel()
            if i > 0:
                delta = delta.dot(weights[i].T)
                delta *= np.sign(acts[i])
        return resid, grad

    def full_batch_stack(X):
        # the full-batch pass at each point of the stack X, NET_CHUNK points at a
        # time, in residual_and_grad's float order item by item
        F, G = np.empty(len(X)), np.zeros(X.shape)
        for start in range(0, len(X), NET_CHUNK):
            rows = slice(start, start + NET_CHUNK)
            weights = unpack_stack(X[rows])
            acts = forward(weights, train_x, np.matmul)
            resid = acts[-1] - train_t
            delta = np.sign(resid)
            delta *= 1.0 / n_train
            for i in range(L - 1, -1, -1):
                G[rows, layer_slices[i]] = np.matmul(acts[i].mT, delta).reshape(len(delta), -1)
                if i > 0:
                    delta = np.matmul(delta, weights[i].mT)
                    delta *= np.sign(acts[i])
            # each point's loss sums its own residuals, a row as loss() sums them;
            # np.add.reduce is ndarray.sum without its Python frame
            F[rows] = np.add.reduce(np.abs(resid).reshape(len(resid), -1), axis=1) / train_count
        return F, G

    def loss(resid):
        return float(np.add.reduce(np.abs(resid), axis=None)) / resid.shape[0]

    def minibatch(idx):
        # take() gathers the same rows as fancy indexing, at less call cost
        return train_x.take(idx, axis=0), train_t.take(idx, axis=0)

    def constraint(x):
        # the sum of each layer's block of |weights|, at a point or each point of a
        # stack; .T puts the layers last, at less call cost than np.stack
        w = np.abs(x[..., :n_w])
        sums = np.array([np.add.reduce(w[..., s], axis=-1) for s in layer_slices])
        return sums.T + x[..., n_w:] - bound

    # J[j, i] = sign(x_j) for the weights j of layer i and J[n_w + i, i] = 1;
    # the slack entries are fixed, the weight entries sit at fixed flat indices
    slack_jacobian = np.zeros((n, L))
    slack_jacobian[n_w + np.arange(L), np.arange(L)] = 1.0
    weight_cells = np.arange(n_w) * L + np.repeat(np.arange(L), sizes)

    def jacobian(x):
        if x.ndim == 1:
            J = slack_jacobian.copy()
            J.reshape(-1)[weight_cells] = np.sign(x[:n_w])
            return J
        J = np.empty((len(x), n, L))
        J[:] = slack_jacobian
        J.reshape(len(x), -1)[:, weight_cells] = np.sign(x[:, :n_w])
        return J

    # the full-batch loss and gradient of the last point or stack asked for, keyed
    # on its shape and bytes: a record stack asks for the loss and then for the
    # gradient at the same stack, and gets both from one pass; a point is a stack
    # of one, and [()] makes its 0-d loss a float
    last = [None, None]

    def full_batch_loss_and_grad(x):
        x = np.asarray(x, dtype=np.float64)
        key = (x.shape, x.tobytes())
        if key != last[0]:
            F, G = full_batch_stack(x.reshape(-1, n))
            # the objective hands out the cached losses, read-only
            F.flags.writeable = False
            last[:] = key, (F.reshape(x.shape[:-1])[()], G.reshape(x.shape))
        return last[1]

    fset = Box(np.r_[np.full(n_w, -1.0), np.zeros(L)], np.r_[np.full(n_w, 1.0), np.full(L, np.inf)])
    mean = ProblemInstance(
        dim_primal=n,
        dim_constraint=L,
        objective=lambda x: full_batch_loss_and_grad(x)[0],
        objective_subgradient=lambda x: full_batch_loss_and_grad(x)[1].copy(),
        constraint=constraint,
        constraint_jacobian=jacobian,
        feasible_set=fset,
        stacks=True,
    )

    inst = StochasticProblemInstance(
        mean=mean,
        draw_objective_sample=lambda gen, size: gen.integers(0, n_train, (size, batch_size)),
        draw_constraint_sample=lambda gen, size: [None] * size,
        objective_sample=lambda x, idx: loss(residual_and_grad(x, *minibatch(idx))[0]),
        objective_subgradient_sample=lambda x, idx: residual_and_grad(x, *minibatch(idx))[1],
        constraint_sample=lambda x, tok: constraint(x),
        constraint_jacobian_sample=lambda x, tok: jacobian(x),
    )

    w0 = np.clip(init_scale * rng.standard_normal(n_w), -1.0, 1.0)
    start = np.concatenate([w0, np.zeros(L)])

    def accuracy(x):
        out = forward(unpack(x), test_x)[-1]
        if out.shape[1] == 1:
            # a single output predicts class 0 from 1/2 up
            return float(np.mean((out[:, 0] < 0.5) == test_y))
        return float(np.mean(np.argmax(out, axis=1) == test_y))

    return ProblemRecipe(
        instance=inst,
        start=start,
        metadata={"accuracy": accuracy, "n_weights": n_w},
    )


@_recipe
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
    solution = OracleSolution(x=np.zeros(1), f=0.0, multipliers=np.array([slope]))
    return ProblemRecipe(instance=inst, start=np.array([0.9]), oracle_solution=solution)


def make_recipe(kind: str, **params) -> ProblemRecipe:
    if kind not in RECIPES:
        raise ValueError(f"unknown problem kind {kind!r}; known: {sorted(RECIPES)}")
    return RECIPES[kind](**params)
