import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from sslalm.core import _objective_at, as_stochastic, eval_constraints
from sslalm.diagnostics import estimate_regularity
from sslalm.geometry import MEMBERSHIP_TOL, Box, NonnegativeOrthant
from sslalm import problems
from sslalm.problems import (
    NET_CHUNK,
    _blob_dataset,
    _certify_multiplier,
    l1_affine_oracle,
    make_affine_l1,
    make_exactness_1d,
    make_recipe,
    make_slack_l1_net,
    make_stochastic_affine,
)
from helpers import affine_instances, token_bytes

ROOT = Path(__file__).resolve().parents[1]


def lp_reference(A, b, anchor, lower, upper):
    """Independent check through scipy: minimize sum(t), |x - anchor| <= t."""
    p, n = A.shape
    c = np.concatenate([np.zeros(n), np.ones(n)])
    A_ub = np.block(
        [[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)]]
    )
    b_ub = np.concatenate([anchor, -anchor])
    A_eq = np.hstack([A, np.zeros((p, n))])
    bounds = [(lower[i], upper[i]) for i in range(n)] + [(0, None)] * n
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b, bounds=bounds, method="highs")
    assert res.success
    return res.fun


class TestL1AffineOracle:
    def test_single_equation(self):
        x, f = l1_affine_oracle(
            np.array([[1.0]]), np.array([0.5]), np.zeros(1), np.array([-1.0]), np.array([1.0])
        )
        assert x == pytest.approx([0.5])
        assert f == pytest.approx(0.5)

    def test_segment_instance(self):
        # minimizers form the segment {x1 + x2 = 1, x >= 0} with value 1
        x, f = l1_affine_oracle(
            np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2),
            np.full(2, -1.0), np.full(2, 1.0),
        )
        assert f == pytest.approx(1.0)
        assert x.sum() == pytest.approx(1.0)
        assert np.all(x >= -1e-12)

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n))
            G = rng.standard_normal((p, n))
            x_feas = rng.uniform(-0.5, 0.5, n)
            b = G @ x_feas
            anchor = rng.uniform(-1, 1, n)
            lower, upper = np.full(n, -1.0), np.full(n, 1.0)
            _, f = l1_affine_oracle(G, b, anchor, lower, upper)
            assert f == pytest.approx(lp_reference(G, b, anchor, lower, upper), abs=1e-8)

    def test_matches_scipy_at_recipe_sizes(self):
        # criterion 1's ten recipes, then random instances up to the size cap
        for n, p, seed in affine_instances():
            rec = make_affine_l1(n=n, p=p, seed=seed)
            box = rec.instance.feasible_set
            want = lp_reference(rec.metadata["A"], rec.metadata["b"], rec.metadata["anchor"],
                                box.lower, box.upper)
            assert rec.oracle_solution.f == pytest.approx(want, abs=1e-8), (n, p, seed)
        rng = np.random.default_rng(1)
        for _ in range(30):
            n, p = int(rng.integers(7, 13)), int(rng.integers(1, 4))
            A = rng.standard_normal((p, n))
            b, anchor = A @ rng.uniform(-0.5, 0.5, n), rng.uniform(-1, 1, n)
            lower, upper = np.full(n, -1.0), np.full(n, 1.0)
            _, f = l1_affine_oracle(A, b, anchor, lower, upper)
            assert f == pytest.approx(lp_reference(A, b, anchor, lower, upper), abs=1e-8), (n, p)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            l1_affine_oracle(
                np.ones((1, 13)), np.zeros(1), np.zeros(13), np.full(13, -1.0), np.full(13, 1.0)
            )

    def test_no_feasible_candidate_raises(self):
        # x1 + x2 = 5 has no point in [-1, 1]^2
        with pytest.raises(ValueError, match="^constraint system admits no feasible candidate"):
            l1_affine_oracle(np.ones((1, 2)), np.array([5.0]), np.zeros(2), np.full(2, -1.0),
                             np.full(2, 1.0))

    @pytest.mark.parametrize("A", [np.zeros((1, 3)), np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])],
                             ids=["zero", "repeated_row"])
    def test_rank_deficient_A_raises(self, A):
        # A x = 0 has solutions in the box (every box point, for the zero A),
        # but no p columns of A are invertible
        with pytest.raises(ValueError, match="^brute-force oracle needs A of full row rank"):
            l1_affine_oracle(A, np.zeros(len(A)), np.zeros(3), np.full(3, -1.0), np.full(3, 1.0))

    @pytest.mark.parametrize("shapes, message", [
        # b broadcast across both rows: an answer for b = (0.3, 0.3)
        ({"b": (1,)}, r"b has shape \(1,\), expected \(2,\)"),
        ({"lower": (3,)}, r"lower has shape \(3,\), expected \(4,\)"),
        ({"A": (4,)}, r"A has shape \(4,\), expected \(p, n\)"),
        ({"A": (5, 4), "b": (5,)}, r"A has shape \(5, 4\), expected \(p, n\) with 1 <= p <= n"),
    ], ids=["b", "lower", "A_1d", "p_above_n"])
    def test_misshaped_inputs_rejected(self, shapes, message):
        A = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0].T.copy()
        args = {"A": A, "b": np.full(2, 0.3), "anchor": np.zeros(4), "lower": np.full(4, -1.0),
                "upper": np.full(4, 1.0)}
        for name, shape in shapes.items():
            args[name] = np.resize(args[name], shape)
        with pytest.raises(ValueError, match=message):
            l1_affine_oracle(**args)

    def test_streamed_grid_matches_meshgrid_restatement_bitwise(self):
        # a fresh interpreter on a single-threaded BLAS: a threaded product
        # rounds the columns at its thread split in its own way, so the
        # whole-grid oracle's own bits depend on the thread count
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
                   **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
        out = subprocess.run([sys.executable, "-c", ORACLE_SPREAD], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout.splitlines()[-1])
        assert got["mismatches"] == []
        assert got["multi_block"] >= 8 and got["square"] >= 12 and got["stacked"] >= 30
        assert got["solved"] >= got["cases"] - 4, got  # nearly every case has a solution

    def test_transient_memory_is_bounded_by_the_block(self):
        # p = 1: 12 free sets of 3^11 candidates each, which the whole-grid
        # form held one at a time, about 83 MB at its peak; p = 6: 924 free
        # sets of 3^6 candidates, stacked five to a block
        for p in (1, 6):
            rng = np.random.default_rng(0)
            A = np.linalg.qr(rng.standard_normal((12, p)))[0].T.copy()
            b, anchor = A @ rng.uniform(-0.6, 0.6, 12), rng.uniform(-1.0, 1.0, 12)
            tracemalloc.start()
            try:
                l1_affine_oracle(A, b, anchor, np.full(12, -1.0), np.full(12, 1.0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6, (p, peak)


# ``l1_affine_oracle`` against ``reference.meshgrid_l1_affine_oracle`` on five
# instance families, printing the instances whose (x*, f*) bits differ and
# counting those whose blocks stacked the grids of several free sets in one product
ORACLE_SPREAD = """
import itertools, json
import numpy as np
from reference import meshgrid_l1_affine_oracle
from sslalm.problems import ORACLE_CHUNK, l1_affine_oracle

def instance(n, p, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":  # many equal objective values: the tie rule decides
        A = rng.integers(-2, 3, (p, n)).astype(float)
        anchor = rng.integers(-2, 3, n) / 2.0
        x = rng.uniform(-0.6, 0.6, n)
    elif kind == "vertex":  # columns of mixed scale, b through a grid point
        A = rng.standard_normal((p, n)) * np.exp(rng.uniform(-6.0, 3.0, n))
        anchor = rng.uniform(-1.0, 1.0, n)
        x = np.where(rng.random(n) < 0.5, anchor, rng.choice([-1.0, 1.0], n))
    else:  # the recipe's family: orthonormal rows
        A = np.linalg.qr(rng.standard_normal((n, p)))[0].T.copy()
        anchor = rng.uniform(-1.0, 1.0, n)
        x = rng.uniform(-0.6, 0.6, n)
    if kind == "bound":  # anchors on a bound: grids of two fixings among grids of three
        anchor[: n // 2] = rng.choice([-1.0, 1.0], n // 2)
    if kind == "singular":  # a repeated column: every free set holding both is skipped
        A[:, 2] = A[:, 1]
    return A, A @ x, anchor, np.full(n, -1.0), np.full(n, 1.0)

kinds = ("orthonormal", "integer", "vertex")
cases = [*itertools.product([(9, 1)], kinds, range(2)),
         *itertools.product([(10, 2)], kinds[:2], range(1)),
         ((12, 1), "orthonormal", 0),
         *itertools.product([(1, 1), (4, 4), (8, 8), (12, 12), (5, 2), (7, 3)], kinds, range(3)),
         # its minimizer is the only feasible point of its grid
         ((8, 2), "vertex", 73),
         # consecutive free sets whose grids differ in size, and free sets
         # skipped between the stacked ones
         *itertools.product([(6, 2), (8, 3), (9, 1), (10, 4)], ["bound", "singular"], range(2)),
         # a stacked block with one feasible point: its f must be summed row
         # by row, as in a wider block, to give these minimizers' bits
         ((8, 4), "integer", 128), ((9, 5), "integer", 214),
         ((12, 6), "orthonormal", 0), ((11, 4), "orthonormal", 0)]
matmul = np.matmul

def watched_matmul(a, b):
    # a block's product stacks several whole grids when it holds K > 1 items
    global ran_stacked
    ran_stacked |= a.ndim == 3 and len(a) > 1
    return matmul(a, b)

mismatches, multi_block, square, stacked, solved = [], 0, 0, 0, 0
for (n, p), kind, seed in cases:
    args = instance(n, p, kind, seed)
    x_want, f_want = meshgrid_l1_affine_oracle(*args)
    ran_stacked, np.matmul = False, watched_matmul
    try:
        x_got, f_got = l1_affine_oracle(*args)
    except ValueError:  # no candidate point: the restatement returns (None, inf)
        x_got, f_got = None, np.inf
    finally:
        np.matmul = matmul
    if (x_want is None) != (x_got is None) or (
            x_want is not None and x_want.tobytes() != x_got.tobytes()) or f_want != f_got:
        mismatches.append([n, p, kind, seed])
    solved += x_want is not None
    multi_block += 3 ** (n - p) > ORACLE_CHUNK
    square += n == p
    stacked += ran_stacked
print(json.dumps({"mismatches": mismatches, "multi_block": multi_block, "square": square,
                  "stacked": stacked, "solved": solved, "cases": len(cases)}))
"""


def certificate_resid2(A, x_star, anchor, lower, upper, lam):
    """Squared distance of ``-(sign(x_star - anchor) + A^T lam)`` to the box
    normal cone at ``x_star``."""
    t = -(np.sign(x_star - anchor) + A.T @ lam)
    at_lower = x_star <= lower + MEMBERSHIP_TOL
    at_upper = x_star >= upper - MEMBERSHIP_TOL
    r = np.abs(t)
    r = np.where(at_lower, np.maximum(t, 0.0), r)
    r = np.where(at_upper, np.maximum(-t, 0.0), r)
    r = np.where(at_lower & at_upper, 0.0, r)
    return float(r @ r)


def lbfgsb_certificate(A, x_star, anchor, lower, upper):
    """Reference certificate: L-BFGS-B on the squared residual, accepted at <= 1e-16."""
    res = minimize(
        lambda lam: certificate_resid2(A, x_star, anchor, lower, upper, lam),
        np.zeros(A.shape[0]), method="L-BFGS-B", tol=1e-16,
    )
    return np.asarray(res.x) if res.fun <= 1e-16 else None


def constructed_certificate(n, p, seed, n_free):
    """An instance certified by ``lam_star`` by construction: ``n_free``
    interior coordinates, each other one at the bound whose normal cone holds
    ``-(d + A^T lam_star)_i``. With ``n_free == p`` the free rows fix
    ``lam_star``; with fewer it is one certificate among many."""
    rng = np.random.default_rng(seed)
    A = np.linalg.qr(rng.standard_normal((n, p)))[0].T
    free = rng.permutation(n)[:n_free]
    d = rng.choice([-1.0, 0.0, 1.0], n)
    d[free] = rng.choice([-1.0, 1.0], n_free)
    # a solution of the free rows plus a random step along their null space
    A_free = A[:, free].T
    z = rng.standard_normal(p)
    lam_star = np.linalg.lstsq(A_free, -d[free], rcond=None)[0] + z - np.linalg.pinv(A_free) @ (A_free @ z)
    lower, upper = np.full(n, -1.0), np.full(n, 1.0)
    x_star = np.where(d + A.T @ lam_star >= 0.0, lower, upper)
    x_star[free] = rng.uniform(-0.5, 0.5, n_free)
    anchor = x_star - d * rng.uniform(0.1, 0.5, n)  # sign(x_star - anchor) == d
    return (A, x_star, anchor, lower, upper), lam_star


def certify(A, x_star, anchor, lower, upper):
    return _certify_multiplier(A, x_star, anchor, Box(lower, upper))


class TestCertifyMultiplier:
    def test_same_decision_as_lbfgsb_on_the_recipe_grid(self):
        certified = 0
        for n in range(2, 11):
            for p in range(1, min(3, n - 1) + 1):
                for seed in range(15):
                    rec = make_affine_l1(n=n, p=p, seed=seed)
                    box = rec.instance.feasible_set
                    args = (rec.metadata["A"], rec.oracle_solution.x, rec.metadata["anchor"],
                            box.lower, box.upper)
                    lam, ref = rec.oracle_solution.multipliers, lbfgsb_certificate(*args)
                    assert (lam is None) == (ref is None), (n, p, seed)
                    if lam is not None:
                        assert lam == pytest.approx(ref, abs=1e-6)
                        certified += 1
        assert certified >= 1

    @pytest.mark.parametrize("n, p", [(2, 1), (4, 2), (6, 3), (10, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_returns_the_constructed_multiplier(self, n, p, seed):
        args, lam_star = constructed_certificate(n, p, seed, n_free=p)
        lam = certify(*args)
        assert lam is not None
        assert lam == pytest.approx(lam_star, abs=1e-9)

    @pytest.mark.parametrize("n, p, n_free", [(3, 1, 0), (5, 2, 0), (5, 2, 1), (8, 3, 1), (8, 3, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_certifies_with_fewer_free_rows_than_multipliers(self, n, p, n_free, seed):
        # the free rows do not fix lam: one-sided rows complete the system
        args, lam_star = constructed_certificate(n, p, seed, n_free)
        assert certificate_resid2(*args, lam_star) <= 1e-16
        lam = certify(*args)
        assert lam is not None
        assert certificate_resid2(*args, lam) <= 1e-16

    @pytest.mark.parametrize(
        "A, x_star, anchor",
        [
            # three free rows, one multiplier: lam/sqrt(3) = -1 and = +1
            (np.ones((1, 3)) / np.sqrt(3), np.zeros(3), np.array([-0.5, -0.5, 0.5])),
            # lower bound needs lam/sqrt(2) >= 1, upper bound needs it <= -1
            (np.ones((1, 2)) / np.sqrt(2), np.array([-1.0, 1.0]), np.array([-0.5, 0.5])),
            # the free row fixes lam = -sqrt(2), which the lower bound rejects
            (np.ones((1, 2)) / np.sqrt(2), np.array([0.2, -1.0]), np.array([-0.1, -0.5])),
        ],
        ids=["free-rows-inconsistent", "one-sided-rows-inconsistent", "free-row-violates-bound"],
    )
    def test_none_without_a_certificate(self, A, x_star, anchor):
        args = (A, x_star, anchor, np.full(A.shape[1], -1.0), np.full(A.shape[1], 1.0))
        assert lbfgsb_certificate(*args) is None
        assert certify(*args) is None


class TestAffineL1Recipe:
    def test_oracle_solution_roundtrips_through_instance(self):
        for seed in range(8):
            rec = make_affine_l1(n=5, p=2, seed=seed)
            sol = rec.oracle_solution
            assert rec.instance.feasible_set.contains(sol.x)
            assert np.linalg.norm(eval_constraints(rec.instance, sol.x)) <= 1e-9
            assert _objective_at(rec.instance, sol.x) == pytest.approx(sol.f, abs=1e-9)

    def test_orthonormal_rows(self):
        rec = make_affine_l1(n=6, p=3, seed=1)
        A = rec.metadata["A"]
        assert A @ A.T == pytest.approx(np.eye(3), abs=1e-12)

    def test_interior_regularity_estimate_is_one(self):
        rec = make_affine_l1(n=4, p=2, seed=3)
        rng = np.random.default_rng(1)
        pts = [rng.uniform(-0.9, 0.9, 4) for _ in range(200)]
        assert estimate_regularity(rec.instance, pts) >= 0.99

    def test_start_is_feasible_for_the_set(self):
        rec = make_affine_l1(n=4, p=1, seed=2)
        assert rec.instance.feasible_set.contains(rec.start)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            make_affine_l1(n=3, p=3, seed=0)


def net_pass_with_matmul(widths, x, inputs, targets):
    """The forward/backward pass of ``slack_l1_net`` written with ``@``: the
    mean absolute residual, its gradient in ``x`` (zero on the slacks) and the
    network's outputs."""
    L = len(widths) - 1
    weights, offset = [], 0
    for rows, cols in zip(widths[:-1], widths[1:]):
        weights.append(x[offset : offset + rows * cols].reshape(rows, cols))
        offset += rows * cols
    pre, acts = [], [inputs]
    for i, W in enumerate(weights):
        pre.append(acts[-1] @ W)
        acts.append(np.maximum(pre[-1], 0.0) if i < L - 1 else pre[-1])
    resid = acts[-1] - targets
    delta = np.sign(resid) / inputs.shape[0]
    grads = [None] * L
    for i in range(L - 1, -1, -1):
        grads[i] = (acts[i].T @ delta).ravel()
        if i > 0:
            delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
    return float(np.abs(resid).sum()) / resid.shape[0], np.concatenate(grads + [np.zeros(L)]), acts[-1]


class TestSlackL1NetRecipe:
    @pytest.mark.parametrize("widths", [(2, 8, 2), (2, 3, 4, 2)])
    def test_pass_matches_matmul_restatement_bitwise(self, widths):
        rec = make_slack_l1_net(layer_widths=widths, n_train=64, n_test=32, batch_size=16)
        prob = rec.instance
        data = np.random.default_rng(rec.params["dataset_seed"])
        train_x, train_y = _blob_dataset(data, widths[0], 64)
        test_x, test_y = _blob_dataset(data, widths[0], 32)
        train_t = np.eye(widths[-1])[train_y]
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = prob.mean.feasible_set.project(rng.uniform(-1.0, 1.0, prob.dim_primal))
            loss, grad, _ = net_pass_with_matmul(widths, x, train_x, train_t)
            assert prob.mean.objective(x) == loss
            assert prob.mean.objective_subgradient(x).tobytes() == grad.tobytes()
            idx = prob.draw_objective_sample(rng, 1)[0]
            loss, grad, _ = net_pass_with_matmul(widths, x, train_x[idx], train_t[idx])
            assert prob.objective_sample(x, idx) == loss
            assert prob.objective_subgradient_sample(x, idx).tobytes() == grad.tobytes()
            out = net_pass_with_matmul(widths, x, test_x, np.eye(widths[-1])[test_y])[2]
            assert rec.metadata["accuracy"](x) == float(np.mean(np.argmax(out, axis=1) == test_y))

    def test_feasible_when_slack_absorbs_budget(self):
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        n_w = rec.metadata["n_weights"]
        L = rec.instance.dim_constraint
        x = np.zeros(rec.instance.dim_primal)
        x[n_w:] = 1.0  # s_i = r_i with zero weights
        c = eval_constraints(rec.instance.mean, x)
        assert c == pytest.approx(np.zeros(L))

    def test_jacobian_column_structure(self):
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        inst = rec.instance.mean
        n_w = rec.metadata["n_weights"]
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.9, 0.9, inst.dim_primal)
        J = inst.constraint_jacobian(x)
        sizes = [2 * 3, 3 * 2]
        offset = 0
        for i, size in enumerate(sizes):
            block = J[offset : offset + size, i]
            assert np.array_equal(block, np.sign(x[offset : offset + size]))
            other = J[offset : offset + size, 1 - i]
            assert np.array_equal(other, np.zeros(size))
            offset += size
        assert J[n_w + 0, 0] == 1.0 and J[n_w + 1, 1] == 1.0
        assert J[n_w + 0, 1] == 0.0 and J[n_w + 1, 0] == 0.0

    @pytest.mark.parametrize("widths", [(2, 8, 2), (2, 3, 4, 2)])
    def test_jacobian_equals_per_layer_loop(self, widths):
        rec = make_slack_l1_net(layer_widths=widths, n_train=16, n_test=8, batch_size=8)
        inst = rec.instance
        n, n_w, L = inst.dim_primal, rec.metadata["n_weights"], inst.dim_constraint
        offsets = np.cumsum([0] + [widths[i] * widths[i + 1] for i in range(L)])
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-1, 1, n)
            # exact zero weights (sign 0), of both signs
            x[:n_w][rng.random(n_w) < 0.3] = 0.0
            x[:n_w][rng.random(n_w) < 0.1] = -0.0
            ref = np.zeros((n, L))
            for i in range(L):
                ref[offsets[i] : offsets[i + 1], i] = np.sign(x[offsets[i] : offsets[i + 1]])
                ref[n_w + i, i] = 1.0
            for J in (inst.mean.constraint_jacobian(x), inst.constraint_jacobian_sample(x, None)):
                assert J.shape == ref.shape and J.dtype == ref.dtype
                assert J.tobytes() == ref.tobytes()
                J[:] = 5.0  # each call returns a fresh array
        assert inst.mean.constraint_jacobian(x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("widths", [(2, 8, 2), (2, 3, 4, 2), (5, 17, 33, 3)])
    def test_constraint_equals_per_layer_loop(self, widths):
        rec = make_slack_l1_net(layer_widths=widths, n_train=16, n_test=8, batch_size=8)
        inst = rec.instance
        n, n_w, L = inst.dim_primal, rec.metadata["n_weights"], inst.dim_constraint
        offsets = np.cumsum([0] + [widths[i] * widths[i + 1] for i in range(L)])
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.uniform(-1, 1, n) * rng.choice([1e-3, 1.0, 1e3], n)
            x[rng.random(n) < 0.2] = 0.0
            norms = np.array([np.abs(x[offsets[i] : offsets[i + 1]]).sum() for i in range(L)])
            ref = norms + x[n_w:] - 1.0
            for c in (inst.mean.constraint(x), inst.constraint_sample(x, None)):
                assert c.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("widths", [(2, 8, 2), (2, 3, 4, 2)])
    def test_feasible_set_equals_box_times_orthant(self, widths):
        rec = make_slack_l1_net(layer_widths=widths, n_train=16, n_test=8, batch_size=8)
        fset = rec.instance.mean.feasible_set
        n, n_w, L = rec.instance.dim_primal, rec.metadata["n_weights"], rec.instance.dim_constraint
        assert isinstance(fset, Box)
        # the reference: the weights' box and the slacks' orthant, block by block
        blocks = ((Box(np.full(n_w, -1.0), np.full(n_w, 1.0)), slice(0, n_w)),
                  (NonnegativeOrthant(L), slice(n_w, n)))
        project = lambda x: np.concatenate([b.project(x[s]) for b, s in blocks])
        prox = lambda x, y, v: np.concatenate([b.prox_weighted(x[s], y[s], v[s]) for b, s in blocks])
        rng = np.random.default_rng(13)
        for _ in range(500):
            x = 2.0 * rng.standard_normal(n)
            y = rng.standard_normal(n)
            for z in (x, y):
                z[rng.random(n) < 0.2] = 0.0
                z[rng.random(n) < 0.1] = -0.0
            v = rng.uniform(0.1, 5.0, n)
            assert fset.project(x).tobytes() == project(x).tobytes()
            assert fset.prox_weighted(x, y, v).tobytes() == prox(x, y, v).tobytes()

    def test_loss_subgradient_matches_finite_differences(self):
        # piecewise-linear in the parameters: central differences agree at
        # randomly drawn differentiable points
        rec = make_slack_l1_net(layer_widths=(2, 4, 2), n_train=32, n_test=8, batch_size=16)
        inst = rec.instance.mean
        rng = np.random.default_rng(3)
        h = 1e-6
        checked = 0
        while checked < 100:
            x = rng.uniform(-0.8, 0.8, inst.dim_primal)
            d = inst.objective_subgradient(x)
            i = int(rng.integers(0, inst.dim_primal))
            e = np.zeros(inst.dim_primal)
            e[i] = h
            fd = (inst.objective(x + e) - inst.objective(x - e)) / (2 * h)
            # kink crossings between the probe points make both selections
            # valid; skip the rare ambiguous draw
            if abs(fd - d[i]) > 1e-6 and abs(fd - inst.objective_subgradient(x + e)[i]) < 1e-6:
                continue
            assert fd == pytest.approx(d[i], abs=1e-6)
            checked += 1

    def test_objective_ignores_slack_block(self):
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        inst = rec.instance.mean
        n_w = rec.metadata["n_weights"]
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.5, 0.5, inst.dim_primal)
        x2 = x.copy()
        x2[n_w:] += 3.0
        assert inst.objective(x) == inst.objective(x2)
        assert np.array_equal(inst.objective_subgradient(x)[n_w:], np.zeros(2))

    def test_minibatch_sampling_deterministic(self):
        rec = make_slack_l1_net(n_train=64, n_test=8, batch_size=16)
        sp = rec.instance
        idx1 = sp.draw_objective_sample(np.random.default_rng(5), 1)[0]
        idx2 = sp.draw_objective_sample(np.random.default_rng(5), 1)[0]
        assert np.array_equal(idx1, idx2)
        x = rec.start
        assert sp.objective_sample(x, idx1) == sp.objective_sample(x, idx2)

    @pytest.mark.parametrize("widths", [(2, 8, 2), (2, 3, 4, 2), (5, 17, 33, 3)])
    def test_full_index_sample_equals_full_batch_bitwise(self, widths):
        # the minibatch gather and the gradient-only pass against the
        # full-batch oracles, which compute the loss and gradient together
        rec = make_slack_l1_net(layer_widths=widths, n_train=24, n_test=8, batch_size=8)
        sp = rec.instance
        idx = np.arange(24)
        rng = np.random.default_rng(17)
        for x in [rec.start] + [rng.uniform(-1, 1, sp.dim_primal) for _ in range(10)]:
            d = sp.objective_subgradient_sample(x, idx)
            assert d.tobytes() == sp.mean.objective_subgradient(x).tobytes()
            f = sp.objective_sample(x, idx)
            assert np.float64(f).tobytes() == np.float64(sp.mean.objective(x)).tobytes()

    def test_metadata(self):
        rec = make_slack_l1_net(n_train=256, n_test=128, batch_size=128)
        assert set(rec.metadata) == {"accuracy", "n_weights"}
        acc = rec.metadata["accuracy"](rec.start)
        assert 0.0 <= acc <= 1.0


class _CountingNumpy:
    """numpy, with a count of its ``matmul`` calls."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


def _net_stack(widths, m, seed, zero_rate, n_train=16):
    """The mean problem of a small net and ``m`` points in its box: weights at
    exactly 0 (some -0.0) at ``zero_rate``, and in every other point one hidden
    unit of the first layer with an all-zero column, so that its pre-activations
    are exactly 0."""
    rec = make_slack_l1_net(layer_widths=widths, n_train=n_train, n_test=4, batch_size=4)
    mean, n_w = rec.instance.mean, rec.metadata["n_weights"]
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (m, mean.dim_primal))
    X[:, n_w:] = rng.uniform(0.0, 2.0, (m, len(widths) - 1))
    W = X[:, :n_w]
    W[rng.random(W.shape) < zero_rate] = 0.0
    W[rng.random(W.shape) < zero_rate / 2] = -0.0
    r, c = widths[0], widths[1]
    for j in range(0, m, 2):
        W[j, : r * c].reshape(r, c)[:, rng.integers(c)] = 0.0
    return mean, X


class TestNetStacks:
    """``slack_l1_net`` takes stacks: each row of each oracle's value on a stack
    is bitwise the oracle's value at that row's point."""

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple),
           m=st.integers(1, 2 * NET_CHUNK + 1), seed=st.integers(0, 2**32 - 1),
           zero_rate=st.sampled_from([0.0, 0.3]), n_train=st.sampled_from([16, 256]))
    @example(widths=(3, 4, 2, 1), m=2 * NET_CHUNK + 1, seed=0, zero_rate=0.3, n_train=256)
    @example(widths=(2, 8, 2), m=NET_CHUNK, seed=1, zero_rate=0.0, n_train=256)
    def test_stack_rows_equal_point_calls_bitwise(self, widths, m, seed, zero_rate, n_train):
        mean, X = _net_stack(widths, m, seed, zero_rate, n_train)
        assert mean.stacks
        F, D = mean.objective(X), mean.objective_subgradient(X)
        C, J = mean.constraint(X), mean.constraint_jacobian(X)
        n, p = mean.dim_primal, mean.dim_constraint
        assert (F.shape, D.shape, C.shape, J.shape) == ((m,), (m, n), (m, p), (m, n, p))
        for j, x in enumerate(X):
            x = x.copy()
            f, d = mean.objective(x), mean.objective_subgradient(x)
            assert np.ndim(f) == 0 and d.shape == (n,)
            assert F[j].tobytes() == np.float64(f).tobytes()
            assert D[j].tobytes() == d.tobytes()
            assert C[j].tobytes() == mean.constraint(x).tobytes()
            assert J[j].tobytes() == mean.constraint_jacobian(x).tobytes()

    @pytest.mark.parametrize("m", [1, NET_CHUNK, 2 * NET_CHUNK + 1])
    def test_objective_then_subgradient_make_one_pass(self, monkeypatch, m):
        widths = (2, 3, 4, 1)
        mean, X = _net_stack(widths, m, seed=5, zero_rate=0.0)
        counting = _CountingNumpy()
        monkeypatch.setattr(problems, "np", counting)
        # a pass over a chunk of the stack makes 3 L - 1 products: L forward,
        # L for the gradient blocks and L - 1 back through the layers
        one_pass = -(-m // NET_CHUNK) * (3 * (len(widths) - 1) - 1)
        F = mean.objective(X)
        assert counting.matmuls == one_pass
        D = mean.objective_subgradient(X)
        assert counting.matmuls == one_pass
        monkeypatch.undo()
        assert D.tobytes() == mean.objective_subgradient(X.copy()).tobytes()
        assert F.tobytes() == mean.objective(X.copy()).tobytes()
        # another stack is a new pass
        monkeypatch.setattr(problems, "np", counting)
        mean.objective_subgradient(0.5 * X)
        assert counting.matmuls == 2 * one_pass

    def test_one_output(self):
        # a single output's target is the indicator of class 0, which it
        # predicts from 1/2 up: the zero net misses every class-0 point
        rec = make_slack_l1_net(layer_widths=(2, 3, 1), n_train=16, n_test=8, batch_size=4)
        rng = np.random.default_rng(0)
        train_y = _blob_dataset(rng, 2, 16)[1]
        test_y = _blob_dataset(rng, 2, 8)[1]
        zero = np.zeros(rec.instance.dim_primal)
        assert rec.instance.mean.objective(zero) == np.mean(train_y == 0)
        assert rec.metadata["accuracy"](zero) == np.mean(test_y == 1)


class TestStochasticAffineRecipe:
    def test_zero_noise_degenerates_to_mean(self):
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.0, seed=7)
        sp = rec.instance
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 4)
        for _ in range(10):
            tok = sp.draw_constraint_sample(rng, 1)[0]
            assert sp.constraint_sample(x, tok) == pytest.approx(
                eval_constraints(sp.mean, x), abs=1e-15
            )
            u = sp.draw_objective_sample(rng, 1)[0]
            assert sp.objective_sample(x, u) == pytest.approx(sp.mean.objective(x), abs=1e-15)

    def test_subgradient_sample_unbiased(self):
        rec = make_stochastic_affine(n=3, p=1, noise_scale=0.5, seed=8)
        sp = rec.instance
        rng = np.random.default_rng(1)
        x = np.array([0.4, -0.3, 0.2])
        draws = np.array(
            [sp.objective_subgradient_sample(x, u) for u in sp.draw_objective_sample(rng, 20000)]
        )
        assert draws.mean(axis=0) == pytest.approx(sp.mean.objective_subgradient(x), abs=0.02)

    @pytest.mark.parametrize("n, p, noise_scale", [(2, 1, 0.5), (5, 2, 0.5), (8, 3, 0.1),
                                                  (12, 11, 2.0), (6, 2, 0.0)])
    def test_one_call_token_equals_two_draws_bitwise(self, n, p, noise_scale):
        rec = make_stochastic_affine(n=n, p=p, noise_scale=noise_scale, seed=3)
        sp, A, b = rec.instance, rec.metadata["A"], rec.metadata["b"]
        one, two = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(50):
            B, d = sp.draw_constraint_sample(one, 1)[0]
            ref_dB = two.uniform(-noise_scale, noise_scale, (p, n))
            ref_dd = two.uniform(-noise_scale, noise_scale, p)
            assert B.shape == (p, n) and d.shape == (p,)
            assert B.tobytes() == (A + ref_dB).tobytes() and d.tobytes() == (b + ref_dd).tobytes()
        assert one.bit_generator.state == two.bit_generator.state

    def test_constraint_sample_of_interleaved_tokens_bitwise(self):
        # a sample is a function of the point and the token alone: any order of
        # tokens and points gives (A + dB) x - (b + dd), with dB and dd drawn
        # from a second generator of the same seed
        rec = make_stochastic_affine(n=5, p=2, noise_scale=0.5, seed=4)
        sp, A, b = rec.instance, rec.metadata["A"], rec.metadata["b"]
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        toks = [sp.draw_constraint_sample(rng, 1)[0] for _ in range(3)]
        perturbations = [(ref_rng.uniform(-0.5, 0.5, (2, 5)), ref_rng.uniform(-0.5, 0.5, 2))
                         for _ in range(3)]
        xs = [rng.uniform(-1, 1, 5) for _ in range(3)]
        for i in [0, 0, 1, 0, 2, 2, 1, 1, 0]:
            for x in xs[i:] + xs[:i]:
                dB, dd = perturbations[i]
                ref = (A + dB) @ x - (b + dd)
                assert sp.constraint_sample(x, toks[i]).tobytes() == ref.tobytes()

    def test_interior_regularity(self):
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.3, seed=9)
        rng = np.random.default_rng(2)
        pts = [rng.uniform(-0.9, 0.9, 4) for _ in range(200)]
        assert estimate_regularity(rec.instance.mean, pts) >= 0.99


BLOCK_DRAW_CASES = {
    "stochastic_affine/5-2-0.5": lambda: make_stochastic_affine(n=5, p=2, noise_scale=0.5),
    "stochastic_affine/8-3-0.1": lambda: make_stochastic_affine(n=8, p=3, noise_scale=0.1, seed=2),
    "stochastic_affine/4-2-0": lambda: make_stochastic_affine(n=4, p=2, noise_scale=0.0, seed=7),
    # index ranges that are not a power of two make numpy reject some samples
    "slack_l1_net/256-128": lambda: make_slack_l1_net(n_train=256, n_test=8, batch_size=128),
    "slack_l1_net/100-7": lambda: make_slack_l1_net(n_train=100, n_test=8, batch_size=7),
    "slack_l1_net/16-8": lambda: make_slack_l1_net(n_train=16, n_test=8, batch_size=8),
}
# block sizes drawn one after the other, so that blocks also start mid-stream
BLOCK_SIZES = (1, 3, 7, 256)


class TestBlockDraws:
    """``draw_*(gen, K)``: the tokens of K successive ``draw_*(gen, 1)[0]``,
    bit for bit, with the generator left in the same state."""

    @pytest.mark.parametrize("oracle", ["draw_objective_sample", "draw_constraint_sample"])
    @pytest.mark.parametrize("case", list(BLOCK_DRAW_CASES))
    def test_block_equals_one_token_draws_bitwise(self, case, oracle):
        draw = getattr(BLOCK_DRAW_CASES[case]().instance, oracle)
        block_gen, token_gen = np.random.default_rng(31), np.random.default_rng(31)
        for size in BLOCK_SIZES:
            block = draw(block_gen, size)
            tokens = [draw(token_gen, 1)[0] for _ in range(size)]
            assert len(block) == size
            assert [token_bytes(t) for t in block] == [token_bytes(t) for t in tokens]
            assert block_gen.bit_generator.state == token_gen.bit_generator.state

    @pytest.mark.parametrize("oracle", ["draw_objective_sample", "draw_constraint_sample"])
    def test_exact_problem_draws_leave_the_generator_untouched(self, oracle):
        draw = getattr(as_stochastic(make_affine_l1(n=4, p=2).instance), oracle)
        gen = np.random.default_rng(31)
        state = gen.bit_generator.state
        for size in BLOCK_SIZES:
            assert list(draw(gen, size)) == [None] * size
        assert gen.bit_generator.state == state


class TestExactness1d:
    def test_analytic_pieces(self):
        rec = make_exactness_1d(slope=2.0)
        inst = rec.instance
        assert inst.lipschitz_bound_f == 2.0
        assert inst.regularity_constant == 1.0
        assert _objective_at(inst, np.array([0.5])) == -1.0
        assert eval_constraints(inst, [0.5]) == pytest.approx([0.5])
        sol = rec.oracle_solution
        assert sol.x == pytest.approx([0.0])
        assert sol.multipliers == pytest.approx([2.0])

    def test_penalty_stationary_point_below_threshold(self):
        # with beta < slope the penalty has an interior stationary point at
        # (slope - beta)/rho
        grid = np.linspace(-1, 1, 100001)
        vals = -2.0 * grid + 1.0 * np.abs(grid) + 0.5 * grid**2
        assert grid[int(np.argmin(vals))] == pytest.approx(1.0, abs=1e-4)


def test_recipe_registry():
    rec = make_recipe("exactness_1d", slope=3.0)
    assert rec.kind == "exactness_1d"
    assert rec.params["slope"] == 3.0
    with pytest.raises(ValueError):
        make_recipe("unknown_kind")
    with pytest.raises(TypeError):
        make_recipe("exactness_1d", bogus=1)


def test_stochastic_affine_samples_uniformly_bounded_on_box():
    # per-sample outputs stay inside explicit bounds over the whole box
    rec = make_stochastic_affine(n=4, p=2, noise_scale=0.5, seed=3)
    sp = rec.instance
    A = rec.metadata["A"]
    rng = np.random.default_rng(0)
    # ||C(x,w)|| <= (||A|| + scale*sqrt(n*p))*||x|| + ||b|| + scale*sqrt(p)
    b_norm = np.linalg.norm(rec.metadata["b"])
    c_bound = (np.linalg.norm(A, 2) + 0.5 * np.sqrt(8)) * 2.0 + b_norm + 0.5 * np.sqrt(2)
    f_bound = 1.5 * (np.abs(np.full(4, 1.0)) + np.abs(rec.metadata["anchor"])).sum()
    for _ in range(1000):
        x = rng.uniform(-1, 1, 4)
        tok = sp.draw_constraint_sample(rng, 1)[0]
        assert np.linalg.norm(sp.constraint_sample(x, tok)) <= c_bound
        assert np.all(np.abs(sp.constraint_jacobian_sample(x, tok)) <= np.abs(A.T) + 0.5)
        u = sp.draw_objective_sample(rng, 1)[0]
        assert abs(sp.objective_sample(x, u)) <= f_bound
        assert np.max(np.abs(sp.objective_subgradient_sample(x, u))) <= 1.5


@pytest.mark.parametrize("kind, params, err", [
    ("stochastic_affine", {"noise_scale": -0.1}, "noise_scale"),
    ("stochastic_affine", {"noise_scale": float("nan")}, "noise_scale"),
    ("stochastic_affine", {"n": 3, "p": 3}, "p < n"),
    ("slack_l1_net", {"layer_widths": (2, 0)}, "layer_widths"),
    ("slack_l1_net", {"layer_widths": (2, 2.5)}, "layer_widths"),
    ("slack_l1_net", {"layer_widths": (2, float("inf"))}, "layer_widths"),
    ("slack_l1_net", {"layer_widths": (2, -3)}, "layer_widths"),
    ("slack_l1_net", {"n_test": 0}, "n_test must be >= 1"),
    ("slack_l1_net", {"layer_widths": (2,)}, "two or more widths"),
    ("slack_l1_net", {"radius": 0.0}, "radius must be positive"),
    ("slack_l1_net", {"batch_size": 0}, r"batch_size must lie in \[1, n_train\]"),
    ("slack_l1_net", {"n_train": 8, "batch_size": 9}, r"batch_size must lie in \[1, n_train\]"),
    ("exactness_1d", {"slope": 0.0}, "slope must be positive"),
])
def test_recipe_validation(kind, params, err):
    with pytest.raises(ValueError, match=err):
        make_recipe(kind, **params)


def test_integral_float_layer_widths_accepted():
    rec = make_slack_l1_net(layer_widths=(2.0, 8.0, 2), n_train=16, n_test=8, batch_size=8)
    assert rec.params["layer_widths"] == (2, 8, 2)
    assert rec.instance.dim_primal == 2 * 8 + 8 * 2 + 2
