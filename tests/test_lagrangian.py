import gc
import math
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sslalm import lagrangian
from sslalm.cli import RunConfig
from sslalm.core import (
    NoiseModel,
    OracleError,
    ProblemInstance,
    _all_finite,
    as_stochastic,
)
from sslalm.geometry import Ball, Box, WholeSpace
from sslalm.lagrangian import (
    NOISE_CHUNK,
    REGU_ZERO_TOL,
    SCHEDULE_KINDS,
    LagrangianState,
    SolverConfig,
    StepSchedule,
    _Driver,
    dual_step_ialm,
    dual_step_regu,
    run,
    track_correction,
)
from sslalm.methods import MethodConfig, method_step
from sslalm.problems import (
    ProblemRecipe,
    make_recipe,
    make_affine_l1,
    make_exactness_1d,
    make_slack_l1_net,
    make_stochastic_affine,
)
from reference import stepsize
from helpers import (
    method_displacement_bound,
    perturbed_instance,
    state_distance,
    step_sizes,
    token_bytes,
)

# a deterministic problem's step tokens: (objective, tracker pair, Jacobian)
NO_TOKENS = (None, None, None)


def scalar_problem(objective=None, subgrad=None, fset=None):
    """1-d instance with constraint c(x) = x."""
    objective = objective or (lambda x: 0.0)
    subgrad = subgrad or (lambda x: np.zeros(1))
    return ProblemInstance(
        dim_primal=1,
        dim_constraint=1,
        objective=objective,
        objective_subgradient=subgrad,
        constraint=lambda x: x.copy(),
        constraint_jacobian=lambda x: np.array([[1.0]]),
        feasible_set=fset or WholeSpace(1),
    )


class TestStepSchedule:
    def test_constant(self):
        s = StepSchedule("constant", 0.3)
        assert s(0) == s(100) == 0.3

    def test_inv_sqrt_epoch(self):
        s = StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=5)
        assert s(0) == pytest.approx(0.1)
        assert s(4) == pytest.approx(0.1)
        assert s(5) == pytest.approx(0.1 / np.sqrt(2))
        assert s(14) == pytest.approx(0.1 / np.sqrt(3))

    def test_power(self):
        s = StepSchedule("power", 1.0, exponent=0.75)
        assert s(0) == pytest.approx(1.0)
        assert s(15) == pytest.approx(16.0**-0.75)

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            StepSchedule("power", 1.0, exponent=0.5)
        with pytest.raises(ValueError):
            StepSchedule("power", 1.0, exponent=1.5)

    def test_max_value(self):
        assert StepSchedule("inv_sqrt_epoch", 0.7).max_value == 0.7

    def test_fractional_epoch_len_rejected(self):
        with pytest.raises(ValueError, match="epoch_len must be an integer"):
            StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=2.5)
        # an integral float keeps whole epochs
        s = StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=2.0)
        assert s(3) == StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=2)(3)

    @settings(max_examples=500, deadline=None)
    @given(
        kind=st.sampled_from(sorted(SCHEDULE_KINDS)),
        c=st.floats(0.0, 1e6),
        epoch_len=st.integers(1, 100) | st.integers(1, 10**9),
        exponent=st.floats(0.5, 1.0, exclude_min=True),
        k0=st.integers(0, 10**9),
        rows=st.integers(1, NOISE_CHUNK),
    )
    def test_block_equals_the_schedule_bitwise(self, kind, c, epoch_len, exponent, k0, rows):
        # run() takes a block's step sizes from block(), and schedule(k) reads
        # it too; each must be the restated schedule's float at its k, bit for bit
        s = StepSchedule(kind, c, epoch_len, exponent)
        block = s.block(k0, rows)
        assert all(type(v) is float for v in block)
        expected = [stepsize(s, k) for k in range(k0, k0 + rows)]
        assert np.array(block).tobytes() == np.array(expected).tobytes()


def regu(w):
    """The regu direction, read off the dual step: from ``lam = 0`` with
    ``theta = 0.5`` and ``beta = 1`` the step is ``0.5 * regu(w)``."""
    w = np.asarray(w, dtype=np.float64)
    return 2.0 * dual_step_regu(np.zeros_like(w), w, 0.5, 1.0)


class TestRegu:
    def test_zero_maps_to_zero(self):
        assert np.array_equal(regu(np.zeros(2)), np.zeros(2))

    def test_normalization(self):
        assert regu(np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])

    def test_below_zero_tol_maps_to_zero(self):
        assert np.array_equal(regu(np.array([1e-18, 0.0])), np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))
    def test_output_norm_is_zero_or_one(self, vals):
        nrm = np.linalg.norm(regu(np.array(vals)))
        assert nrm == 0.0 or nrm == pytest.approx(1.0, abs=1e-12)


class TestVectorHelpers:
    vectors = st.lists(
        st.floats(allow_nan=True, allow_infinity=True), min_size=0, max_size=40
    )

    @settings(max_examples=500, deadline=None)
    @given(vectors)
    def test_norm_matches_numpy_bitwise(self, vals):
        # the driver's norms are sqrt(v.dot(v)), held to np.linalg.norm's bits
        v = np.array(vals, dtype=np.float64)
        with np.errstate(over="ignore"):
            expected = float(np.linalg.norm(v))
            got = math.sqrt(v.dot(v))
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(vectors)
    def test_all_finite_matches_isfinite(self, vals):
        v = np.array(vals, dtype=np.float64)
        with np.errstate(over="ignore"):
            assert _all_finite(v) == bool(np.isfinite(v).all())


class TestDualStepRegu:
    def test_hand_value(self):
        lam = dual_step_regu(np.zeros(2), np.array([3.0, 4.0]), 0.5, 1.0)
        assert lam == pytest.approx([0.3, 0.4])

    def test_pure_decay_when_w_zero(self):
        lam = dual_step_regu(np.array([1.0, 0.0]), np.zeros(2), 0.5, 1.0)
        assert lam == pytest.approx([0.5, 0.0])

    def test_contraction_toward_ball(self):
        lam = dual_step_regu(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 0.5, 1.0)
        assert np.linalg.norm(lam) <= 1.5 + 1e-12

    def test_rejects_theta_at_beta(self):
        with pytest.raises(ValueError):
            dual_step_regu(np.zeros(1), np.zeros(1), 1.0, 1.0)

    @pytest.mark.parametrize(
        "w", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 1.0], [-np.inf, 0.0], [np.inf, -np.inf]]
    )
    def test_nonfinite_tracker_value_matches_regu_bitwise(self, w):
        # the step normalizes w by its norm unless the norm is at most 1e-14: a
        # NaN w has a NaN norm and gives a NaN step, not the zero direction of a
        # short w
        lam, w = np.array([0.3, -0.2]), np.array(w)
        with np.errstate(invalid="ignore"):
            nrm = np.linalg.norm(w)
            u = np.zeros_like(w) if nrm <= 1e-14 else w / nrm
            expected = lam + 0.5 * (u - lam / 2.0)
            got = dual_step_regu(lam, w, 0.5, 2.0)
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got).any()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=2),
        st.lists(st.floats(-10, 10), min_size=2, max_size=2),
        st.floats(0.0, 0.99),
        st.floats(0.2, 5.0),
    )
    def test_contraction_inequality(self, lam, w, frac, beta):
        theta = frac * beta
        lam = np.array(lam)
        nxt = dual_step_regu(lam, np.array(w), theta, beta)
        lhs = np.linalg.norm(nxt) - beta
        rhs = (1.0 - theta / beta) * (np.linalg.norm(lam) - beta)
        assert lhs <= rhs + 1e-12


class TestDualStepIalm:
    def test_hand_value(self):
        lam = dual_step_ialm(np.zeros(1), np.array([0.5]), 1.0, 10.0, 2.0, 0)
        assert lam == pytest.approx([1.0])  # min(1/0.5, 10) = 2

    def test_zero_constraint_is_noop(self):
        lam0 = np.array([0.7])
        lam = dual_step_ialm(lam0, np.zeros(1), 1.0, 10.0, 2.0, 3)
        assert np.array_equal(lam, lam0)

    def test_min_saturates_at_large_k(self):
        c = np.array([0.5])
        for k in [10, 100, 10000]:
            lam = dual_step_ialm(np.zeros(1), c, 1.0, 10.0, 2.0, k)
            assert lam == pytest.approx([1.0])  # theta~/||c|| = 2 wins

    @pytest.mark.parametrize("args", [(-1.0, 1.0, 2.0), (0.0, 1.0, 2.0), (1.0, 0.0, 2.0),
                                      (1.0, 1.0, 1.0), (math.nan, 1.0, 2.0)])
    def test_rejects_what_the_config_rejects(self, args):
        # a negative theta~ would step against c; SolverConfig's message
        with pytest.raises(ValueError, match="ialm dual requires beta_tilde > 0, sigma > 1, "
                                             "theta_tilde > 0"):
            dual_step_ialm(np.zeros(2), np.ones(2), *args, 0)


class TestTrackers:
    def test_exact_matches_constraint_bitwise(self):
        # the exact tracker holds c(x) of the new iterate, bit for bit
        prob = scalar_problem(subgrad=lambda x: np.sin(3.0 * x) + 0.1)
        cfg = SolverConfig(rho=0.3, noise=NoiseModel("uniform_box", 0.1), max_iters=10)
        driver = _Driver(prob, cfg)
        rng = np.random.default_rng(0)
        state = LagrangianState(x=np.array([0.37]), y=np.zeros(0), lam=np.zeros(1),
                                w=np.array([0.37]))
        for _ in range(10):
            x_prev = state.x
            state, err = driver.step(state, NO_TOKENS, cfg.noise.draw(rng, 1),
                                     *step_sizes(cfg, state.k))
            assert err is None
            assert not np.array_equal(state.x, x_prev)
            assert np.array_equal(state.w, prob.constraint(state.x))

    def test_correction_hand_value(self):
        w = track_correction(np.array([1.0]), np.array([0.8]), np.array([0.9]), 1.0, 0.1)
        assert w == pytest.approx([1.08])

    def test_correction_fixed_point(self):
        c = np.array([0.4])
        w = track_correction(c, c, c, 1.0, 0.3)
        assert w == pytest.approx(c)

    def test_correction_rejects_large_step(self):
        with pytest.raises(ValueError):
            track_correction(np.zeros(1), np.zeros(1), np.zeros(1), 2.0, 0.6)

    @pytest.mark.parametrize(
        "tau_tilde, eta, message",
        [(-5.0, 0.1, "tau_tilde must be positive"), (0.0, 0.1, "tau_tilde must be positive"),
         (math.nan, 0.1, "tau_tilde must be positive"), (1.0, -0.1, "stepsize must be positive"),
         (1.0, 0.0, "stepsize must be positive"), (1.0, math.nan, "stepsize must be positive")],
    )
    def test_correction_rejects_what_the_config_rejects(self, tau_tilde, eta, message):
        # tau~ * eta <= 1 alone let tau~ = -5 move w away from C(x), to [1.5, 1.5]
        with pytest.raises(ValueError, match=message):
            track_correction(np.ones(2), np.zeros(2), np.zeros(2), tau_tilde, eta)

    def test_long_run_mean_tracks_constant(self):
        # stationary point, zero-mean noise, 1e5 steps at eta = 0.01
        rng = np.random.default_rng(0)
        c = np.array([0.7])
        w = np.array([2.0])
        total = np.zeros(1)
        steps = 100000
        for _ in range(steps):
            noise = rng.uniform(-0.5, 0.5, 1)
            w = track_correction(w, c + noise, c + noise, 1.0, 0.01)
            total += w
        assert abs(total[0] / steps - c[0]) <= 0.01


# The three updates of the dual side compute entry by entry on Python floats;
# each is held here to its numpy formula, written out.

# one entry of a float64 array: finite of any magnitude, +-0, +-inf or NaN
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# entries of at most 1e-15: a vector of up to 16 of them has a norm of at most
# REGU_ZERO_TOL, the zero-norm branch of both dual steps
TINY_FLOAT = st.floats(-1e-15, 1e-15)
CONSTRAINT_DIM = st.integers(1, 16)
VECTOR_SHAPES = CONSTRAINT_DIM.map(lambda p: (p,))
POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


def float_arrays(shape):
    """float64 arrays of ``shape``, their entries all drawn from ``ANY_FLOAT``
    or all from ``TINY_FLOAT``."""
    return st.sampled_from([ANY_FLOAT, TINY_FLOAT]).flatmap(
        lambda entries: hnp.arrays(np.float64, shape, elements=entries))


def same_vectors(count, shapes=VECTOR_SHAPES):
    """``count`` arrays of one shape drawn from ``shapes``."""
    return shapes.flatmap(lambda shape: st.tuples(*[float_arrays(shape)] * count))


def assert_same_bits(got, expected):
    """``got`` is ``expected`` bit for bit, save a NaN's sign and payload: where a
    NaN input meets a NaN that the formula makes, IEEE 754 leaves open which of
    the two comes out, and numpy's loops and Python's floats may pick another."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.isnan(got).tolist() == np.isnan(expected).tolist()
    assert (np.where(np.isnan(got), np.nan, got).tobytes()
            == np.where(np.isnan(expected), np.nan, expected).tobytes())


class TestDualSideFormulas:
    @settings(max_examples=500, deadline=None)
    @given(same_vectors(2), st.floats(0.0, 1.0, exclude_max=True), POSITIVE)
    def test_regu_step_is_its_numpy_formula_bitwise(self, vectors, frac, beta):
        (lam, w), theta = vectors, frac * beta
        assume(theta < beta)
        with np.errstate(all="ignore"):
            nrm = np.linalg.norm(w)
            u = np.zeros_like(w) if nrm <= REGU_ZERO_TOL else w / nrm
            expected = lam + theta * (u - lam / beta)
            got = dual_step_regu(lam, w, theta, beta)
        assert_same_bits(got, expected)

    @settings(max_examples=500, deadline=None)
    @given(same_vectors(3, VECTOR_SHAPES | st.tuples(st.integers(1, 4), CONSTRAINT_DIM)),
           POSITIVE, POSITIVE)
    def test_correction_tracker_is_its_numpy_formula_bitwise(self, arrays, tau_tilde, eta):
        # one constraint vector or a (B, p) stack of them
        w, c, c_next = arrays
        assume(tau_tilde * eta <= 1.0)
        with np.errstate(all="ignore"):
            expected = w - tau_tilde * eta * (w - c) + c_next - c
            got = track_correction(w, c, c_next, tau_tilde, eta)
        assert_same_bits(got, expected)

    @settings(max_examples=500, deadline=None)
    @given(same_vectors(2), POSITIVE, POSITIVE, st.floats(1.0, 1e300, exclude_min=True),
           st.integers(0, 10**6))
    def test_ialm_step_is_its_numpy_formula_bitwise(self, vectors, theta_tilde, beta_tilde,
                                                     sigma, k):
        lam, c = vectors
        with np.errstate(all="ignore"):
            nrm = np.linalg.norm(c)
            if nrm <= REGU_ZERO_TOL:
                expected = lam
            else:
                cap = math.inf if k * math.log(sigma) > 700.0 else beta_tilde * sigma**k
                expected = lam + min(theta_tilde / nrm, cap) * c
            got = dual_step_ialm(lam, c, theta_tilde, beta_tilde, sigma, k)
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("scalar", [np.float32, np.float16])
    def test_numpy_scalars_meet_the_vectors_as_in_numpy(self, scalar):
        # numpy takes a float32 scalar into a float64 array's arithmetic, where a
        # Python float would meet it in float32
        lam, w, c = np.array([0.1, -0.2]), np.array([0.3, 0.7]), np.array([0.5, 0.25])
        theta, beta, tau_tilde, eta, theta_tilde, beta_tilde = map(
            scalar, (0.3, 2.0, 1.1, 0.3, 0.7, 3.0))
        pairs = [
            (dual_step_regu(lam, w, theta, beta),
             lam + theta * (w / np.linalg.norm(w) - lam / beta)),
            (track_correction(w, c, lam, tau_tilde, eta),
             w - tau_tilde * eta * (w - c) + lam - c),
            (dual_step_ialm(lam, c, theta_tilde, beta_tilde, 2.0, 3),
             lam + min(theta_tilde / float(np.linalg.norm(c)), beta_tilde * 2.0**3) * c),
        ]
        for got, expected in pairs:
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("update, message", [
        # each once broadcast to the longer input, or truncated to the shorter
        pytest.param(lambda: dual_step_regu(np.zeros(1), np.array([3.0, 4.0, 0.0]), 0.5, 1.0),
                     r"got shapes \(1,\) and \(3,\)$", id="regu-lengths"),
        pytest.param(lambda: dual_step_regu(np.zeros((1, 2)), np.ones((1, 2)), 0.5, 1.0),
                     r"got shapes \(1, 2\) and \(1, 2\)$", id="regu-stack"),
        pytest.param(lambda: track_correction(np.zeros(2), np.ones(1), np.ones(2), 1.0, 0.1),
                     r"got shapes \(2,\), \(1,\) and \(2,\)$", id="tracker-lengths"),
        pytest.param(lambda: track_correction(np.zeros((3, 2)), np.ones((3, 2)), np.ones(2),
                                              1.0, 0.1),
                     r"got shapes \(3, 2\), \(3, 2\) and \(2,\)$", id="tracker-stack"),
        pytest.param(lambda: dual_step_ialm(np.zeros(1), np.ones(3), 1.0, 1.0, 2.0, 0),
                     r"got shapes \(1,\) and \(3,\)$", id="ialm-lengths"),
        # the zero-norm branch returns lam: it is checked all the same
        pytest.param(lambda: dual_step_ialm(np.zeros(1), np.zeros(3), 1.0, 1.0, 2.0, 0),
                     r"got shapes \(1,\) and \(3,\)$", id="ialm-zero-norm"),
        pytest.param(lambda: dual_step_ialm(np.zeros(()), np.ones(()), 1.0, 1.0, 2.0, 0),
                     r"got shapes \(\) and \(\)$", id="ialm-scalar"),
    ])
    def test_mismatched_shapes_rejected(self, update, message):
        with pytest.raises(ValueError, match=message):
            update()


ETA_01 = StepSchedule("constant", 0.1)


class TestDriverStep:
    def test_hand_computed_chain(self):
        prob = scalar_problem()
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=0.0,
            beta=1.0,
            theta=StepSchedule("constant", 0.5),
            eta=ETA_01,
            max_iters=1,
        )
        state = LagrangianState(
            x=np.array([1.0]),
            y=np.zeros(0),
            lam=np.array([0.5]),
            w=np.array([1.0]),
        )
        driver = _Driver(prob, cfg)
        nxt, err = driver.step(state, NO_TOKENS, None, *step_sizes(cfg, 0))
        rec, = driver.metrics([nxt], 1e-3)
        assert err is None
        assert nxt.x == pytest.approx([0.95])
        assert nxt.w == pytest.approx([0.95])
        assert nxt.lam == pytest.approx([0.75])
        assert rec.k == 1

    def test_feasible_stationary_point_is_fixed(self):
        prob = scalar_problem(
            objective=lambda x: float(np.abs(x[0])), subgrad=lambda x: np.sign(x)
        )
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), beta=1.0, theta=StepSchedule("constant", 0.5),
            eta=ETA_01, max_iters=1,
        )
        res = run(prob, cfg, x0=np.zeros(1))
        assert not res.aborted and res.state.k == 1
        assert np.array_equal(res.state.x, np.zeros(1))
        assert np.array_equal(res.state.lam, np.zeros(1))

    def test_dual_consumes_new_tracker_value(self):
        # the multiplier step must see w_{k+1}, whose sign differs from w_k here
        prob = scalar_problem()
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), rho=0.0, beta=1.0,
            theta=StepSchedule("constant", 0.5), eta=ETA_01, max_iters=1,
        )
        state = LagrangianState(
            x=np.array([0.1]),
            y=np.zeros(0),
            lam=np.array([5.0]),
            w=np.array([0.1]),
        )
        nxt, err = _Driver(prob, cfg).step(state, NO_TOKENS, None, *step_sizes(cfg, 0))
        assert err is None
        # x+ = 0.1 - 0.1*5 = -0.4, regu(w+) = -1: lam+ = 5 + 0.5*(-1 - 5) = 2
        # consuming the stale w would have given 5 + 0.5*(1 - 5) = 3
        assert nxt.x == pytest.approx([-0.4])
        assert nxt.lam == pytest.approx([2.0])
        # slack (2 - 1) - (1 - 0.5)*(5 - 1) = -1; the excess counts only once a
        # step has started inside the ball, which an excess already set records
        assert (nxt.slack, nxt.excess) == (-1.0, -np.inf)
        nxt, _ = _Driver(prob, cfg).step(state._replace(excess=0.0), NO_TOKENS, None,
                                         *step_sizes(cfg, 0))
        assert (nxt.slack, nxt.excess) == (-1.0, 1.0)

    @pytest.mark.parametrize("dual", ["regu", "ialm"])
    def test_stepping_a_state_twice_gives_the_same_state(self, dual):
        # the dual bookkeeping rides in the state, so a step is a function of
        # its state: the second steps from s0 and s1 miss the driver's ||lam||
        # memo, and the first step's slack is that step's own
        rec = make_stochastic_affine(n=4, p=2, seed=1)
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgdm", alpha=0.2), rho=0.5, beta=1.0,
                           theta=StepSchedule("constant", 0.5), eta=ETA_01,
                           tracker="correction", dual=dual,
                           noise=NoiseModel("uniform_box", 0.1), max_iters=2)
        driver = _Driver(rec.instance, cfg)
        obj_gen, con_gen = (np.random.default_rng(s) for s in (1, 2))
        s0 = driver.initial_state(rec.start, con_gen)
        tokens = driver.draw_tokens(obj_gen, con_gen, 2)
        noise = cfg.noise.draw(np.random.default_rng(3), (2, driver.n))
        s1, _ = driver.step(s0, tokens[0], noise[0], *step_sizes(cfg, 0))
        s2, _ = driver.step(s1, tokens[1], noise[1], *step_sizes(cfg, 1))
        assert _bits(driver.step(s0, tokens[0], noise[0], *step_sizes(cfg, 0))[0]) == _bits(s1)
        again, reason = driver.step(s1, tokens[1], noise[1], *step_sizes(cfg, 1))
        assert reason is None and again.k == 2
        assert _bits(again) == _bits(s2)
        if dual == "regu":
            assert np.isfinite([s2.slack, s2.excess]).all()
        else:
            assert s2.slack == s2.excess == -np.inf

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dot_equals_matmul_bitwise(self, order):
        # the step forms J @ v as J.dot(v), and the affine recipes their
        # constraint products the same way; tests/reference.py writes @
        rng = np.random.default_rng(3)
        for _ in range(500):
            n, p = (int(v) for v in rng.integers(1, 40, 2))
            J = np.asarray(rng.standard_normal((n, p)), order=order)
            v = rng.standard_normal(p)
            assert J.dot(v).tobytes() == (J @ v).tobytes()


class TestRun:
    def test_finished_runs_free_their_problem_without_the_cyclic_collector(self):
        # a driver in a reference cycle would keep its problem, and the net's
        # full-batch cache, alive until a full collection
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        inst = weakref.ref(rec.instance)
        gc.collect()
        gc.disable()
        try:
            results = [
                run(rec.instance, SolverConfig(method=MethodConfig(kind=kind, alpha=0.2),
                                               max_iters=5), x0=rec.start, record_every=2)
                for kind in ("prox_sgdm", "prox_adam")
            ]
            assert all(r.final.lyapunov is not None for r in results)
            del rec, results
            assert inst() is None
        finally:
            gc.enable()

    def test_state_is_immutable(self):
        rec = make_affine_l1(n=3, p=1, seed=0)
        res = run(rec.instance, SolverConfig(max_iters=3), x0=rec.start)
        for name in ("x", "y", "lam", "w", "k"):
            with pytest.raises(AttributeError):
                setattr(res.state, name, getattr(res.state, name))
        assert res.state.k == 3

    def test_zero_iterations_records_initial_metrics(self):
        rec = make_affine_l1(n=3, p=1, seed=0)
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), max_iters=0)
        res = run(rec.instance, cfg, x0=rec.start)
        assert len(res.records) == 1
        assert res.records[0].k == 0
        assert not res.aborted

    def test_same_seed_bitwise_identical(self):
        rec = make_affine_l1(n=4, p=2, seed=5)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgdm", alpha=0.2),
            rho=1.0, beta=2.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.5),
            noise=NoiseModel("uniform_box", 0.1, seed=0),
            max_iters=500, seed=42,
        )
        a = run(rec.instance, cfg, x0=rec.start, record_every=50)
        b = run(rec.instance, cfg, x0=rec.start, record_every=50)
        assert [r.to_json_line() for r in a.records] == [r.to_json_line() for r in b.records]
        assert np.array_equal(a.state.x, b.state.x)
        assert np.array_equal(a.state.lam, b.state.lam)

    def test_degenerates_to_prox_subgradient_descent(self):
        # rho = 0, lambda0 = 0, theta = 0, exact tracker: the driver must equal
        # the bare projected subgradient recursion bitwise
        rec = make_affine_l1(n=4, p=2, seed=7)
        prob = rec.instance
        noise = NoiseModel("uniform_box", 0.2, seed=0)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=0.0, beta=1.0,
            theta=StepSchedule("constant", 0.0),
            eta=StepSchedule("inv_sqrt_epoch", 0.3),
            noise=noise,
            max_iters=200, seed=9,
        )
        res = run(prob, cfg, x0=rec.start, record_every=200)
        rng = np.random.default_rng(9)
        fset = prob.feasible_set
        J = prob.constraint_jacobian(rec.start)
        x = fset.project(rec.start)
        for k in range(200):
            d = prob.objective_subgradient(x)
            ell = d + J @ np.zeros(2) + noise.draw(rng, 4)
            x = fset.project(x - cfg.eta(k) * ell)
        assert np.array_equal(res.state.x, x)
        assert np.array_equal(res.state.lam, np.zeros(2))

    def test_dual_bound_and_contraction_tracked(self):
        rec = make_affine_l1(n=5, p=2, seed=2)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=1.0, beta=2.0,
            theta=StepSchedule("constant", 1.0),
            eta=StepSchedule("inv_sqrt_epoch", 0.3),
            noise=NoiseModel("uniform_box", 0.1, seed=1),
            max_iters=2000, seed=3,
        )
        res = run(rec.instance, cfg, x0=rec.start, record_every=500)
        assert res.max_contraction_slack <= 1e-12
        assert res.max_dual_excess <= 1e-9
        _check_bookkeeping_read_from_state(res)
        for r in res.records:
            assert r.lambda_norm <= cfg.beta + 1e-9

    def test_exact_tracker_zero_error_bitwise(self):
        rec = make_affine_l1(n=3, p=1, seed=1)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), rho=0.5, beta=1.0,
            eta=StepSchedule("inv_sqrt_epoch", 0.2), max_iters=300,
        )
        res = run(rec.instance, cfg, x0=rec.start, record_every=30)
        for r in res.records:
            assert r.tracker_err == 0.0

    @pytest.mark.parametrize(
        "subgrad, eta, reason",
        [
            (np.inf, 0.1, "non-finite primal direction"),
            (np.nan, 0.1, "non-finite primal direction"),
            # a finite direction whose step overflows x
            (1e308, 10.0, "non-finite state"),
        ],
    )
    def test_abort_on_nonfinite_keeps_partial_trajectory(self, subgrad, eta, reason):
        prob = scalar_problem(subgrad=lambda x: np.array([subgrad]))
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), eta=StepSchedule("constant", eta), max_iters=50,
        )
        res = run(prob, cfg, x0=np.zeros(1), kkt_probe=None)
        assert res.aborted
        assert res.abort_reason == reason
        assert len(res.records) == 1
        assert res.state.k == 0 and np.array_equal(res.state.x, np.zeros(1))

    def test_abort_on_overflowing_trajectory(self):
        # finite oracles whose runaway feedback overflows the run mid-way;
        # the partial trajectory survives, with only the last record blown up
        prob = scalar_problem(subgrad=lambda x: -1e4 * x)
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01, max_iters=500)
        res = run(prob, cfg, x0=np.ones(1), kkt_probe=None, record_every=5)
        assert res.aborted
        assert res.abort_reason == "non-finite metrics"
        assert len(res.records) >= 2
        assert all(np.isfinite(r.feas) for r in res.records[:-1])
        assert not np.isfinite(res.records[-1].feas)

    @pytest.mark.parametrize(
        "method",
        [MethodConfig("prox_sgdm", tau=1e12), MethodConfig("prox_adam", tau1=1e12, tau2=1.0)],
        ids=lambda m: m.kind,
    )
    def test_overflowing_auxiliary_block_aborts_without_warning(self, method):
        # tau * eta = 1e12 overflows the auxiliary block while the projected point
        # stays finite; the next step's inf - inf gives a NaN point, and the run
        # stops there with a named reason and no numpy warning
        rec = make_affine_l1(n=4, p=2, seed=1)
        cfg = SolverConfig(method=method, eta=StepSchedule("constant", 1.0), max_iters=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(rec.instance, cfg, x0=rec.start, kkt_probe=None)
        assert res.abort_reason == "non-finite state"
        assert 0 < res.state.k < 60
        assert np.isfinite(res.state.y).all()

    @pytest.mark.parametrize("tracker", ["exact", "correction"])
    def test_nonfinite_constraint_aborts_keeping_trajectory(self, tracker):
        # the constraint oracle turns non-finite after 20 calls: the run stops
        # on the last finite state instead of raising
        prob = counting_constraint_problem(lambda x, calls: x.copy() if calls <= 20 else np.array([np.inf]))
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), rho=0.5, eta=ETA_01,
            tracker=tracker, max_iters=100,
        )
        # the tracker sees inf - inf, which run() keeps silent
        res = run(prob, cfg, x0=np.array([0.5]), record_every=1000 if tracker == "correction" else 5)
        assert res.aborted
        assert res.abort_reason == "non-finite state"
        assert 0 < res.state.k < 100
        assert len(res.records) >= 1
        assert np.isfinite(res.state.w).all() and np.isfinite(res.state.lam).all()

    @pytest.mark.parametrize("tracker, k", [("exact", 19), ("correction", 9)])
    def test_nan_tracker_value_aborts_the_regu_step_that_takes_it(self, tracker, k):
        # the constraint oracle returns NaN from its 21st call on: under the exact
        # tracker the step from k = 19 (one call for w0, then one per step), under
        # the correction tracker the step from k = 9 (one call for w0, one for
        # the first record, then two per step). The NaN tracker value makes the
        # regu multiplier NaN, so that step aborts; a zero direction in its place
        # would let the NaN w through, to abort the next step's direction
        prob = counting_constraint_problem(
            lambda x, calls: x.copy() if calls <= 20 else np.array([np.nan]))
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), rho=0.5, eta=ETA_01,
                           tracker=tracker, max_iters=100)
        res = run(prob, cfg, x0=np.array([0.5]), record_every=1000)
        assert (res.abort_reason, res.state.k) == ("non-finite state", k)
        assert np.isfinite(res.state.w).all() and np.isfinite(res.state.lam).all()

    @pytest.mark.parametrize("tracker", ["exact", "correction"])
    def test_nonfinite_objective_aborts_keeping_records(self, tracker):
        # only records call the objective; it returns inf at the point the run
        # reaches at k = 30, the record of k = 30
        base = scalar_problem(objective=lambda x: float(x[0]),
                              fset=Box(np.array([-1.0]), np.array([1.0])))
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), eta=ETA_01, tracker=tracker, max_iters=100,
        )
        x30 = run(base, replace(cfg, max_iters=30), x0=np.array([0.5])).state.x
        prob = _failing(base, objective_at=x30)
        res = run(prob, cfg, x0=np.array([0.5]), record_every=10)
        assert res.aborted
        assert res.abort_reason == "non-finite metrics"
        assert [r.k for r in res.records] == [0, 10, 20]
        assert res.state.k == 30
        assert all(np.isfinite(r.f_val) for r in res.records)

    def test_nonfinite_objective_at_start_raises(self):
        # without a first record there is no trajectory to keep
        prob = scalar_problem(objective=lambda x: float("nan"))
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01, max_iters=10)
        with pytest.raises(OracleError, match="objective oracle returned a non-finite value"):
            run(prob, cfg, x0=np.array([0.5]))

    @pytest.mark.parametrize(
        "tracker, sampled",
        [("exact", False), ("correction", False), ("correction", True)],
        ids=["exact", "correction", "correction-sampled"],
    )
    def test_misshapen_constraint_still_raises(self, tracker, sampled):
        # the sampled case changes the shape of the constraint samples the
        # correction tracker takes
        prob = counting_constraint_problem(lambda x, calls: x.copy() if calls <= 20 else np.zeros(2))
        if sampled:
            prob = as_stochastic(prob)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), eta=ETA_01, tracker=tracker, max_iters=100,
        )
        with pytest.raises(ValueError, match="constraint value has dimension 2"):
            run(prob, cfg, x0=np.array([0.5]), record_every=1000)

    @pytest.mark.parametrize("sampled", [False, True], ids=["deterministic", "sampled"])
    @pytest.mark.parametrize("oracle", ["subgradient", "jacobian"])
    def test_misshapen_step_oracle_raises(self, sampled, oracle):
        # a shape-(1,) subgradient or a (1, p) Jacobian would broadcast into
        # the direction; without the KKT probe no record looks at either
        name = {"subgradient": "objective_subgradient", "jacobian": "constraint_jacobian"}[oracle]
        if sampled:
            inst = make_stochastic_affine(n=3, p=2, noise_scale=0.1, seed=1).instance
            name += "_sample"
            clipped = lambda x, tok, f=getattr(inst, name): f(x, tok)[:1]  # noqa: E731
        else:
            inst = make_affine_l1(n=3, p=2, seed=1).instance
            clipped = lambda x, f=getattr(inst, name): f(x)[:1]  # noqa: E731
        prob = replace(inst, **{name: clipped})
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01, max_iters=5)
        error, message = {
            "subgradient": (ValueError, "subgradient has dimension 1, expected 3"),
            "jacobian": (OracleError, r"jacobian oracle returned shape \(1, 2\), expected \(3, 2\)"),
        }[oracle]
        with pytest.raises(error, match=message):
            run(prob, cfg, kkt_probe=None)

    @pytest.mark.parametrize("oracle", ["draw_objective_sample", "draw_constraint_sample"])
    def test_draw_of_the_wrong_token_count_raises(self, oracle):
        # a draw that ignores its count would hand one token's numbers out
        # as the tokens of several steps
        inst = make_stochastic_affine(n=3, p=2, noise_scale=0.1, seed=1).instance
        prob = replace(inst, **{oracle: lambda gen, size, f=getattr(inst, oracle): f(gen, 1)})
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01,
                           tracker="correction", max_iters=5)
        with pytest.raises(OracleError, match="sample draws returned"):
            run(prob, cfg, kkt_probe=None)

    @pytest.mark.parametrize("tracker, expected", [("exact", 5), ("correction", 1)])
    def test_empty_constraint_draw_raises_under_either_tracker(self, tracker, expected):
        # the correction tracker's first token, for C(x0), is a draw of one
        # that the count rule checks as it checks the step blocks
        inst = make_stochastic_affine(n=3, p=1, seed=1).instance
        prob = replace(inst, draw_constraint_sample=lambda gen, size: [])
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01,
                           tracker=tracker, max_iters=5)
        with pytest.raises(OracleError,
                           match=f"^sample draws returned 0 constraint tokens, expected {expected}$"):
            run(prob, cfg, kkt_probe=None)

    @pytest.mark.parametrize("tracker, k", [("exact", 19), ("correction", 9)])
    def test_nan_tracker_value_aborts_the_ialm_step_that_takes_it(self, tracker, k):
        # the calls as in the regu case above; the ialm dual checks the tracker
        # value itself, before its multiplier step
        prob = counting_constraint_problem(
            lambda x, calls: x.copy() if calls <= 20 else np.array([np.nan]))
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), rho=0.5, eta=ETA_01,
                           tracker=tracker, dual="ialm", max_iters=100)
        res = run(prob, cfg, x0=np.array([0.5]), record_every=1000)
        assert (res.abort_reason, res.state.k) == ("non-finite state", k)
        assert np.isfinite(res.state.w).all() and np.isfinite(res.state.lam).all()

    def test_misshapen_constraint_at_the_next_point_raises(self):
        # the third sampled constraint call is the first step's C(x_next): one
        # call for C(x0), then C(x) and C(x_next) on the step's shared token
        inst = make_stochastic_affine(n=3, p=2, noise_scale=0.1, seed=1).instance
        calls = [0]

        def constraint_sample(x, tok):
            calls[0] += 1
            c = inst.constraint_sample(x, tok)
            return c[:1] if calls[0] == 3 else c

        prob = replace(inst, constraint_sample=constraint_sample)
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01,
                           tracker="correction", max_iters=5)
        with pytest.raises(ValueError, match="^constraint value has dimension 1, expected 2$"):
            run(prob, cfg, kkt_probe=None)
        assert calls[0] == 3

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_nonpositive_record_every_rejected(self, record_every):
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01, max_iters=5)
        with pytest.raises(ValueError, match="^record_every must be >= 1$"):
            run(scalar_problem(), cfg, record_every=record_every)

    @pytest.mark.parametrize("tracker", ["exact", "correction"])
    def test_scalar_constraint_value_runs_as_a_one_vector(self, tracker):
        # a p = 1 constraint may return a Python float: the shape check turns
        # the 0-d value into the 1-vector the same problem returns as an array
        base = scalar_problem(objective=lambda x: abs(float(x[0]) - 0.75),
                              subgrad=lambda x: np.sign(x - 0.75),
                              fset=Box(np.array([-1.0]), np.array([1.0])))
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgdm"), rho=0.5, eta=ETA_01,
                           tracker=tracker, noise=NoiseModel("uniform_box", 0.1),
                           max_iters=300, seed=2)
        results = [run(replace(base, constraint=constraint), cfg, x0=np.array([0.5]),
                       record_every=7)
                   for constraint in (lambda x: np.array([x[0] - 0.25]),
                                      lambda x: float(x[0]) - 0.25)]
        array_res, float_res = results
        assert not float_res.aborted and float_res.state.k == cfg.max_iters
        assert ([r.to_json_line() for r in float_res.records]
                == [r.to_json_line() for r in array_res.records])
        assert _bits(float_res.state[:4]) == _bits(array_res.state[:4])

    def test_two_dimensional_x0_rejected(self):
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01, max_iters=5)
        with pytest.raises(ValueError, match=r"^x0 must be 1-d, got shape \(1, 1\)$"):
            run(scalar_problem(), cfg, x0=np.zeros((1, 1)))

    def test_overflowing_ialm_multiplier_leaves_regu_bookkeeping_unset(self):
        # huge ialm steps overflow lam on the second dual update (c(x) = x
        # keeps its sign on [0.5, 1]); the run aborts on that step and the
        # regu-only statistics stay undefined
        prob = scalar_problem(fset=Box(np.array([0.5]), np.array([1.0])))
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"), eta=ETA_01,
            dual="ialm", theta_tilde=1e308, beta_tilde=1e308, sigma=2.0, max_iters=10,
        )
        res = run(prob, cfg, x0=np.array([0.5]), record_every=1000, kkt_probe=None)
        assert res.aborted
        assert res.abort_reason == "non-finite state"
        assert res.state.k == 1
        assert np.isfinite(res.state.lam).all() and abs(res.state.lam[0]) > 1e307
        assert np.isnan(res.max_contraction_slack)
        assert np.isnan(res.max_dual_excess)

    def test_displacement_check_passes_on_clean_run(self, monkeypatch):
        # every step of the embedded method moves the state by at most
        # eta * method_displacement_bound
        rec = make_affine_l1(n=3, p=1, seed=3)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_adam", alpha=0.3),
            rho=0.5, beta=2.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.5),
            noise=NoiseModel("uniform_box", 0.1, seed=0),
            max_iters=300, seed=11,
        )
        moves = []

        def checked_step(fset, x, y, direction, eta, mc):
            x_next, y_next = method_step(fset, x, y, direction, eta, mc)
            bound = method_displacement_bound(mc, fset, direction, x, y)
            moves.append((state_distance(x_next, y_next, x, y), eta * bound))
            return x_next, y_next

        monkeypatch.setattr(lagrangian, "method_step", checked_step)
        res = run(rec.instance, cfg, x0=rec.start)
        assert not res.aborted
        assert len(moves) == cfg.max_iters
        assert all(moved <= limit + 1e-9 for moved, limit in moves)


# the failure-path fuzz: small shapes of every recipe, with its scales, and the
# solver's, drawn from 1e-12 to 1e12
FUZZ_RECIPES = {
    "affine_l1": ({"n": 4, "p": 2, "seed": 1}, ()),
    "stochastic_affine": ({"n": 4, "p": 2, "seed": 1}, ("noise_scale",)),
    "exactness_1d": ({}, ("slope",)),
    "slack_l1_net": ({"layer_widths": (2, 3, 2), "n_train": 8, "n_test": 4, "batch_size": 4},
                     ("radius", "init_scale")),
}
ABORT_REASONS = [None, "non-finite primal direction", "non-finite state", "non-finite metrics"]
# powers of ten, with the ends of the range and 1 favoured: the overflows need them
SCALE = st.one_of(st.sampled_from([1e-12, 1.0, 1e12]),
                  st.floats(-12.0, 12.0).map(lambda e: 10.0**e))


@st.composite
def fuzzed_solver_tables(draw):
    """SolverConfig keyword tables, not all of them valid: theta_max < beta,
    tau2 <= 4*tau1 and sigma > 1 are drawn to hold, the stepsize rules are not."""
    below = st.floats(-12.0, 0.0, exclude_max=True).map(lambda e: 10.0**e)

    def schedule(c):
        kind = draw(st.sampled_from(["constant", "inv_sqrt_epoch", "power"]))
        return StepSchedule(kind, c, epoch_len=draw(st.integers(1, 5)),
                            exponent=draw(st.floats(0.5, 1.0, exclude_min=True)))

    beta, tau1 = draw(SCALE), draw(SCALE)
    method = dict(tau=draw(SCALE), alpha=draw(SCALE), tau1=tau1, tau2=4.0 * tau1 * draw(below),
                  eps=draw(SCALE))
    dual = draw(st.sampled_from(["regu", "ialm"]))
    return dict(
        method=(draw(st.sampled_from(["prox_sgd", "prox_sgdm", "prox_adam"])), method),
        rho=draw(SCALE), beta=beta, theta=schedule(beta * draw(below)),
        eta=schedule(draw(SCALE)),
        tracker=draw(st.sampled_from(["exact", "correction"])), tau_tilde=draw(SCALE),
        dual=dual, beta_tilde=draw(SCALE), sigma=1.0 + draw(SCALE), theta_tilde=draw(SCALE),
        inner_steps=draw(st.integers(1, 4)) if dual == "ialm" else 1,
        noise=(draw(st.sampled_from(["none", "uniform_box", "truncated_gaussian"])), draw(SCALE)),
        # all 30 iterations favoured too, as a blow-up takes many steps
        max_iters=draw(st.one_of(st.just(30), st.integers(0, 30))),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=350, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(FUZZ_RECIPES)), scales=st.lists(SCALE, min_size=2, max_size=2),
       table=fuzzed_solver_tables(), record_every=st.integers(1, 30),
       kkt_probe=st.sampled_from([None, 1e-3]))
def test_accepted_config_finishes_or_aborts_with_a_named_reason(kind, scales, table, record_every,
                                                                 kkt_probe):
    # every config the library accepts runs without raising or warning
    params, scaled = FUZZ_RECIPES[kind]
    (method_kind, method), (noise_kind, bound) = table["method"], table["noise"]
    try:
        rec = make_recipe(kind, **params, **dict(zip(scaled, scales)))
        cfg = SolverConfig(**{**table, "method": MethodConfig(method_kind, **method),
                              "noise": NoiseModel(noise_kind, bound)})
    except ValueError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(rec.instance, cfg, x0=rec.start, record_every=record_every, kkt_probe=kkt_probe)
    assert res.abort_reason in ABORT_REASONS
    _check_bookkeeping_read_from_state(res)
    if cfg.dual == "ialm":
        assert res.state.slack == res.state.excess == -np.inf


def counting_constraint_problem(constraint):
    """1-d instance on [-1, 1] whose constraint oracle ``constraint(x, calls)``
    also sees how many times it has been called."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return constraint(x, calls[0])

    return ProblemInstance(
        dim_primal=1,
        dim_constraint=1,
        objective=lambda x: float(x[0]),
        objective_subgradient=lambda x: np.ones(1),
        constraint=counted,
        constraint_jacobian=lambda x: np.array([[1.0]]),
        feasible_set=Box(np.array([-1.0]), np.array([1.0])),
    )


class TestExpectationConstrained:
    @pytest.mark.parametrize("method", ["prox_sgd", "prox_sgdm", "prox_adam"])
    @pytest.mark.parametrize("dual", ["regu", "ialm"])
    @pytest.mark.parametrize("tracker", ["exact", "correction"])
    def test_degenerate_sampler_equals_deterministic_correction_run(self, tracker, dual, method):
        # a deterministic problem runs as its exact sampled wrapper, bit for bit
        rec = make_affine_l1(n=3, p=1, seed=4)
        prob = rec.instance
        cfg = SolverConfig(
            method=MethodConfig(kind=method, alpha=0.2),
            rho=0.2, beta=1.0,
            theta=StepSchedule("constant", 0.4),
            eta=StepSchedule("inv_sqrt_epoch", 0.2),
            tracker=tracker, tau_tilde=1.0, dual=dual,
            noise=NoiseModel("uniform_box", 0.1),
            max_iters=400, seed=6,
        )
        res_stoch = run(as_stochastic(prob), cfg, x0=rec.start, record_every=40)
        res_det = run(prob, cfg, x0=rec.start, record_every=40)
        lines_a = [r.to_json_line() for r in res_stoch.records]
        lines_b = [r.to_json_line() for r in res_det.records]
        assert lines_a == lines_b
        assert np.array_equal(res_stoch.state.x, res_det.state.x)

    def test_correction_on_deterministic_stays_near_exact_run(self):
        # with w0 = c(x0) the correction recursion reproduces the exact tracker
        # up to roundoff, so the two runs deviate at most at that scale
        rec = make_affine_l1(n=3, p=1, seed=4)
        prob = rec.instance
        base = dict(
            method=MethodConfig(kind="prox_sgd"), rho=0.2, beta=1.0,
            theta=StepSchedule("constant", 0.4),
            eta=StepSchedule("inv_sqrt_epoch", 0.2), max_iters=400, seed=6,
        )
        res_corr = run(prob, SolverConfig(tracker="correction", **base), x0=rec.start)
        res_exact = run(prob, SolverConfig(tracker="exact", **base), x0=rec.start)
        assert np.max(np.abs(res_corr.state.x - res_exact.state.x)) <= 1e-9
        assert max(r.tracker_err for r in res_corr.records) <= 1e-12

    def test_tracker_error_shrinks_on_stochastic_instance(self):
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.4, seed=8)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=0.1, beta=1.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=50),
            tracker="correction", tau_tilde=1.0,
            max_iters=20000, seed=1,
        )
        res = run(rec.instance, cfg, x0=rec.start, record_every=1, kkt_probe=None)
        errs = [r.tracker_err for r in res.records]
        head = np.mean(errs[1 : len(errs) // 10])
        tail = np.mean(errs[-len(errs) // 10 :])
        assert tail < head
        assert tail <= 0.1

    @staticmethod
    def _consumed_tokens(prob, **changes):
        """The objective tokens and the constraint tokens, as bytes in the order
        the oracles read them, of a sampled run past one token block."""
        read = {"objective": [], "constraint": []}

        def reading(source, oracle):
            def wrapped(x, tok):
                read[source].append(token_bytes(tok))
                return oracle(x, tok)
            return wrapped

        prob = replace(
            prob,
            objective_subgradient_sample=reading("objective", prob.objective_subgradient_sample),
            constraint_sample=reading("constraint", prob.constraint_sample),
            constraint_jacobian_sample=reading("constraint", prob.constraint_jacobian_sample),
        )
        settings = dict(method=MethodConfig(kind="prox_sgd"), rho=0.1, beta=1.0,
                        eta=StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=50),
                        tracker="correction", max_iters=lagrangian.NOISE_CHUNK + 40, seed=3)
        cfg = SolverConfig(**{**settings, **changes})
        res = run(prob, cfg, record_every=cfg.max_iters, kkt_probe=None)
        assert not res.aborted and len(read["objective"]) == cfg.max_iters
        return read

    @pytest.mark.parametrize("kind", ["stochastic_affine", "slack_l1_net"])
    def test_objective_tokens_independent_of_tracker_and_noise(self, kind):
        # each source has its own stream: which constraint tokens and which noise
        # a run draws does not shift its objective tokens
        params = {"slack_l1_net": dict(layer_widths=(2, 3, 2), n_train=16, n_test=8,
                                       batch_size=4)}.get(kind, {})
        prob = make_recipe(kind, **params).instance
        runs = [self._consumed_tokens(prob, tracker=tracker, noise=noise)
                for tracker in ("exact", "correction")
                for noise in (NoiseModel(), NoiseModel("uniform_box", 0.1))]
        assert all(r["objective"] == runs[0]["objective"] for r in runs[1:])

    def test_constraint_tokens_independent_of_noise(self):
        prob = make_stochastic_affine(n=5, p=2, noise_scale=0.5, seed=1).instance
        quiet = self._consumed_tokens(prob)
        noisy = self._consumed_tokens(prob, noise=NoiseModel("uniform_box", 0.1))
        # C(x0) on the first token, then per step the tracker pair's token
        # twice and the Jacobian's
        assert len(quiet["constraint"]) == 1 + 3 * (lagrangian.NOISE_CHUNK + 40)
        assert noisy["constraint"] == quiet["constraint"]

    def test_stochastic_run_deterministic_under_seed(self):
        rec = make_stochastic_affine(n=3, p=1, noise_scale=0.3, seed=2)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgdm", alpha=0.2),
            rho=0.1, beta=1.0,
            theta=StepSchedule("constant", 0.3),
            eta=StepSchedule("inv_sqrt_epoch", 0.1),
            tracker="correction",
            max_iters=300, seed=5,
        )
        a = run(rec.instance, cfg, x0=rec.start)
        b = run(rec.instance, cfg, x0=rec.start)
        assert [r.to_json_line() for r in a.records] == [r.to_json_line() for r in b.records]


AFFINE = {"kind": "affine_l1"}

# each library config field and recipe parameter that takes a float, built
# with one value; every other argument is valid
FLOAT_FIELDS = {
    "rho": lambda v: SolverConfig(rho=v),
    "beta": lambda v: SolverConfig(beta=v),
    "tau_tilde": lambda v: SolverConfig(tau_tilde=v),
    "beta_tilde": lambda v: SolverConfig(beta_tilde=v),
    "sigma": lambda v: SolverConfig(sigma=v),
    "theta_tilde": lambda v: SolverConfig(theta_tilde=v),
    "c": lambda v: StepSchedule("constant", v),
    "exponent": lambda v: StepSchedule("constant", 0.1, exponent=v),
    "tau": lambda v: MethodConfig(kind="prox_sgdm", tau=v),
    "alpha": lambda v: MethodConfig(kind="prox_sgdm", alpha=v),
    "tau1": lambda v: MethodConfig(kind="prox_adam", tau1=v),
    "tau2": lambda v: MethodConfig(kind="prox_adam", tau2=v),
    "eps": lambda v: MethodConfig(kind="prox_adam", eps=v),
    "bound": lambda v: NoiseModel("uniform_box", v),
    "kkt_probe": lambda v: RunConfig(AFFINE, kkt_probe=v),
    "radius": lambda v: make_slack_l1_net(radius=v),
    "init_scale": lambda v: make_slack_l1_net(init_scale=v),
    "noise_scale": lambda v: make_stochastic_affine(noise_scale=v),
    "slope": lambda v: make_exactness_1d(slope=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", list(FLOAT_FIELDS))
def test_nonfinite_number_rejected_naming_its_field(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        FLOAT_FIELDS[name](value)


@pytest.mark.parametrize("value", [True, "0.5"])
@pytest.mark.parametrize("name", list(FLOAT_FIELDS))
def test_non_number_rejected_naming_its_field(name, value):
    message = re.escape(f"{name} must be a number, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        FLOAT_FIELDS[name](value)


@pytest.mark.parametrize("value", [np.float64(0.75), np.int64(1)])
@pytest.mark.parametrize("name", list(FLOAT_FIELDS))
def test_numpy_number_accepted(name, value):
    made = FLOAT_FIELDS[name](value)
    # a config stores the value as a float, and a recipe its parameter
    stored = made.params[name] if isinstance(made, ProblemRecipe) else getattr(made, name)
    assert type(stored) is float and stored == value


# a small network recipe, whose integer parameters admit the value 5
SMALL_NET = dict(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=4)


def _net_param(name, value):
    return make_slack_l1_net(**{**SMALL_NET, name: value}).params[name]


# each library config field, recipe parameter and run() argument that takes an
# int, built with one value: a config or recipe maker returns the value as
# stored, the run the step of its second record
INT_FIELDS = {
    "max_iters": ("max_iters", lambda v: SolverConfig(max_iters=v).max_iters),
    "seed": ("seed", lambda v: SolverConfig(seed=v).seed),
    "inner_steps": ("inner_steps", lambda v: SolverConfig(dual="ialm", inner_steps=v).inner_steps),
    "epoch_len": ("epoch_len", lambda v: StepSchedule("constant", 0.1, epoch_len=v).epoch_len),
    "noise.seed": ("seed", lambda v: NoiseModel("uniform_box", 0.1, v).seed),
    "record_every": ("record_every", lambda v: RunConfig(AFFINE, record_every=v).record_every),
    "repetitions": ("repetitions", lambda v: RunConfig(AFFINE, repetitions=v).repetitions),
    "run.record_every": (
        "record_every",
        lambda v: run(scalar_problem(), SolverConfig(max_iters=5), record_every=v).records[1].k,
    ),
    "problem.n": ("n", lambda v: make_affine_l1(n=v).params["n"]),
    "problem.p": ("p", lambda v: make_affine_l1(p=v).params["p"]),
    "problem.seed": ("seed", lambda v: make_affine_l1(seed=v).params["seed"]),
    **{
        f"problem.{name}": (name, lambda v, name=name: _net_param(name, v))
        for name in ("dataset_seed", "n_train", "n_test", "batch_size")
    },
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field_id", list(INT_FIELDS))
def test_non_integer_rejected_naming_its_field(field_id, value):
    name, make = INT_FIELDS[field_id]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        make(value)


@pytest.mark.parametrize("value", [5.0, np.int64(5)])
@pytest.mark.parametrize("field_id", list(INT_FIELDS))
def test_integral_number_stored_as_int(field_id, value):
    stored = INT_FIELDS[field_id][1](value)
    assert stored == 5 and type(stored) is int


@pytest.mark.parametrize(
    "name, make",
    [
        ("kind", lambda v: MethodConfig(kind=v)),
        ("tracker", lambda v: SolverConfig(tracker=v)),
        ("output_path", lambda v: RunConfig(AFFINE, output_path=v)),
    ],
)
def test_non_string_rejected_naming_its_field(name, make):
    with pytest.raises(ValueError, match=f"^{name} must be a string, got 5$"):
        make(5)


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: StepSchedule("bogus"), "unknown schedule kind"),
            (lambda: StepSchedule("constant", -0.1), "schedule scale must be nonnegative"),
            (lambda: StepSchedule("inv_sqrt_epoch", 0.1, epoch_len=0), "epoch_len must be >= 1"),
            (lambda: SolverConfig(rho=-1.0), "rho must be >= 0"),
            (lambda: SolverConfig(beta=0.0), "beta must be positive"),
            (lambda: SolverConfig(eta=StepSchedule("constant", 0.0)), "stepsize must be positive"),
            (lambda: SolverConfig(tracker="bogus"), "unknown tracker"),
            (lambda: SolverConfig(tracker="correction", tau_tilde=0.0), "tau_tilde must be positive"),
            (lambda: SolverConfig(dual="bogus"), "unknown dual rule"),
            (lambda: SolverConfig(dual="ialm", inner_steps=0), "inner_steps must be >= 1"),
            (lambda: SolverConfig(max_iters=-1), "max_iters must be >= 0"),
            (lambda: SolverConfig(seed=-1), "seed must be >= 0"),
        ],
    )
    def test_invalid_setting_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MethodConfig(kind="prox_sgd", tau1=0.01),
            lambda: MethodConfig(kind="prox_sgdm", eps=0.0),
            lambda: StepSchedule("constant", 0.5, epoch_len=0),
            lambda: NoiseModel("none", -1.0),
        ],
    )
    def test_value_rule_of_an_unread_field_does_not_bind(self, make):
        # each value lies outside its field's range, which the kind never reads
        make()

    def test_theta_must_stay_below_beta(self):
        with pytest.raises(ValueError, match="theta_max < beta"):
            SolverConfig(beta=1.0, theta=StepSchedule("constant", 1.0))

    def test_sgdm_eta_capped_at_one(self):
        with pytest.raises(ValueError):
            SolverConfig(
                method=MethodConfig(kind="prox_sgdm"), eta=StepSchedule("constant", 1.5)
            )

    def test_adam_eta_tau2_cap(self):
        with pytest.raises(ValueError):
            SolverConfig(
                method=MethodConfig(kind="prox_adam", tau2=4.0, tau1=1.0),
                eta=StepSchedule("constant", 0.5),
            )

    def test_correction_step_cap(self):
        with pytest.raises(ValueError):
            SolverConfig(tracker="correction", tau_tilde=3.0, eta=StepSchedule("constant", 0.5))

    def test_ialm_parameters(self):
        with pytest.raises(ValueError):
            SolverConfig(dual="ialm", sigma=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dual="regu", inner_steps=5)

    def test_ialm_inner_steps_gate_dual_updates(self):
        prob = scalar_problem()
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=0.0, beta=1.0, eta=ETA_01,
            dual="ialm", inner_steps=3, theta_tilde=1.0, beta_tilde=1.0, sigma=2.0,
            max_iters=2,
        )
        state = LagrangianState(
            x=np.array([1.0]),
            y=np.zeros(0),
            lam=np.array([0.0]),
            w=np.array([1.0]),
        )
        nxt, err = _Driver(prob, cfg).step(state, NO_TOKENS, None, *step_sizes(cfg, 0))
        assert err is None
        assert np.array_equal(nxt.lam, state.lam)  # k=1 not a multiple of 3


class TestDriverVariants:
    def test_ball_constrained_adam_run(self):
        # exercises the weighted ball projection inside the driver loop
        center = np.zeros(3)
        anchor = np.array([2.0, 0.0, 0.0])
        prob = ProblemInstance(
            dim_primal=3,
            dim_constraint=1,
            objective=lambda x: float(np.abs(x - anchor).sum()),
            objective_subgradient=lambda x: np.sign(x - anchor),
            constraint=lambda x: np.array([x[1] - 0.2]),
            constraint_jacobian=lambda x: np.array([[0.0], [1.0], [0.0]]),
            feasible_set=Ball(center, 1.0),
        )
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_adam", alpha=0.2, tau2=0.2),
            rho=1.0, beta=3.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.5),
            max_iters=3000, seed=0,
        )
        res = run(prob, cfg, x0=np.zeros(3), record_every=500)
        assert not res.aborted
        assert np.linalg.norm(res.state.x - center) <= 1.0 + 1e-9
        assert res.final.feas <= 2e-2

    def test_truncated_gaussian_noise_run(self):
        rec = make_affine_l1(n=4, p=1, seed=6)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=1.0, beta=4.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.5),
            noise=NoiseModel("truncated_gaussian", 0.2, seed=0),
            max_iters=5000, seed=1,
        )
        res = run(rec.instance, cfg, x0=rec.start, record_every=1000)
        assert not res.aborted
        assert res.final.feas <= 5e-2

    def test_power_schedule_run(self):
        rec = make_affine_l1(n=4, p=1, seed=6)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=1.0, beta=4.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("power", 0.9, exponent=0.75),
            max_iters=5000, seed=1,
        )
        res = run(rec.instance, cfg, x0=rec.start, record_every=1000)
        assert not res.aborted
        assert res.final.feas <= 5e-2

    def test_perturbed_oracle_still_converges(self):
        # decaying-radius inexactness in the subgradient selections
        rec = make_affine_l1(n=4, p=1, seed=6)
        wrapped = perturbed_instance(rec.instance, radius=0.5, seed=0, decay=0.6)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=1.0, beta=4.0,
            theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.5),
            max_iters=10000, seed=1,
        )
        res = run(wrapped, cfg, x0=rec.start, record_every=2000, kkt_probe=None)
        assert not res.aborted
        assert res.final.feas <= 2e-2

    def test_lyapunov_recorded_for_adaptive_methods_only(self):
        rec = make_affine_l1(n=3, p=1, seed=0)
        base = dict(
            rho=0.5, beta=2.0, theta=StepSchedule("constant", 0.5),
            eta=StepSchedule("inv_sqrt_epoch", 0.2), max_iters=20, seed=0,
        )
        res = run(rec.instance, SolverConfig(method=MethodConfig(kind="prox_sgd"), **base),
                  x0=rec.start)
        assert all(r.lyapunov is None for r in res.records)
        for kind in ["prox_sgdm", "prox_adam"]:
            res = run(rec.instance, SolverConfig(method=MethodConfig(kind=kind, alpha=0.2), **base),
                      x0=rec.start)
            assert all(r.lyapunov is not None for r in res.records)
            # the certificate dominates the penalty value it is built on
            assert all(r.lyapunov >= r.g_val - 1e-12 for r in res.records)

    def test_default_start_is_projected_origin(self):
        prob = scalar_problem(fset=Box(np.array([0.5]), np.array([2.0])))
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), eta=ETA_01, max_iters=0)
        state = run(prob, cfg).state
        assert state.k == 0
        assert state.x == pytest.approx([0.5])
        assert np.array_equal(state.lam, np.zeros(1))
        assert np.array_equal(state.w, prob.constraint(state.x))

    def test_run_on_stochastic_instance_uses_mean_metrics(self):
        rec = make_stochastic_affine(n=3, p=1, noise_scale=0.5, seed=3)
        cfg = SolverConfig(
            method=MethodConfig(kind="prox_sgd"),
            rho=0.1, beta=1.0,
            theta=StepSchedule("constant", 0.3),
            eta=StepSchedule("inv_sqrt_epoch", 0.1),
            tracker="correction", max_iters=1,
        )
        res = run(rec.instance, cfg, x0=rec.start)
        nxt, recm = res.state, res.final
        assert recm.k == nxt.k == 1
        c_mean = rec.instance.mean.constraint(nxt.x)
        assert recm.feas == pytest.approx(np.linalg.norm(c_mean))
        assert recm.tracker_err == pytest.approx(np.linalg.norm(nxt.w - c_mean))


def _failing(prob, objective_at=None, subgrad_at=None, subgrad_error=None):
    """``prob`` whose objective returns inf at the point ``objective_at``, and whose
    subgradient returns inf (or raises ``subgrad_error``) at the point
    ``subgrad_at``: failures that stay functions of x, as oracles must be."""

    def objective(x):
        if objective_at is not None and np.array_equal(x, objective_at):
            return float("inf")
        return prob.objective(x)

    def subgradient(x):
        if subgrad_at is not None and np.array_equal(x, subgrad_at):
            if subgrad_error is not None:
                raise subgrad_error
            return np.full(prob.dim_primal, np.inf)
        return prob.objective_subgradient(x)

    return replace(prob, objective=objective, objective_subgradient=subgradient)


def _bits(values):
    return [np.asarray(v).tobytes() for v in values]


def _check_bookkeeping_read_from_state(res):
    # the result reads the final state's bookkeeping, an unset -inf as NaN
    for got, stored in ((res.max_contraction_slack, res.state.slack),
                        (res.max_dual_excess, res.state.excess)):
        assert _bits([got]) == _bits([np.nan if stored == -np.inf else stored])


def _state_bits(res):
    return _bits(res.state) + _bits([res.max_contraction_slack, res.max_dual_excess])


def _record_bits(records):
    return [[np.float64(v).tobytes() if v is not None else None for v in vars(r).values()]
            for r in records]


class TestDeferredRecordOutcomes:
    """Records are assembled a block at a time, so a run notices an aborting
    record only at the end of the block, a step's abort or exception, or the
    last step. Each outcome is held to the same run cut at ``max_iters`` equal
    to the aborting k: its state, contraction slack and dual excess, bit for bit,
    and its records to the list a record-by-record run keeps."""

    BASE = make_affine_l1(n=4, p=2, seed=1)
    CONFIG = SolverConfig(
        method=MethodConfig(kind="prox_sgdm", alpha=0.2), rho=0.5, beta=1.0,
        theta=StepSchedule("constant", 0.5), eta=StepSchedule("inv_sqrt_epoch", 0.3),
        noise=NoiseModel("uniform_box", 0.1), max_iters=3 * lagrangian.NOISE_CHUNK, seed=4,
    )

    def run(self, max_iters=None, record_every=10, kkt_probe=None, **failures):
        cfg = replace(self.CONFIG, max_iters=max_iters or self.CONFIG.max_iters)
        prob = _failing(self.BASE.instance, **failures)
        return run(prob, cfg, x0=self.BASE.start, record_every=record_every, kkt_probe=kkt_probe)

    def x_at(self, k):
        """The state's x at step ``k`` of the run without failures."""
        return self.run(max_iters=k).state.x

    def check_against_cut(self, res, cut):
        assert _state_bits(res) == _state_bits(cut)
        _check_bookkeeping_read_from_state(res)
        # the bookkeeping saved at the aborting point is not the block end's
        block_end = self.run(max_iters=lagrangian.NOISE_CHUNK)
        assert _state_bits(block_end)[-2:] != _state_bits(cut)[-2:]

    def test_objective_raising_at_a_mid_block_record(self):
        # the record of k = 130, mid-way through the first block
        res = self.run(objective_at=self.x_at(130))
        assert res.abort_reason == "non-finite metrics" and res.state.k == 130
        assert [r.k for r in res.records] == list(range(0, 130, 10))
        cut = self.run(max_iters=130, objective_at=self.x_at(130))
        assert cut.abort_reason == "non-finite metrics"
        self.check_against_cut(res, cut)
        assert _record_bits(res.records) == _record_bits(cut.records)

    def test_objective_raising_at_a_mid_block_record_with_the_probe(self):
        res = self.run(objective_at=self.x_at(130), kkt_probe=1e-3)
        assert res.abort_reason == "non-finite metrics" and res.state.k == 130
        cut = self.run(max_iters=130, objective_at=self.x_at(130), kkt_probe=1e-3)
        self.check_against_cut(res, cut)
        assert _record_bits(res.records) == _record_bits(cut.records)
        assert [r.k for r in res.records] == list(range(0, 130, 10))

    def test_diagnostics_overflowing_mid_block(self):
        # a runaway objective slope: the state stays finite while feas**2, and
        # with it the quadratic penalty term, overflows at a mid-block record
        prob = scalar_problem(objective=lambda x: float(x[0]), subgrad=lambda x: -1e3 * x)
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), rho=1.0, eta=ETA_01,
                           max_iters=3 * lagrangian.NOISE_CHUNK)
        res = run(prob, cfg, x0=np.ones(1), kkt_probe=None, record_every=3)
        k = res.state.k
        assert res.abort_reason == "non-finite metrics"
        assert 0 < k % lagrangian.NOISE_CHUNK and k == res.records[-1].k
        assert not np.isfinite(res.records[-1].g_val)
        assert all(np.isfinite(r.g_val) for r in res.records[:-1])
        assert [r.k for r in res.records] == list(range(0, k + 1, 3))
        cut = run(prob, replace(cfg, max_iters=k), x0=np.ones(1), kkt_probe=None,
                  record_every=3)
        assert cut.abort_reason == "non-finite metrics"
        assert _state_bits(res) == _state_bits(cut)
        assert _record_bits(res.records) == _record_bits(cut.records)

    def test_projection_raising_after_a_pending_nonfinite_record(self):
        # the overflowing run above, with the KKT probe: the record of k = 78
        # aborts it. The block's stack projects the probe point of k = 81,
        # which raises, so the block is recorded again point by point, and
        # that stops at k = 78 before the point of k = 81 is reached. The run
        # ends at k = 120, before the subgradient overflows (near k = 153), so
        # that the stack's oracles pass and its projection is what raises
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), rho=1.0, eta=ETA_01,
                           max_iters=120)
        def subgrad(x):
            return -1e3 * x

        whole = scalar_problem(objective=lambda x: float(x[0]), subgrad=subgrad,
                               fset=Box(np.full(1, -np.inf), np.full(1, np.inf)))
        s81 = run(whole, replace(cfg, max_iters=81), x0=np.ones(1), kkt_probe=1e-3,
                  record_every=cfg.max_iters).state
        probe81 = s81.x - 1e-3 * (subgrad(s81.x) + np.array([[1.0]]) @ s81.lam)

        fired = []

        class FailingBox(Box):
            def project(self, x):
                # the set maps a whole stack: fail if any row is the probe point
                if (np.asarray(x).reshape(-1, probe81.size) == probe81).all(axis=1).any():
                    fired.append(np.shape(x))
                    raise ArithmeticError("projection failed")
                return super().project(x)

        prob = replace(whole, feasible_set=FailingBox(whole.feasible_set.lower,
                                                      whole.feasible_set.upper))
        res = run(prob, cfg, x0=np.ones(1), kkt_probe=1e-3, record_every=3)
        # the block's stack raised once; the point-by-point records did not
        assert len(fired) == 1 and fired[0][0] > 1
        assert res.abort_reason == "non-finite metrics" and res.state.k == 78
        assert [r.k for r in res.records] == list(range(0, 79, 3))
        assert not np.isfinite(res.records[-1].g_val)
        cut = run(prob, replace(cfg, max_iters=78), x0=np.ones(1), kkt_probe=1e-3,
                  record_every=3)
        assert len(fired) == 1
        assert cut.abort_reason == "non-finite metrics"
        assert _state_bits(res) == _state_bits(cut)
        assert _record_bits(res.records) == _record_bits(cut.records)

    def test_step_aborting_after_pending_finite_records(self):
        res = self.run(subgrad_at=self.x_at(137))
        assert res.abort_reason == "non-finite primal direction" and res.state.k == 137
        assert [r.k for r in res.records] == list(range(0, 131, 10))
        cut = self.run(max_iters=137)
        assert not cut.aborted
        self.check_against_cut(res, cut)
        # the cut run adds its final record at k = 137
        assert _record_bits(res.records) == _record_bits(cut.records[:-1])

    def test_step_raising_after_a_pending_nonfinite_record(self):
        # the record of k = 130 aborts the run before the step from k = 149
        # raises: the run returns the record's abort and does not raise
        res = self.run(objective_at=self.x_at(130), subgrad_at=self.x_at(149),
                       subgrad_error=RuntimeError("step oracle failed"))
        assert res.abort_reason == "non-finite metrics" and res.state.k == 130
        assert [r.k for r in res.records] == list(range(0, 130, 10))
        cut = self.run(max_iters=130, objective_at=self.x_at(130))
        self.check_against_cut(res, cut)
        assert _record_bits(res.records) == _record_bits(cut.records)

    def test_step_raising_after_pending_finite_records_raises(self):
        with pytest.raises(RuntimeError, match="step oracle failed"):
            self.run(subgrad_at=self.x_at(149), subgrad_error=RuntimeError("step oracle failed"))

    def test_record_error_raises_after_the_block(self):
        # the objective, which only records call, raises at the record of k = 20:
        # the run raises it, as it did when each record was taken at its step,
        # although the steps after k = 20 ran first
        x20 = self.x_at(20)
        base = self.BASE.instance
        calls = [0]

        def objective(x):
            calls[0] += 1
            if np.array_equal(x, x20):
                raise RuntimeError("record oracle failed")
            return base.objective(x)

        prob = replace(base, objective=objective)
        with pytest.raises(RuntimeError, match="record oracle failed"):
            run(prob, self.CONFIG, x0=self.BASE.start, record_every=10, kkt_probe=1e-3)
        # the record of k = 0 is evaluated once; those of k = 10 and 20 in the
        # block's stack, which raises at k = 20, and then again one at a time
        assert calls[0] == 5


def _user_problem(stacks: bool, bad_x=None, objective_shape=None):
    """A user-written problem whose oracles take a point or an ``(m, n)`` stack
    through one formula on the last axis, so each stack row is bitwise its
    point's value: an L1 objective, two affine equalities, the unit box. Its
    objective is inf at the point ``bad_x``, and a stack's objective has the
    shape ``objective_shape`` when one is given."""
    rng = np.random.default_rng(11)
    n, p = 4, 2
    A, b, anchor = rng.standard_normal((p, n)), rng.uniform(-0.2, 0.2, p), rng.uniform(-1, 1, n)
    AT = A.T.copy()

    def objective(x):
        f = np.abs(x - anchor).sum(axis=-1)
        if bad_x is not None:
            f = np.where((x == bad_x).all(axis=-1), np.inf, f)
        if objective_shape is not None and x.ndim == 2:
            f = np.zeros(objective_shape)
        return f

    return ProblemInstance(
        dim_primal=n,
        dim_constraint=p,
        objective=objective,
        objective_subgradient=lambda x: np.sign(x - anchor),
        # a matrix times each point's column, one gemv an item, as A.dot(x) is
        constraint=lambda x: np.matmul(A, x[..., None])[..., 0] - b,
        constraint_jacobian=lambda x: np.broadcast_to(AT, x.shape[:-1] + AT.shape),
        feasible_set=Box(np.full(n, -1.0), np.full(n, 1.0)),
        stacks=stacks,
    )


class TestStackedProblemRuns:
    """A problem that takes stacks gets one oracle call per record stack, and
    the same run() outcome as the same problem called point by point: its
    records, final state and abort reason, bit for bit."""

    CONFIG = SolverConfig(
        method=MethodConfig(kind="prox_sgdm", alpha=0.2), rho=0.5, beta=1.0,
        theta=StepSchedule("constant", 0.5), eta=StepSchedule("inv_sqrt_epoch", 0.3),
        tracker="correction", noise=NoiseModel("uniform_box", 0.1),
        max_iters=2 * NOISE_CHUNK + 40, seed=4,
    )

    def run_both(self, record_every=1, max_iters=None, **kwargs):
        cfg = replace(self.CONFIG, max_iters=max_iters or self.CONFIG.max_iters)
        return [run(_user_problem(stacks, **kwargs), cfg, record_every=record_every)
                for stacks in (True, False)]

    def test_same_outcome_and_one_call_per_record_stack(self):
        calls = {"objective": [], "constraint": []}
        prob = _user_problem(True)

        def counted(name):
            oracle = getattr(prob, name)

            def call(x):
                calls[name].append(x.shape)
                return oracle(x)
            return call

        counting = replace(prob, **{name: counted(name) for name in calls})
        cfg = self.CONFIG
        stacked = run(counting, cfg, record_every=1)
        points = run(_user_problem(False), cfg, record_every=1)
        assert not stacked.aborted and stacked.state.k == cfg.max_iters
        assert _record_bits(stacked.records) == _record_bits(points.records)
        assert _state_bits(stacked) == _state_bits(points)
        # the k = 0 record, then one stack per block of NOISE_CHUNK steps; the
        # correction tracker's steps call the constraint at single points
        stacks = [(1, 4), (NOISE_CHUNK, 4), (NOISE_CHUNK, 4), (40, 4)]
        assert calls["objective"] == stacks
        assert [shape for shape in calls["constraint"] if len(shape) == 2] == stacks

    def test_nonfinite_objective_at_a_mid_block_record(self):
        bad_x = self.run_both(max_iters=130)[0].state.x
        stacked, points = self.run_both(bad_x=bad_x)
        for res in (stacked, points):
            assert res.abort_reason == "non-finite metrics" and res.state.k == 130
            assert [r.k for r in res.records] == list(range(130))
        assert _record_bits(stacked.records) == _record_bits(points.records)
        assert _state_bits(stacked) == _state_bits(points)

    def test_stacked_objective_of_the_wrong_shape_names_it(self):
        with pytest.raises(OracleError, match=re.escape(
                "objective oracle returned shape (1, 1) on a stack, expected (1,)")):
            run(_user_problem(True, objective_shape=(1, 1)), self.CONFIG)
        # a block's stack that raises is recorded again point by point, and the
        # first of those stacks of one raises in turn
        cfg = replace(self.CONFIG, max_iters=20)
        prob = _user_problem(True)
        calls = []

        def objective(x):
            calls.append(x.shape)
            return np.zeros(3) if len(calls) > 1 else prob.objective(x)

        with pytest.raises(OracleError, match=re.escape(
                "objective oracle returned shape (3,) on a stack, expected (1,)")):
            run(replace(prob, objective=objective), cfg, record_every=1)
        assert calls == [(1, 4), (20, 4), (1, 4)]
