"""``slack_l1_net``'s oracles against a frozen restatement of their formulas.

The functions below are the network's passes in their plain numpy forms: the
ReLU mask as a bool product, the 1/n scaling as a division, Python-float
constants and ``ndarray.sum``. The recipe computes the same values on cheaper
numpy forms, and every oracle value must keep these formulas' bits. The
full-batch pass keeps the recipe's chunks of ``NET_CHUNK`` points and its
contiguous weight items, since a product's bits depend on its operands'
layout."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslalm.problems import NET_CHUNK, _blob_dataset, make_slack_l1_net


class FrozenNet:
    """The net's data and passes, from the recipe's arguments."""

    def __init__(self, widths, radius, dataset_seed, n_train):
        self.radius, self.n_train = radius, n_train
        self.L = len(widths) - 1
        self.shapes = [(widths[i], widths[i + 1]) for i in range(self.L)]
        offsets = np.concatenate([[0], np.cumsum([r * c for r, c in self.shapes])])
        self.slices = [slice(offsets[i], offsets[i + 1]) for i in range(self.L)]
        self.n_w = int(offsets[-1])
        self.n = self.n_w + self.L
        rng = np.random.default_rng(dataset_seed)
        self.train_x, train_y = _blob_dataset(rng, widths[0], n_train)
        self.train_t = np.eye(2, widths[-1])[train_y]

    def forward(self, weights, inputs, product):
        pre, acts, a = [], [inputs], inputs
        for i in range(self.L):
            z = product(a, weights[i])
            pre.append(z)
            a = np.maximum(z, 0.0) if i < self.L - 1 else z
            acts.append(a)
        return pre, acts

    def residual_and_grad(self, x, idx):
        inputs, targets = self.train_x[idx], self.train_t[idx]
        weights = [x[s].reshape(shape) for s, shape in zip(self.slices, self.shapes)]
        pre, acts = self.forward(weights, inputs, np.ndarray.dot)
        resid = acts[-1] - targets
        delta = np.sign(resid) / inputs.shape[0]
        grad = np.zeros(self.n)
        for i in range(self.L - 1, -1, -1):
            grad[self.slices[i]] = acts[i].T.dot(delta).ravel()
            if i > 0:
                delta = delta.dot(weights[i].T) * (pre[i - 1] > 0.0)
        return resid, grad

    def full_batch(self, X):
        F, G = np.empty(len(X)), np.zeros(X.shape)
        for start in range(0, len(X), NET_CHUNK):
            rows = slice(start, start + NET_CHUNK)
            weights = [np.ascontiguousarray(X[rows, s]).reshape(-1, *shape)
                       for s, shape in zip(self.slices, self.shapes)]
            pre, acts = self.forward(weights, self.train_x, np.matmul)
            resid = acts[-1] - self.train_t
            delta = np.sign(resid) / self.n_train
            for i in range(self.L - 1, -1, -1):
                G[rows, self.slices[i]] = np.matmul(acts[i].mT, delta).reshape(len(delta), -1)
                if i > 0:
                    delta = np.matmul(delta, weights[i].mT) * (pre[i - 1] > 0.0)
            F[rows] = np.abs(resid).reshape(len(resid), -1).sum(axis=1) / self.n_train
        return F, G

    @staticmethod
    def loss(resid):
        return float(np.abs(resid).sum()) / resid.shape[0]

    def constraint(self, x):
        w = np.abs(x[..., :self.n_w])
        sums = np.array([w[..., s].sum(axis=-1) for s in self.slices])
        return sums.T + x[..., self.n_w:] - self.radius


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _net(widths, n_train, batch_size, radius=1.0, dataset_seed=0):
    rec = make_slack_l1_net(layer_widths=widths, radius=radius, dataset_seed=dataset_seed,
                            n_train=n_train, n_test=4, batch_size=batch_size)
    return rec.instance, FrozenNet(widths, radius, dataset_seed, n_train)


def _points(rng, ref, m, zero_rate):
    """``m`` points in the net's box, weights at exactly 0 and -0.0 at
    ``zero_rate`` and ``zero_rate / 2``, and in every other point one hidden
    unit of the first layer with an all-zero column."""
    X = rng.uniform(-1.0, 1.0, (m, ref.n))
    X[:, ref.n_w:] = rng.uniform(0.0, 2.0, (m, ref.L))
    W = X[:, :ref.n_w]
    W[rng.random(W.shape) < zero_rate] = 0.0
    W[rng.random(W.shape) < zero_rate / 2] = -0.0
    r, c = ref.shapes[0]
    for j in range(0, m, 2):
        W[j, : r * c].reshape(r, c)[:, rng.integers(c)] = 0.0
    return X


@st.composite
def _cases(draw):
    widths = tuple(draw(st.lists(st.integers(1, 19), min_size=2, max_size=4)))
    n_train = draw(st.integers(1, 300))
    batch_size = draw(st.integers(1, n_train))
    return widths, n_train, batch_size


class TestNetAgainstFrozenFormulas:
    @settings(max_examples=60, deadline=None)
    @given(case=_cases(), m=st.integers(1, 2 * NET_CHUNK + 1), seed=st.integers(0, 2**32 - 1),
           zero_rate=st.sampled_from([0.0, 0.2]), radius=st.sampled_from([1.0, 0.3, 3]))
    @example(case=((2, 8, 2), 256, 128), m=NET_CHUNK, seed=0, zero_rate=0.0, radius=1.0)
    @example(case=((3, 16, 16, 1), 255, 1), m=2 * NET_CHUNK + 1, seed=1, zero_rate=0.2,
             radius=1.0)
    @example(case=((16, 16), 7, 7), m=1, seed=2, zero_rate=0.2, radius=0.3)
    def test_oracles_keep_the_frozen_bits(self, case, m, seed, zero_rate, radius):
        widths, n_train, batch_size = case
        inst, ref = _net(widths, n_train, batch_size, radius)
        rng = np.random.default_rng(seed)
        X = _points(rng, ref, m, zero_rate)
        mean = inst.mean
        F_ref, G_ref = ref.full_batch(X)
        assert _bits(mean.objective(X)) == _bits(F_ref)
        assert _bits(mean.objective_subgradient(X)) == _bits(G_ref)
        assert _bits(mean.constraint(X)) == _bits(ref.constraint(X))
        assert _bits(inst.constraint_sample(X, None)) == _bits(ref.constraint(X))
        gen = np.random.default_rng(seed)
        for j, x in enumerate(X):
            x = x.copy()
            # a point is a stack of one: its own chunk
            f_ref, g_ref = ref.full_batch(x[None])
            assert _bits(mean.objective(x)) == _bits(f_ref[0])
            assert _bits(mean.objective_subgradient(x)) == _bits(g_ref[0])
            assert _bits(mean.constraint(x)) == _bits(ref.constraint(x))
            assert _bits(inst.constraint_sample(x, None)) == _bits(ref.constraint(x))
            idx = inst.draw_objective_sample(gen, 1)[0]
            resid, g = ref.residual_and_grad(x, idx)
            f = inst.objective_sample(x, idx)
            assert type(f) is float and _bits(f) == _bits(ref.loss(resid))
            assert _bits(inst.objective_subgradient_sample(x, idx)) == _bits(g)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_nan_weight_keeps_the_nan_positions(self, layer):
        # a NaN weight: the frozen formulas' NaNs sit where the recipe's do, and
        # every other entry keeps its bits
        widths, n_train, batch_size = (3, 5, 4, 2), 37, 9
        inst, ref = _net(widths, n_train, batch_size)
        X = _points(np.random.default_rng(layer), ref, NET_CHUNK + 1, 0.2)
        X[:, ref.slices[layer].start + 1] = np.nan
        idx = inst.draw_objective_sample(np.random.default_rng(0), 1)[0]
        resid, g = ref.residual_and_grad(X[0], idx)
        F_ref, G_ref = ref.full_batch(X)
        pairs = [(inst.mean.objective(X), F_ref), (inst.mean.objective_subgradient(X), G_ref),
                 (inst.objective_subgradient_sample(X[0], idx), g),
                 (inst.objective_sample(X[0], idx), ref.loss(resid))]
        for got, want in pairs:
            got, want = np.asarray(got), np.asarray(want)
            nan = np.isnan(want)
            assert nan.any()
            assert (np.isnan(got) == nan).all()
            assert _bits(got[~nan]) == _bits(want[~nan])
