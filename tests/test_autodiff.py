import math
import threading

import numpy as np
import pytest

from oneshot_kgc import autodiff as ad
from oneshot_kgc.errors import NumericError


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function over a flat array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        hi = f()
        x.flat[i] = orig - h
        lo = f()
        x.flat[i] = orig
        g.flat[i] = (hi - lo) / (2 * h)
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


class TestForward:
    def test_tanh_scalar(self):
        out = ad.tanh(ad.Tensor([0.35]))
        assert out.data[0] == pytest.approx(math.tanh(0.35), abs=1e-12)
        assert out.data[0] == pytest.approx(0.336376, abs=1e-6)

    def test_cosine_self_similarity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=6)
            assert ad.cosine(ad.Tensor(x), ad.Tensor(x)).item() == pytest.approx(1.0)

    def test_lstm_cell_zero_params_zero_cell(self):
        rng = np.random.default_rng(1)
        p = ad.init_lstm(4, 6, 4, rng)
        for t in p.tensors():
            t.data[...] = 0.0
        x = ad.Tensor(rng.normal(size=(3, 4)))
        h = ad.Tensor(rng.normal(size=(3, 6)))
        c = ad.Tensor(np.zeros((3, 4)))
        h_new, c_new = ad.lstm_cell(x, h, c, p)
        # sigmoid(0)=0.5, tanh(0)=0 -> candidate 0 -> new state 0 -> output 0
        assert np.allclose(h_new.data, 0.0)
        assert np.allclose(c_new.data, 0.0)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(NumericError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_finite_check_trips(self):
        big = ad.Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="mul"):
            ad.mul(big, big)

    def test_mean_rows_permutation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 8))
        perm = rng.permutation(40)
        a = ad.mean_rows(ad.Tensor(x)).data
        b = ad.mean_rows(ad.Tensor(x[perm])).data
        assert np.max(np.abs(a - b)) < 1e-9


class TestDropout:
    def test_eval_mode_identity(self):
        x = ad.Tensor(np.ones((4, 4)))
        out = ad.dropout(x, 0.5, np.random.default_rng(0), train=False)
        assert np.array_equal(out.data, x.data)

    def test_rate_zero_identity_both_modes(self):
        x = ad.Tensor(np.ones((4, 4)))
        for train in (False, True):
            out = ad.dropout(x, 0.0, np.random.default_rng(0), train=train)
            assert np.array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.3, rng, train=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)


class TestBackward:
    def test_cosine_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for dim in (2, 5, 8):
            x = ad.Tensor(rng.normal(size=dim), requires_grad=True)
            y = ad.Tensor(rng.normal(size=dim))
            loss = ad.cosine(x, y)
            ad.backward(loss)
            num = numeric_grad(lambda: ad.cosine(ad.Tensor(x.data), y).item(), x.data, h=1e-4)
            assert rel_err(x.grad, num) < 1e-4

    def test_unused_param_gets_zero_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        unused = ad.Tensor([3.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        assert np.array_equal(unused.grad, [0.0])

    def test_backward_without_graph_errors(self):
        with pytest.raises(NumericError, match="no recorded graph"):
            ad.backward(ad.Tensor(1.0))

    def test_double_backward_errors(self):
        x = ad.Tensor([2.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        with pytest.raises(NumericError, match="already called"):
            ad.backward(loss)

    def test_gather_rows_scatters_grads(self):
        table = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = ad.gather_rows(table, np.array([0, 2, 2, -1]))
        assert np.array_equal(out.data[3], np.zeros(3))
        ad.backward(ad.sum_all(out))
        assert np.array_equal(table.grad[:, 0], [1.0, 0.0, 2.0, 0.0])

    def test_block_mean_rows_grad(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        counts = np.array([3, 2])
        loss = ad.sum_all(ad.block_mean_rows(x, 3, counts, scale=True))
        ad.backward(loss)
        num = numeric_grad(
            lambda: ad.block_mean_rows(ad.Tensor(x.data), 3, counts, scale=True).data.sum(),
            x.data)
        assert rel_err(x.grad, num) < 1e-6

    def test_lstm_cell_grad(self):
        rng = np.random.default_rng(6)
        p = ad.init_lstm(3, 5, 3, rng)
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h = ad.Tensor(rng.normal(size=(2, 5)))
        c = ad.Tensor(rng.normal(size=(2, 3)))

        def run():
            h_new, c_new = ad.lstm_cell(x, h, c, p)
            return ad.sum_all(ad.add(h_new, c_new))

        loss = run()
        ad.backward(loss)
        for t in p.tensors():
            num = numeric_grad(lambda: run().item(), t.data)
            assert rel_err(t.grad, num) < 1e-5
            t.zero_grad()


class TestGradMode:
    def test_no_grad_blocks_in_overlapping_threads(self):
        # both threads enter no_grad before either leaves, then the first one
        # leaves first: a process-wide flag would be restored to False by the
        # second, which saved it while the first block was open
        inside = threading.Barrier(2)
        first_left = threading.Event()
        seen = []

        def worker(first):
            with ad.no_grad():
                inside.wait(timeout=10)
                seen.append(ad.grad_enabled())
                if not first:
                    first_left.wait(timeout=10)
            if first:
                first_left.set()

        threads = [threading.Thread(target=worker, args=(first,)) for first in (True, False)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == [False, False]
        assert ad.grad_enabled()
        x = ad.Tensor([1.0, -2.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert x.grad.tolist() == [2.0, -4.0]

    def test_no_grad_restores_on_exit(self):
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.grad_enabled()
            assert not ad.grad_enabled()
        assert ad.grad_enabled()


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.Tensor([1.0, -2.0], requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude(self):
        # hand evaluation: m_hat = g, v_hat = g^2 -> delta = -lr * g/(|g|+eps)
        p = ad.Tensor([0.0], requires_grad=True)
        p.grad = np.array([1.0])
        opt = ad.Adam([p], lr=0.001)
        opt.step()
        assert p.data[0] == pytest.approx(-0.001, rel=1e-6)

    def test_halving_schedule(self):
        sched = ad.halving_schedule(200000)
        assert sched(1) == 1.0
        assert sched(200000) == 1.0
        assert sched(200001) == 0.5
        assert sched(400001) == 0.25


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt")
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1.5]),
                  "c3d": np.arange(8.0).reshape(2, 2, 2)}
        ad.save_checkpoint(path, arrays, metadata={"kind": "test"})
        loaded, meta = ad.load_checkpoint(path)
        assert meta["kind"] == "test"
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)
