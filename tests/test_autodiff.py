import errno
import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from oneshot_kgc import autodiff as ad
from oneshot_kgc.errors import DataError, NumericError
import reference
from reference import cosine


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
            assert cosine(ad.Tensor(x), ad.Tensor(x)).item() == pytest.approx(1.0)

    def test_lstm_cell_zero_params_zero_cell(self):
        rng = np.random.default_rng(1)
        p = ad.init_lstm(4, 4, 2, rng)
        for t in p.tensors():
            t.data[...] = 0.0
        x = ad.Tensor(rng.normal(size=(3, 4)))
        h = ad.Tensor(rng.normal(size=(3, 4)))
        s = ad.Tensor(rng.normal(size=(1, 2)))
        z = ad.add(ad.add(ad.add(ad.matmul(x, p.W_x), ad.matmul(h, p.W_h)),
                          ad.matmul(s, p.W_s)), p.b)
        # sigmoid(0)=0.5, tanh(0)=0 -> candidate 0 -> new state 0 -> output 0
        for c in (None, ad.Tensor(np.zeros((3, 4)))):
            h_new, c_new = ad.lstm_cell(z, c)
            assert np.allclose(h_new.data, 0.0)
            assert np.allclose(c_new.data, 0.0)

    def test_init_lstm_fuses_gates_in_lstm_order(self):
        # the legacy layout drew, gate by gate in (i, f, o, g) order, an input
        # matrix and a [recurrent; side] matrix; biases are 0 except forget = 1
        p = ad.init_lstm(3, 4, 2, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        drawn = {g: (ad.glorot_uniform(rng, 3, 4), ad.glorot_uniform(rng, 6, 4))
                 for g in "ifog"}
        for k, g in enumerate("ifgo"):
            cols = slice(4 * k, 4 * k + 4)
            assert np.array_equal(p.W_x.data[:, cols], drawn[g][0])
            assert np.array_equal(p.W_h.data[:, cols], drawn[g][1][:4])
            assert np.array_equal(p.W_s.data[:, cols], drawn[g][1][4:])
            assert np.all(p.b.data[cols] == (1.0 if g == "f" else 0.0))

    def test_shape_mismatch_names_op(self):
        with pytest.raises(NumericError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_finite_check_trips(self):
        big = ad.Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="mul"):
            ad.mul(big, big)

    def test_segment_mean_permutation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 8))
        perm = rng.permutation(40)
        a = ad.segment_mean(ad.Tensor(x), [40]).data
        b = ad.segment_mean(ad.Tensor(x[perm]), [40]).data
        assert np.max(np.abs(a - b)) < 1e-9

    def test_segment_mean_values(self):
        x = np.arange(12.0).reshape(6, 2)
        counts = [2, 0, 3, 1]
        mean = ad.segment_mean(ad.Tensor(x), counts).data
        total = ad.segment_mean(ad.Tensor(x), counts, scale=False).data
        assert mean.tolist() == [[1.0, 2.0], [0.0, 0.0], [6.0, 7.0], [10.0, 11.0]]
        assert total.tolist() == [[2.0, 4.0], [0.0, 0.0], [18.0, 21.0], [10.0, 11.0]]
        assert ad.segment_mean(ad.Tensor(np.zeros((0, 2))), [0, 0]).data.tolist() == \
            [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(NumericError, match="segment_mean"):
            ad.segment_mean(ad.Tensor(x), [2, 3])

    def test_columns(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(ad.columns(ad.Tensor(x), 1, 3).data, x[:, 1:3])
        with pytest.raises(NumericError, match="columns"):
            ad.columns(ad.Tensor(x), 2, 5)


class TestDropout:
    def test_eval_mode_identity(self):
        x = ad.Tensor(np.ones((4, 4)))
        out = ad.dropout(x, 0.5, None)
        assert np.array_equal(out.data, x.data)

    def test_rate_zero_identity_both_modes(self):
        x = ad.Tensor(np.ones((4, 4)))
        for rng in (None, np.random.default_rng(0)):
            out = ad.dropout(x, 0.0, rng)
            assert np.array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.3, rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)


class TestBackward:
    def test_cosine_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for dim in (2, 5, 8):
            x = ad.Tensor(rng.normal(size=dim), requires_grad=True)
            y = ad.Tensor(rng.normal(size=dim))
            loss = cosine(x, y)
            ad.backward(loss)
            num = numeric_grad(lambda: cosine(ad.Tensor(x.data), y).item(), x.data, h=1e-4)
            assert rel_err(x.grad, num) < 1e-4

    def test_unused_param_gets_zero_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        unused = ad.Tensor([3.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        assert unused.grad is None
        assert np.array_equal(unused.dense_grad(), [0.0])

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
        assert isinstance(table.grad, ad.RowGrad)
        ids, rows = table.grad.coalesce()
        assert ids.tolist() == [0, 2]
        assert rows.tolist() == [[1.0] * 3, [2.0] * 3]
        assert np.array_equal(table.dense_grad()[:, 0], [1.0, 0.0, 2.0, 0.0])

    def test_row_grad_sums_repeats_in_recorded_order(self):
        rng = np.random.default_rng(11)
        table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx_a, idx_b = np.array([4, 1, 4, -1, 0]), np.array([-1, 1, 4, 5])
        w_a, w_b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        loss = ad.add(ad.sum_all(ad.mul(ad.gather_rows(table, idx_a), w_a)),
                      ad.sum_all(ad.mul(ad.gather_rows(table, idx_b), w_b)))
        ad.backward(loss)
        ids, rows = table.grad.coalesce()
        assert ids.tolist() == [0, 1, 4, 5]     # row 2 and 3 untouched, -1 dropped
        # the same sums, in the same order, as scattering the chunks one by one
        # in the order backward recorded them
        want = np.zeros((6, 3))
        for idx, w in ((idx_a, w_a), (idx_b, w_b)):
            keep = idx >= 0
            np.add.at(want, idx[keep], w[keep])
        assert np.array_equal(table.dense_grad(), want)
        assert table.grad_norm() == float(np.linalg.norm(want))

    def test_gather_from_intermediate_gets_dense_grad(self):
        x = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        mid = ad.mul(x, 2.0)
        ad.backward(ad.sum_all(ad.gather_rows(mid, np.array([2, 2, -1]))))
        assert isinstance(x.grad, np.ndarray)
        assert x.grad.tolist() == [[0.0, 0.0], [0.0, 0.0], [4.0, 4.0]]

    @pytest.mark.parametrize("scale", [True, False])
    def test_segment_mean_grad(self, scale):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = rng.normal(size=(4, 4))
        counts = np.array([3, 0, 2, 1])

        def run(t):
            return ad.sum_all(ad.mul(ad.segment_mean(t, counts, scale=scale), w))
        ad.backward(run(x))
        num = numeric_grad(lambda: run(ad.Tensor(x.data)).item(), x.data)
        assert rel_err(x.grad, num) < 1e-6

    def test_columns_grad(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        w = rng.normal(size=(3, 2))

        def run(t):
            # two overlapping slices accumulate into the same columns
            return ad.sum_all(ad.add(ad.mul(ad.columns(t, 1, 3), w),
                                     ad.tanh(ad.columns(t, 2, 4))))
        ad.backward(run(x))
        num = numeric_grad(lambda: run(ad.Tensor(x.data)).item(), x.data)
        assert rel_err(x.grad, num) < 1e-6
        assert np.all(x.grad[:, [0, 4, 5]] == 0.0)

    def test_lstm_cell_grad(self):
        rng = np.random.default_rng(6)
        p = ad.init_lstm(3, 3, 2, rng)
        p.b.data[...] = rng.normal(size=p.b.shape)
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h = ad.Tensor(rng.normal(size=(2, 3)))
        s = ad.Tensor(rng.normal(size=(1, 2)))
        c = ad.Tensor(rng.normal(size=(2, 3)))

        def run(state):
            z = ad.add(ad.add(ad.add(ad.matmul(x, p.W_x), ad.matmul(h, p.W_h)),
                              ad.matmul(s, p.W_s)), p.b)
            h_new, c_new = ad.lstm_cell(z, state)
            return ad.sum_all(ad.add(h_new, c_new))

        for state in (c, None):
            loss = run(state)
            ad.backward(loss)
            for t in p.tensors():
                num = numeric_grad(lambda: run(state).item(), t.data)
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


def row_grad(rng, n_rows, width, rows=8):
    """A RowGrad over ``rows`` random ids, some repeated."""
    g = ad.RowGrad()
    ids = rng.integers(n_rows, size=rows)
    g.add(ids, rng.normal(size=(rows, width)))
    return g


def dense_moments(opt, i):
    """Adam's moments of parameter i as arrays of its shape (zero in rows it holds none for)."""
    arrays = opt.state_arrays()
    m, v = arrays["adam_m.%d" % i], arrays["adam_v.%d" % i]
    if "adam_rows.%d" % i not in arrays:
        return m, v
    rows = arrays["adam_rows.%d" % i].astype(np.intp)
    dense_m, dense_v = np.zeros(opt.params[i].data.shape), np.zeros(opt.params[i].data.shape)
    dense_m[rows], dense_v[rows] = m, v
    return dense_m, dense_v


def dense_moment_adam(start, grads, lr, schedule, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam with table-sized moments, updated in the rows each
    gradient holds; returns the parameters and both moments."""
    p, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for t, g in enumerate(grads, 1):
        step_lr = lr * schedule(t)
        bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        if isinstance(g, ad.RowGrad):
            rows, g = g.coalesce()
            m_r, v_r, p_r = m[rows], v[rows], p[rows]
        else:
            rows, m_r, v_r, p_r = None, m, v, p
        m_r *= beta1
        m_r += (1.0 - beta1) * g
        v_r *= beta2
        v_r += (1.0 - beta2) * g * g
        update = m_r / bias1
        update *= step_lr
        denom = np.sqrt(v_r / bias2)
        denom += eps
        update /= denom
        p_r -= update
        if rows is not None:
            m[rows], v[rows], p[rows] = m_r, v_r, p_r
    return p, m, v


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

    def test_lazy_step_matches_dense_adam_when_every_row_has_a_gradient(self):
        rng = np.random.default_rng(12)
        start = rng.normal(size=(5, 3))
        lazy = ad.Tensor(start.copy(), requires_grad=True)
        opt = ad.Adam([lazy], lr=0.01, schedule=ad.halving_schedule(2))
        dense, m, v = start.copy(), np.zeros((5, 3)), np.zeros((5, 3))
        for t in range(1, 6):
            ids = np.concatenate([rng.permutation(5), rng.integers(5, size=3)])
            chunk = rng.normal(size=(ids.size, 3))
            opt.zero_grad()
            lazy.grad = ad.RowGrad()
            lazy.grad.add(ids, chunk)
            opt.step()
            g = lazy.dense_grad()
            lr = 0.01 * 0.5 ** ((t - 1) // 2)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            dense -= lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert opt.current_lr() == lr
            assert np.max(np.abs(lazy.data - dense) / np.abs(dense)) < 1e-15

    def test_rows_without_gradient_keep_value_and_moments(self):
        rng = np.random.default_rng(13)
        table = ad.Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        opt = ad.Adam([table], lr=0.1)
        for ids in ([0, 3], [3, 5], [0]):
            before = [a.copy() for a in (table.data, *dense_moments(opt, 0))]
            opt.zero_grad()
            ad.backward(ad.sum_all(ad.mul(ad.gather_rows(table, np.array(ids)), 3.0)))
            opt.step()
            untouched = [r for r in range(6) if r not in ids]
            for now, then in zip((table.data, *dense_moments(opt, 0)), before):
                assert np.array_equal(now[untouched], then[untouched])
                assert not np.any(now[ids] == then[ids])
        assert np.array_equal(dense_moments(opt, 0)[0][[1, 2, 4]], np.zeros((3, 2)))

    @pytest.mark.parametrize("kinds", ["rrrr", "rrdr", "drrd"])
    def test_moments_equal_dense_moment_adam_bit_for_bit(self, kinds):
        # r: a RowGrad, d: a dense gradient. Row-sparse moments turn dense
        # at the first dense gradient and must give the same values throughout.
        rng = np.random.default_rng(15)
        start = rng.normal(size=(40, 3))
        grads = [row_grad(rng, 40, 3) if k == "r" else rng.normal(size=(40, 3)) for k in kinds]
        table = ad.Tensor(start.copy(), requires_grad=True)
        opt = ad.Adam([table], lr=0.01, schedule=ad.halving_schedule(2))
        for g in grads:
            table.grad = g
            opt.step()
        want_p, want_m, want_v = dense_moment_adam(start, grads, 0.01, ad.halving_schedule(2))
        assert np.array_equal(table.data, want_p)
        got_m, got_v = dense_moments(opt, 0)
        assert np.array_equal(got_m, want_m) and np.array_equal(got_v, want_v)
        assert ("adam_rows.0" in opt.state_arrays()) == ("d" not in kinds)

    def test_state_arrays_resume_like_one_run(self):
        # rows are first touched in another order after the resume, but the
        # state lists them in ascending order, so it is the same
        rng = np.random.default_rng(16)
        start = rng.normal(size=(30, 2))
        grads = [row_grad(rng, 30, 2) for _ in range(4)] + [rng.normal(size=(30, 2))]
        whole = ad.Tensor(start.copy(), requires_grad=True)
        one = ad.Adam([whole, ad.Tensor(np.ones(3), requires_grad=True)], lr=0.01)
        part = ad.Tensor(start.copy(), requires_grad=True)
        first = ad.Adam([part, ad.Tensor(np.ones(3), requires_grad=True)], lr=0.01)
        for t, g in enumerate(grads):
            if t == 2:
                resumed = ad.Adam([part, first.params[1]], lr=0.01)
                resumed.load_state_arrays({k: a.copy() for k, a in first.state_arrays().items()},
                                          "state")
                resumed.t, first = first.t, resumed
            for opt, p in ((one, whole), (first, part)):
                p.grad = g
                opt.params[1].grad = np.full(3, t + 1.0)
                opt.step()
            assert np.array_equal(part.data, whole.data)
            got, want = first.state_arrays(), one.state_arrays()
            assert sorted(got) == sorted(want)
            assert all(np.array_equal(got[k], want[k]) for k in want)

    @pytest.mark.parametrize("ids", [[0.5, 3.0], [2.0, 30.0], [-1.0, 2.0], [2.0, 2.0],
                                     [3.0, 2.0], [np.nan, 2.0]],
                             ids=["fractional", "past-the-end", "negative", "repeated",
                                  "descending", "nan"])
    def test_state_with_bad_row_ids_is_data_error(self, ids):
        opt = ad.Adam([ad.Tensor(np.zeros((30, 2)), requires_grad=True)])
        arrays = {"adam_rows.0": np.array(ids), "adam_m.0": np.zeros((2, 2)),
                  "adam_v.0": np.zeros((2, 2))}
        with pytest.raises(DataError, match="state: adam_rows.0 must list distinct integer "
                                            "row ids below 30 in ascending order"):
            opt.load_state_arrays(arrays, "state")

    def test_row_sparse_moments_cost_the_touched_rows(self):
        # three steps on 50 rows of a 200,000-row table: the moments are held
        # for those rows (and a row -> slot map), not for the whole table
        rng = np.random.default_rng(17)
        table = ad.Tensor(np.zeros((200_000, 8)), requires_grad=True)
        grads = [row_grad(rng, 200_000, 8, rows=50) for _ in range(3)]
        tracemalloc.start()
        try:
            opt = ad.Adam([table])
            for g in grads:
                table.grad = g
                opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * table.data.nbytes, peak / table.data.nbytes

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

    def test_same_bytes_as_tobytes_and_each_array_its_own(self, tmp_path):
        path = str(tmp_path / "ckpt")
        rng = np.random.default_rng(0)
        arrays = {"w": rng.standard_normal((7, 5)), "empty": np.zeros((0, 3)),
                  "scalar": np.float64(2.5), "ints": np.arange(4), "b": rng.standard_normal(3),
                  "strided": rng.standard_normal((6, 4))[::2, 1:]}
        ad.save_checkpoint(path, arrays)
        reference.save_checkpoint_bytes(str(tmp_path / "want.bin"), arrays)
        with open(str(tmp_path / "want.bin"), "rb") as want:
            assert reference.split_checkpoint(path)[1] == want.read()
        loaded, _ = ad.load_checkpoint(path)
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name].reshape(np.shape(arr)), arr)
            assert loaded[name].flags.owndata and loaded[name].dtype == np.float64

    @pytest.mark.parametrize("offsets, message", [
        ({"a": 0, "b": 0}, "a starts at byte 0, not at byte 8"),
        ({"a": 0, "b": -16}, "offset -16"),
        ({"a": 0, "b": 56}, "b starts at byte 56, not at byte 48"),
        ({"a": 16, "b": 0}, "a starts at byte 16, not at byte 8"),
        ({"a": 0, "b": "48"}, "non-negative integers"),
        ({"a": 0, "b": True}, "non-negative integers"),
    ])
    def test_index_must_tile_the_blob(self, tmp_path, offsets, message):
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(6.0), "b": np.arange(1.0)})

        def move(header):
            for name, offset in offsets.items():
                header["params"][name]["offset"] = offset

        reference.rewrite_header(path, move)
        with pytest.raises(DataError, match=message):
            ad.load_checkpoint(path)

    def test_index_with_a_bad_shape_is_data_error(self, tmp_path):
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(6.0)})
        for shape in ([2, -3], [6.0], "6", [0, 2 ** 70]):
            reference.rewrite_header(path, lambda header: header.update(
                params={"a": {"offset": 0, "shape": shape}}))
            with pytest.raises(DataError, match="checkpoint"):
                ad.load_checkpoint(path)

    def test_blob_size_checked_against_index(self, tmp_path):
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(6.0)})
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 48 + 40)
        with pytest.raises(DataError, match="runs past the end"):
            ad.load_checkpoint(path)
        with open(path, "ab") as fh:
            fh.write(bytes(16))
        with pytest.raises(DataError, match="index describes 48"):
            ad.load_checkpoint(path)

    def test_missing_file_and_version_mismatch(self, tmp_path):
        path = str(tmp_path / "ckpt")
        with pytest.raises(DataError, match="cannot read"):
            ad.load_checkpoint(path)
        ad.save_checkpoint(path, {"a": np.zeros(2)}, metadata={"format_version": 1})
        assert ad.load_checkpoint(path, format_version=1)[1]["format_version"] == 1
        with pytest.raises(DataError, match="format version 1, expected 2"):
            ad.load_checkpoint(path, format_version=2)

    def test_interrupted_write_keeps_previous_files(self, tmp_path):
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(3.0)}, metadata={"n": 1})

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        want = re.escape("cannot write %s.tmp: disk full" % path)
        with pytest.raises(DataError, match=want):
            ad.save_checkpoint(path, {"a": np.zeros(5), "b": Unwritable()},
                               metadata={"n": 2})
        arrays, meta = ad.load_checkpoint(path)
        assert arrays["a"].tolist() == [0.0, 1.0, 2.0] and meta == {"n": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]

    def test_failed_index_write_keeps_the_previous_blob(self, tmp_path, monkeypatch):
        # the disk fills after the new header: the half-written file must not
        # replace the old one
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(3.0)}, metadata={"n": 1})
        with open(path, "rb") as fh:
            blob = fh.read()
        reference.fill_disk(monkeypatch, path + ".tmp", room=len(blob) - 8 * 3)
        want = re.escape("cannot write %s.tmp: No space left" % path)
        with pytest.raises(DataError, match=want):
            ad.save_checkpoint(path, {"a": np.arange(5.0)}, metadata={"n": 2})
        monkeypatch.undo()
        with open(path, "rb") as fh:
            assert fh.read() == blob
        arrays, meta = ad.load_checkpoint(path)
        assert arrays["a"].tolist() == [0.0, 1.0, 2.0] and meta == {"n": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]

    def test_failed_rename_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        # the new file is written in full, but it cannot be moved into place
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(3.0)}, metadata={"n": 1})

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", no_space)
        want = re.escape("cannot write %s.tmp: No space left" % path)
        with pytest.raises(DataError, match=want):
            ad.save_checkpoint(path, {"a": np.arange(5.0)}, metadata={"n": 2})
        monkeypatch.undo()
        arrays, meta = ad.load_checkpoint(path)
        assert arrays["a"].tolist() == [0.0, 1.0, 2.0] and meta == {"n": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]

    @pytest.mark.parametrize("damage, message", [
        (lambda data: b"not a checkpoint\n" + data,
         "does not start with 'oneshot-kgc-checkpoint '"),
        (lambda data: data[:23] + b"9999999999" + data[33:], "header runs past the end"),
        (lambda data: data[:23] + b"00000000x1" + data[33:], "does not start with"),
        (lambda data: data[:30], "does not start with"),
    ], ids=["magic", "header-length", "digits", "short"])
    def test_file_without_a_whole_magic_line_and_header_is_data_error(self, tmp_path, damage,
                                                                      message):
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"a": np.arange(3.0)}, metadata={"n": 1})
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(data))
        with pytest.raises(DataError, match=re.escape(message)):
            ad.load_checkpoint(path)

    def test_header_is_indented_json_before_8_byte_aligned_arrays(self, tmp_path):
        # ``head`` shows the index and the metadata, keys sorted
        path = str(tmp_path / "ckpt")
        ad.save_checkpoint(path, {"b": np.arange(3.0), "a": np.ones((2, 2))},
                           metadata={"kind": "test"})
        with open(path, "rb") as fh:
            data = fh.read()
        header, section = reference.split_checkpoint(path)
        assert header == {"metadata": {"kind": "test"},
                          "params": {"a": {"offset": 0, "shape": [2, 2]},
                                     "b": {"offset": 32, "shape": [3]}}}
        text = json.dumps(header, indent=2, sort_keys=True).encode()
        assert data.startswith(b"oneshot-kgc-checkpoint ")
        assert data[data.index(b"\n") + 1:].startswith(text)
        start = len(data) - len(section)
        assert start % 8 == 0 and ad.read_checkpoint_index(path)[2] == start
        assert section == np.ones(4).tobytes() + np.arange(3.0).tobytes()

