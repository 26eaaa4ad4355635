import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topolstm
from topolstm.errors import NumericError, ShapeError
from topolstm.numeric import (Adam, FdCheckResult, GradientStore, Layout,
                              ParameterStore, finite_difference_check,
                              mean_pool, softmax, softmax_over_subset)


class TestParameterStore:
    def test_deterministic_order_and_shapes(self):
        store = ParameterStore({"b": np.zeros(3), "a": np.zeros((2, 2))})
        assert store.names() == ["b", "a"]
        assert store.total_size == 7

    def test_setitem_validates_shape(self):
        store = ParameterStore({"w": np.zeros((2, 3))})
        with pytest.raises(ShapeError, match="'w'"):
            store["w"] = np.zeros((3, 2))

    def test_unknown_slot(self):
        store = ParameterStore({"w": np.zeros(2)})
        with pytest.raises(ShapeError, match="'nope'"):
            store["nope"]

    def test_accumulate_requires_congruence(self):
        a = ParameterStore({"w": np.zeros(2)})
        b = ParameterStore({"w": np.zeros(3)})
        with pytest.raises(ShapeError):
            a.accumulate(b)

    def test_squared_l2(self):
        store = ParameterStore({"w": np.array([3.0, 4.0]), "b": np.array([1.0])})
        assert store.squared_l2() == pytest.approx(26.0)

    def test_squared_l2_same_bits_at_any_blas_thread_count(self):
        # The thread count is read when numpy loads, so each reading gets its
        # own interpreter.  A BLAS dot rounds these sums differently at 1 and 2.
        code = ("import numpy as np\n"
                "from topolstm.model import Model, ModelConfig\n"
                "for m in (200, 1000):\n"
                "    model = Model.initialize(ModelConfig(32, m), np.random.default_rng(0))\n"
                "    print(model.params.squared_l2().hex())\n")
        src = str(Path(topolstm.__file__).resolve().parents[1])
        readings = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
            env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            readings.append(run.stdout.split())
        assert readings[0] == readings[1]

    def test_flat_coordinate_roundtrip(self):
        store = ParameterStore({"a": np.arange(6, dtype=float).reshape(2, 3),
                                "b": np.arange(2, dtype=float)})
        seen = []
        for k in range(store.total_size):
            name, idx = store.flat_coordinate(k)
            seen.append(float(store[name][idx]))
        assert seen == [0, 1, 2, 3, 4, 5, 0, 1]


class TestFlatBuffer:
    def _store(self):
        return ParameterStore({"a": np.arange(6, dtype=float).reshape(2, 3),
                               "b": np.array([7.0, 8.0])})

    def test_slots_are_views_into_the_flat_vector(self):
        store = self._store()
        for _, arr in store.items():
            assert np.shares_memory(arr, store.flat)
        np.testing.assert_array_equal(store.flat, [0, 1, 2, 3, 4, 5, 7, 8])

    def test_setitem_writes_through(self):
        store = self._store()
        view = store["a"]
        store["a"] = np.ones((2, 3))
        assert store["a"] is view
        np.testing.assert_array_equal(store.flat[:6], np.ones(6))

    def test_copy_and_zeros_like_are_independent(self):
        store = self._store()
        for other in (store.copy(), store.zeros_like()):
            assert other.layout == store.layout
            assert not np.shares_memory(other.flat, store.flat)
            other["b"] = [-1.0, -1.0]
            np.testing.assert_array_equal(store["b"], [7.0, 8.0])
        np.testing.assert_array_equal(store.copy().flat, store.flat)
        assert not store.zeros_like().flat.any()

    def test_bulk_ops_act_on_every_slot(self):
        store = self._store()
        store.accumulate(store.copy(), scale=2.0)
        np.testing.assert_array_equal(store["b"], [21.0, 24.0])
        store.scale(0.5)
        np.testing.assert_array_equal(store["a"][1], [4.5, 6.0, 7.5])
        store.fill(1.5)
        assert store.squared_l2() == pytest.approx(8 * 2.25)

    def test_same_slots_in_another_layout_rejected(self):
        a = ParameterStore({"w": np.zeros(2), "v": np.zeros(2)})
        swapped = Layout(4, (("w", (2,), 2, (1,)), ("v", (2,), 0, (1,))))
        b = ParameterStore({"w": np.ones(2), "v": np.zeros(2)}, swapped)
        np.testing.assert_array_equal(b.flat, [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ShapeError, match="layout"):
            a.accumulate(b)

    def test_views_must_fit_the_vector(self):
        overhanging = Layout(4, (("w", (3,), 2, (1,)),))
        with pytest.raises(ValueError):
            overhanging.views(np.zeros(4), overhanging.slots)

    def test_fused_view_must_exist(self):
        with pytest.raises(ShapeError, match="'U'"):
            self._store().fused("U")

    def test_check_finite_names_the_slot(self):
        store = self._store()
        store.check_finite()
        store["b"][1] = np.inf
        with pytest.raises(NumericError, match="'b'"):
            store.check_finite()


class TestMeanPool:
    def test_arithmetic_mean(self):
        out = mean_pool([np.array([1.0, 2.0]), np.array([3.0, 4.0])], 2)
        np.testing.assert_allclose(out, [2.0, 3.0])

    def test_empty_gives_zero_vector(self):
        np.testing.assert_array_equal(mean_pool([], 3), np.zeros(3))

    def test_singleton_identity(self):
        v = np.array([5.0, -1.0, 0.5])
        np.testing.assert_allclose(mean_pool([v], 3), v)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        vecs = [rng.normal(size=4) for _ in range(6)]
        base = mean_pool(vecs, 4)
        for _ in range(5):
            perm = list(rng.permutation(6))
            np.testing.assert_allclose(mean_pool([vecs[i] for i in perm], 4),
                                       base, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mean_pool([np.zeros(2), np.zeros(3)], 2)


class TestSoftmaxOverSubset:
    def test_equal_scores_uniform(self):
        probs = softmax_over_subset({v: 7.0 for v in range(4)}, {0, 1, 2, 3})
        assert all(p == pytest.approx(0.25) for p in probs.values())

    def test_closed_form(self):
        probs = softmax_over_subset({0: 0.0, 1: np.log(3.0)}, {0, 1})
        assert probs[0] == pytest.approx(0.25)
        assert probs[1] == pytest.approx(0.75)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            softmax_over_subset({0: 1.0}, set())

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError, match="no score"):
            softmax_over_subset({0: 1.0}, {0, 1})

    def test_random_scores_sum_to_one_and_match_direct_formula(self):
        rng = np.random.default_rng(3)
        scores = {v: float(rng.normal()) for v in range(50)}
        probs = softmax_over_subset(scores, set(scores))
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        z = sum(np.exp(s) for s in scores.values())
        for v, s in scores.items():
            assert probs[v] == pytest.approx(np.exp(s) / z, rel=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        scores = {v: float(rng.normal()) for v in range(10)}
        shifted = {v: s + 123.456 for v, s in scores.items()}
        a = softmax_over_subset(scores, set(scores))
        b = softmax_over_subset(shifted, set(scores))
        for v in scores:
            assert a[v] == pytest.approx(b[v], rel=1e-10)

    def test_subset_restriction(self):
        probs = softmax_over_subset({0: 0.0, 1: 0.0, 2: 99.0}, {0, 1})
        assert set(probs) == {0, 1}
        assert probs[0] == pytest.approx(0.5)

    def test_large_scores_stable(self):
        probs = softmax_over_subset({0: 1e4, 1: 1e4 - 1}, {0, 1})
        assert np.isfinite(list(probs.values())).all()
        assert abs(sum(probs.values()) - 1.0) < 1e-12


class TestAdam:
    def _store(self, values):
        return ParameterStore({"w": np.array(values, dtype=float)})

    def test_zero_gradient_is_fixed_point(self):
        params = self._store([1.0, -2.0])
        opt = Adam(params, lr=0.1)
        for _ in range(5):
            opt.step(params, params.zeros_like())
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        params = self._store([0.0, 0.0, 0.0])
        grads = ParameterStore({"w": np.array([0.5, -3.0, 0.0])})
        opt = Adam(params, lr=0.01)
        opt.step(params, grads)
        np.testing.assert_allclose(params["w"], [-0.01, 0.01, 0.0], atol=1e-6)

    def test_quadratic_run(self):
        # Derived oracle run: norm descends strictly for the first 11 steps
        # (1.414 -> 0.007), overshoots on momentum, settles below 0.01.
        params = self._store([1.0, 1.0])
        opt = Adam(params, lr=0.1)
        norms = [float(np.linalg.norm(params["w"]))]
        for _ in range(100):
            opt.step(params, ParameterStore({"w": 2.0 * params["w"]}))
            norms.append(float(np.linalg.norm(params["w"])))
        for i in range(11):
            assert norms[i + 1] < norms[i]
        assert norms[11] < 0.01
        assert norms[-1] < 0.01

    def test_in_place_update_is_bit_identical_to_the_formula(self):
        rng = np.random.default_rng(9)
        params = self._store(rng.normal(size=64))
        theta, m, v = params["w"].copy(), np.zeros(64), np.zeros(64)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for k in range(1, 26):
            g = rng.normal(size=64) * 10.0 ** rng.integers(-6, 3, size=64)
            opt.step(params, ParameterStore({"w": g}))
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * np.square(g)
            theta = theta - lr * (m / (1.0 - beta1 ** k)) / (
                np.sqrt(v / (1.0 - beta2 ** k)) + eps)
            np.testing.assert_array_equal(params["w"], theta)

    def test_shape_mismatch(self):
        params = self._store([1.0])
        opt = Adam(params, lr=0.1)
        with pytest.raises(ShapeError):
            opt.step(params, ParameterStore({"w": np.zeros(2)}))


class TestFiniteDifferenceCheck:
    def test_quadratic_loss_exact(self):
        rng = np.random.default_rng(5)
        params = ParameterStore({"theta": rng.normal(size=7)})
        grads = GradientStore({"theta": params["theta"].copy()})
        loss = lambda p: 0.5 * float(np.sum(p["theta"] ** 2))
        res = finite_difference_check(loss, params, grads, samples=7, h=1e-5,
                                      rng=rng)
        assert isinstance(res, FdCheckResult)
        assert res.max_rel_error < 1e-9

    def test_corrupted_slot_detected_and_named(self):
        rng = np.random.default_rng(6)
        params = ParameterStore({"good": rng.normal(size=4),
                                 "bad": rng.normal(size=4)})
        grads = GradientStore({"good": params["good"].copy(),
                               "bad": params["bad"] + 1.5})
        loss = lambda p: 0.5 * float(sum(np.sum(a ** 2) for _, a in p.items()))
        res = finite_difference_check(loss, params, grads, samples=8, h=1e-5,
                                      rng=rng)
        assert res.max_rel_error > 1e-2
        assert res.worst_slot == "bad"
        assert "bad" in str(res)

    def test_nonfinite_loss_raises(self):
        params = ParameterStore({"w": np.ones(2)})
        grads = params.zeros_like()
        with pytest.raises(NumericError):
            finite_difference_check(lambda p: float("nan"), params, grads,
                                    samples=1, h=1e-5)

    def test_restores_parameters(self):
        params = ParameterStore({"w": np.array([1.0, 2.0])})
        grads = GradientStore({"w": params["w"].copy()})
        loss = lambda p: 0.5 * float(np.sum(p["w"] ** 2))
        finite_difference_check(loss, params, grads, samples=2, h=1e-5)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])
