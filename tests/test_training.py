import logging

import numpy as np
import pytest

from topolstm.datagen import SynthConfig, generate_dataset
from topolstm.errors import DivergenceError
from topolstm.graph import Cascade, DataGraph
from topolstm.model import Model, ModelConfig, backward_cascade, forward_cascade
from topolstm.numeric import Adam
from topolstm import training
from topolstm.training import TrainConfig, objective, split_dataset, train

from conftest import random_cascade, random_graph


def tiny_dataset(rng, m=12, n_cascades=6, length=(3, 6)):
    graph = random_graph(rng, m, 4 * m)
    cascades = [random_cascade(rng, m, int(rng.integers(*length)))
                for _ in range(n_cascades)]
    return graph, cascades


def small_chain_data(n_casc=40):
    config = SynthConfig(node_count=20, graph_model="chain", edge_param=0,
                         activation_prob=1.0, cascade_count=n_casc,
                         max_cascade_length=6, seed=5)
    return generate_dataset(config)


class TestSplitDataset:
    def test_documented_floor_rule_on_100(self):
        cascades = [Cascade((i, i + 1)) for i in range(0, 200, 2)]
        train_set, val_set, test_set = split_dataset(cascades, seed=0)
        assert (len(train_set), len(val_set), len(test_set)) == (68, 7, 25)

    def test_disjoint_and_exhaustive(self):
        cascades = [Cascade((i, i + 1)) for i in range(0, 120, 2)]
        parts = split_dataset(cascades, seed=3)
        seen = [c.nodes for part in parts for c in part]
        assert len(seen) == len(cascades)
        assert len(set(seen)) == len(cascades)

    def test_same_seed_same_split(self):
        cascades = [Cascade((i, i + 1)) for i in range(0, 60, 2)]
        a = split_dataset(cascades, seed=11)
        b = split_dataset(cascades, seed=11)
        assert all([x.nodes for x in pa] == [y.nodes for y in pb]
                   for pa, pb in zip(a, b))

    def test_full_train_fraction_rejected(self):
        cascades = [Cascade((0, 1))] * 5
        with pytest.raises(ValueError):
            split_dataset(cascades, train_frac=1.0)

    def test_too_few_cascades(self):
        with pytest.raises(ValueError):
            split_dataset([Cascade((0, 1)), Cascade((1, 2))])


class TestObjective:
    def test_lambda_zero_is_mean_nll(self):
        rng = np.random.default_rng(60)
        graph, cascades = tiny_dataset(rng)
        model = Model.initialize(ModelConfig(4, graph.node_count), rng)
        total = 0.0
        steps = 0
        for c in cascades:
            result = forward_cascade(model, graph, c)
            total += result.total_loss
            steps += len(c) - 1
        assert objective(model, graph, cascades, 0.0) == pytest.approx(
            total / steps, rel=1e-12)

    def test_single_candidate_dataset_reduces_to_regularizer(self):
        g = DataGraph.from_edges(2, [(0, 1)])
        model = Model.initialize(ModelConfig(3, 2), np.random.default_rng(0))
        lam = 0.25
        want = lam * model.params.squared_l2()
        assert objective(model, g, [Cascade((0, 1))], lam) == pytest.approx(want)

    def test_linear_in_lambda(self):
        rng = np.random.default_rng(61)
        graph, cascades = tiny_dataset(rng)
        model = Model.initialize(ModelConfig(4, graph.node_count), rng)
        base = objective(model, graph, cascades, 0.0)
        one = objective(model, graph, cascades, 1e-3)
        two = objective(model, graph, cascades, 2e-3)
        assert two - base == pytest.approx(2.0 * (one - base), rel=1e-9)

    def test_length_one_excluded_with_warning(self, caplog):
        rng = np.random.default_rng(62)
        graph, cascades = tiny_dataset(rng)
        model = Model.initialize(ModelConfig(4, graph.node_count), rng)
        with_short = cascades + [Cascade((0,))]
        with caplog.at_level(logging.WARNING):
            a = objective(model, graph, with_short, 0.0)
        assert any("length-1" in rec.message for rec in caplog.records)
        assert a == pytest.approx(objective(model, graph, cascades, 0.0))

    def test_order_invariance(self):
        rng = np.random.default_rng(63)
        graph, cascades = tiny_dataset(rng)
        model = Model.initialize(ModelConfig(4, graph.node_count), rng)
        a = objective(model, graph, cascades, 1e-4)
        b = objective(model, graph, list(reversed(cascades)), 1e-4)
        assert a == pytest.approx(b, rel=1e-12)


class TestGradientAssembly:
    def test_batch_gradient_is_sum_over_step_count(self):
        rng = np.random.default_rng(64)
        graph, cascades = tiny_dataset(rng, n_cascades=3)
        model = Model.initialize(ModelConfig(3, graph.node_count), rng)
        combined = model.zero_grads()
        objective(model, graph, cascades, 0.0, combined)
        manual = model.zero_grads()
        steps = 0
        for c in cascades:
            backward_cascade(forward_cascade(model, graph, c), model, out=manual)
            steps += len(c) - 1
        manual.scale(1.0 / steps)
        for name, arr in combined.items():
            np.testing.assert_allclose(arr, manual[name], atol=1e-14)

    def test_one_small_gd_step_decreases_objective(self):
        # Line-search sanity: the analytic gradient is a descent direction.
        rng = np.random.default_rng(65)
        graph, cascades = tiny_dataset(rng)
        model = Model.initialize(ModelConfig(4, graph.node_count), rng)
        grads = model.zero_grads()
        base = objective(model, graph, cascades, 0.0, grads)
        for lr in (1e-1, 1e-2, 1e-3, 1e-4):
            trial = model.copy()
            trial.params.accumulate(grads, scale=-lr)
            if objective(trial, graph, cascades, 0.0) < base:
                return
        pytest.fail("no step size decreased the objective")


class TestTrain:
    def _config(self, **overrides):
        base = dict(learning_rate=1e-2, lam=0.0, batch_size=8, max_epochs=5,
                    patience=0, seed=0)
        base.update(overrides)
        return TrainConfig(**base)

    def test_zero_learning_rate_is_noop(self):
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=0)
        mc = ModelConfig(4, graph.node_count)
        model, report = train(graph, train_set, val_set,
                              self._config(learning_rate=0.0, max_epochs=4), mc)
        init = Model.initialize(mc, np.random.default_rng(0))
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, init.params[name])
        losses = [e.train_loss for e in report.epochs]
        assert max(losses) - min(losses) < 1e-12

    def test_zero_epochs_returns_initialization(self):
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=0)
        mc = ModelConfig(4, graph.node_count)
        model, report = train(graph, train_set, val_set,
                              self._config(max_epochs=0), mc)
        init = Model.initialize(mc, np.random.default_rng(0))
        assert report.epochs == []
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, init.params[name])

    def test_deterministic_repeat(self):
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=1)
        mc = ModelConfig(4, graph.node_count)
        cfg = self._config(max_epochs=4)
        m1, r1 = train(graph, train_set, val_set, cfg, mc)
        m2, r2 = train(graph, train_set, val_set, cfg, mc)
        assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
        assert [e.val_loss for e in r1.epochs] == [e.val_loss for e in r2.epochs]
        for name, arr in m1.params.items():
            np.testing.assert_array_equal(arr, m2.params[name])

    def test_workers_other_than_one_rejected(self):
        assert TrainConfig().workers == 1
        for workers in (0, 2):
            with pytest.raises(ValueError, match="workers must be 1"):
                TrainConfig(workers=workers)

    def test_bad_learning_rate_clip_norm_or_lam_rejected(self):
        bad = [("learning_rate", v) for v in (-1.0, -1e-9, float("nan"), float("inf"))]
        bad += [(name, v) for name in ("clip_norm", "lam")
                for v in (-0.5, float("nan"), float("inf"))]
        for name, value in bad:
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
        zero = TrainConfig(learning_rate=0.0, clip_norm=0.0)
        assert (zero.learning_rate, zero.clip_norm) == (0.0, 0.0)

    def test_full_batch_training_loss_monotone(self):
        # Full-batch run on the separable chain data: the logged loss equals
        # the objective at each epoch start and must not increase materially.
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=0)
        cfg = self._config(learning_rate=3e-3, batch_size=len(train_set),
                           max_epochs=20)
        _, report = train(graph, train_set, val_set, cfg,
                          ModelConfig(8, graph.node_count))
        losses = [e.train_loss for e in report.epochs]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-6

    @pytest.mark.parametrize("clip_fraction", [0.0, 0.5])
    def test_one_epoch_applies_exactly_the_objectives_gradient(self, clip_fraction):
        # Replay train()'s first full-batch step by hand: same rng draws,
        # objective() for the gradient, the same clip, one Adam step.
        rng = np.random.default_rng(66)
        graph, cascades = tiny_dataset(rng)
        mc = ModelConfig(4, graph.node_count)
        lam, lr, seed = 1e-2, 1e-2, 7
        replay_rng = np.random.default_rng(seed)
        replay = Model.initialize(mc, replay_rng)
        batch = [cascades[i] for i in replay_rng.permutation(len(cascades))]
        grads = replay.zero_grads()
        start = objective(replay, graph, batch, lam, grads)
        norm = np.sqrt(grads.squared_l2())
        clip_norm = clip_fraction * norm
        if clip_norm > 0 and norm > clip_norm:
            grads.scale(clip_norm / norm)
        Adam(replay.params, lr=lr).step(replay.params, grads)

        cfg = self._config(learning_rate=lr, lam=lam, batch_size=len(cascades),
                           max_epochs=1, seed=seed, clip_norm=clip_norm)
        model, report = train(graph, cascades, [], cfg, mc)
        np.testing.assert_array_equal(model.params.flat, replay.params.flat)
        assert report.epochs[0].train_loss == start

    def test_early_stopping_fires(self):
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=0)
        cfg = self._config(learning_rate=0.0, max_epochs=50, patience=3)
        _, report = train(graph, train_set, val_set, cfg,
                          ModelConfig(3, graph.node_count))
        assert report.stopped_early
        assert len(report.epochs) == 4  # epoch 1 sets best, then 3 flat epochs

    def test_divergence_aborts_with_report(self):
        graph, cascades, _ = small_chain_data()
        train_set, _, _ = split_dataset(cascades, seed=0)
        cfg = self._config(lam=1e308, batch_size=len(train_set), max_epochs=3)
        with pytest.raises(DivergenceError) as exc:
            train(graph, train_set, [], cfg, ModelConfig(3, graph.node_count))
        assert exc.value.report is not None

    def test_empty_training_set_rejected(self):
        graph, cascades, _ = small_chain_data()
        with pytest.raises(ValueError):
            train(graph, [], cascades[:2], self._config(),
                  ModelConfig(3, graph.node_count))

    def test_length_one_cascades_counted(self):
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=0)
        train_set = train_set + [Cascade((0,))]
        _, report = train(graph, train_set, val_set,
                          self._config(max_epochs=1),
                          ModelConfig(3, graph.node_count))
        assert report.dropped_short_cascades == 1

    def test_forward_cascade_called_once_per_train_and_validation_cascade(self, monkeypatch):
        # The benchmark takes its calibration readings inside train() through
        # this module binding, once per cascade.
        graph, cascades, _ = small_chain_data()
        train_set, val_set, _ = split_dataset(cascades, seed=0)
        train_set = train_set + [Cascade((0,))]     # dropped: no call
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return forward_cascade(*args, **kwargs)

        monkeypatch.setattr(training, "forward_cascade", counted)
        _, report = train(graph, train_set, val_set, self._config(max_epochs=3),
                          ModelConfig(3, graph.node_count))
        n_train, n_val = len(train_set) - 1, len(val_set)
        assert len(report.epochs) == 3 and n_val > 0
        assert len(calls) == 3 * (n_train + n_val)
        for epoch in range(3):
            seen = calls[epoch * (n_train + n_val):(epoch + 1) * (n_train + n_val)]
            assert sorted(c.nodes for c in seen[:n_train]) == sorted(
                c.nodes for c in train_set[:-1])
            assert seen[n_train:] == val_set
