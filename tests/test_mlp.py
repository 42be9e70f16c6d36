"""Network init, forward/loss/backprop, training behavior, evaluation."""

import copy
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import oracles
import whisksim
from whisksim.errors import PhysicsError, TrainingDivergedError
from whisksim.mlp import (
    DEFAULT_LAYER_SIZES,
    MlpArchitecture,
    TrainConfig,
    _batch_losses,
    _forward,
    evaluate,
    forward,
    gradients,
    init,
    train,
)
from whisksim.pipeline import BLOCK_ROWS, split

SMALL_ARCH = MlpArchitecture((200, 16, 8, 7))


def _random_batch(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, scale, (n, 200))
    labels = rng.integers(1, 8, size=n)
    return x, labels


def _dataset_from(x, labels):
    return oracles.plain_dataset(x, labels, np.arange(len(labels)))


class TestArchitecture:
    def test_default_is_seven_node_layers(self):
        arch = MlpArchitecture()
        assert arch.layer_sizes == DEFAULT_LAYER_SIZES
        assert len(arch.layer_sizes) == 7
        assert len(init(arch, 0).weights) == 6


class TestInit:
    def test_deterministic(self):
        a = init(MlpArchitecture(), 42)
        b = init(MlpArchitecture(), 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        model = init(MlpArchitecture(), 0)
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_first_layer_variance_he_scaled(self):
        model = init(MlpArchitecture(), 7)
        var = model.weights[0].var()
        assert abs(var - 2.0 / 200.0) < 0.2 * (2.0 / 200.0)

    def test_shapes_chain(self):
        model = init(MlpArchitecture(), 1)
        sizes = model.arch.layer_sizes
        for i, w in enumerate(model.weights):
            assert w.shape == (sizes[i], sizes[i + 1])


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = init(SMALL_ARCH, 3)
        x, _ = _random_batch(5, seed=1)
        probs = forward(model, x)
        assert probs.shape == (5, 7)
        assert np.all(probs > 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_batch_of_one_gives_one_row(self):
        model = init(SMALL_ARCH, 3)
        x, _ = _random_batch(1, seed=2)
        probs = forward(model, x)
        assert probs.shape == (1, 7)

    def test_zero_parameters_give_uniform(self):
        model = init(SMALL_ARCH, 0)
        for w in model.weights:
            w[:] = 0.0
        probs = forward(model, np.ones((1, 200)))
        assert np.allclose(probs, 1.0 / 7.0, atol=1e-12)

    def test_logit_shift_invariance(self):
        model = init(SMALL_ARCH, 5)
        shifted = copy.deepcopy(model)
        shifted.biases[-1] += 13.7
        x, _ = _random_batch(4, seed=3)
        assert np.allclose(forward(model, x), forward(shifted, x), atol=1e-12)


class TestLoss:
    def test_certain_prediction_is_zero(self):
        probs = np.zeros((1, 7))
        probs[0, 2] = 1.0
        assert _batch_losses(probs, np.array([3]))[0] == 0.0

    def test_uniform_is_ln_seven(self):
        losses = _batch_losses(np.full((1, 7), 1.0 / 7.0), np.array([4]))
        assert losses[0] == pytest.approx(math.log(7.0))

    def test_probability_floor(self):
        probs = np.full((1, 7), 1e-20)
        assert _batch_losses(probs, np.array([1]))[0] == pytest.approx(-math.log(1e-12))


class TestGradients:
    def test_match_finite_differences(self):
        # central differences on a small network; acceptance criterion 5
        # probes the default architecture the same way
        model = init(SMALL_ARCH, 11)
        x, labels = _random_batch(1, seed=4)
        w_grads, b_grads = gradients(model, x, labels)
        rng = np.random.default_rng(12)
        h = 1e-5
        worst = 0.0
        for layer in range(len(model.weights)):
            flat = model.weights[layer].reshape(-1)
            gflat = w_grads[layer].reshape(-1)
            for idx in rng.choice(flat.size, size=min(50, flat.size),
                                  replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                up = float(_batch_losses(_forward(model, x)[0], labels).mean())
                flat[idx] = keep - h
                dn = float(_batch_losses(_forward(model, x)[0], labels).mean())
                flat[idx] = keep
                numeric = (up - dn) / (2.0 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / denom)
        assert worst < 1e-5

    def test_duplicated_batch_equals_single_sample(self):
        model = init(SMALL_ARCH, 13)
        x, labels = _random_batch(1, seed=5)
        x4 = np.repeat(x, 4, axis=0)
        l4 = np.repeat(labels, 4)
        w1, b1 = gradients(model, x, labels)
        w4, b4 = gradients(model, x4, l4)
        for a, b in zip(w1 + b1, w4 + b4):
            assert np.allclose(a, b, atol=1e-12)

    def test_saturated_correct_prediction_gives_zero_output_grad(self):
        model = init(SMALL_ARCH, 14)
        # force p_label == 1 exactly through an overwhelming output bias
        model.biases[-1][:] = -500.0
        model.biases[-1][2] = 500.0
        x, _ = _random_batch(1, seed=6)
        assert forward(model, x)[0, 2] == 1.0
        w_grads, b_grads = gradients(model, x, np.array([3]))
        assert np.all(w_grads[-1] == 0.0)
        assert np.all(b_grads[-1] == 0.0)


class TestTrain:
    def _toy(self, n=64, seed=0):
        x, labels = _random_batch(n, seed=seed, scale=0.3)
        return _dataset_from(x, labels)

    def test_zero_learning_rate_changes_nothing(self):
        ds = self._toy()
        model = init(SMALL_ARCH, 21)
        trained, history = train(copy.deepcopy(model), ds, TrainConfig(0.0, 5, 8, seed=1))
        for a, b in zip(model.weights, trained.weights):
            assert np.array_equal(a, b)
        assert history == [history[0]] * 5

    @pytest.mark.parametrize("batch_size", [24, 8])   # one and three steps an epoch
    def test_full_batch_epoch_is_one_gradient_step(self, batch_size):
        # each step is p - lr * g with g from gradients, to the bit
        ds = self._toy(n=24)
        model = init(SMALL_ARCH, 24)
        cfg = TrainConfig(0.05, 2, batch_size, seed=4)
        trained, _ = train(copy.deepcopy(model), ds, cfg)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(ds))
            for start in range(0, len(ds), batch_size):
                idx = perm[start:start + batch_size]
                w_grads, b_grads = gradients(model, ds.features()[idx], ds.labels()[idx])
                model.weights = [w - cfg.learning_rate * g
                                 for w, g in zip(model.weights, w_grads)]
                model.biases = [b - cfg.learning_rate * g
                                for b, g in zip(model.biases, b_grads)]
        for p, q in zip(trained.weights + trained.biases, model.weights + model.biases):
            assert np.array_equal(p, q)

    def test_a_split_subset_trains_as_its_gathered_rows(self):
        # batches gathered through the subset's row indices are the same
        # float64 rows as batches of the gathered matrix
        ds = self._toy(n=140, seed=3)
        subset, _ = split(ds, 0.75, 8)
        copied = oracles.plain_dataset(subset.features(), subset.labels(),
                                       subset.window_idx())
        model = init(SMALL_ARCH, 25)
        cfg = TrainConfig(0.05, 3, 8, seed=6)
        a, history_a = train(copy.deepcopy(model), subset, cfg)
        b, history_b = train(model, copied, cfg)
        assert history_a == history_b
        for p, q in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(p, q)

    def test_updates_the_model_it_is_given(self):
        model = init(SMALL_ARCH, 22)
        before = copy.deepcopy(model)
        trained, _ = train(model, self._toy(), TrainConfig(0.05, 3, 8, seed=2))
        assert trained is model
        assert not np.array_equal(model.weights[0], before.weights[0])

    def test_deterministic(self):
        ds = self._toy()
        a, ha = train(init(SMALL_ARCH, 23), ds, TrainConfig(0.05, 4, 8, seed=3))
        b, hb = train(init(SMALL_ARCH, 23), ds, TrainConfig(0.05, 4, 8, seed=3))
        assert ha == hb
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_history_length_equals_epochs(self):
        ds = self._toy()
        _, history = train(init(SMALL_ARCH, 24), ds, TrainConfig(0.01, 7, 8, seed=4))
        assert len(history) == 7

    def test_batch_size_larger_than_dataset_is_an_error(self):
        ds = self._toy(n=8)
        with pytest.raises(PhysicsError):
            train(init(SMALL_ARCH, 25), ds, TrainConfig(0.01, 1, 9, seed=5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_with_epoch_index(self):
        ds = self._toy(n=32, seed=9)
        with pytest.raises(TrainingDivergedError,
                           match=r"^epoch \d+, batch \d+: non-finite .*layer \d+$"):
            train(init(SMALL_ARCH, 26), ds, TrainConfig(1e18, 6, 8, seed=6))

    def test_separable_two_class_toy_converges(self):
        # linearly separable pair of classes: loss under 0.05 well within
        # 200 epochs at lr 0.01
        rng = np.random.default_rng(31)
        rows, labels = [], []
        for i in range(60):
            base = np.zeros(200)
            if i % 2 == 0:
                base[10] = 1.0
                labels.append(1)
            else:
                base[50] = 1.0
                labels.append(2)
            rows.append(base + rng.normal(0.0, 0.05, 200))
        ds = _dataset_from(np.array(rows), np.array(labels))
        _, history = train(init(SMALL_ARCH, 27), ds,
                           TrainConfig(0.01, 200, 8, seed=7))
        assert history[-1] < 0.05


def _run_script(script, timeout):
    """The standard output of script, run in a fresh interpreter that
    imports this whisksim."""
    src = os.path.dirname(os.path.dirname(whisksim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=timeout).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage")
def test_sgd_steps_cause_no_page_faults():
    # fresh w_grad and lr * w_grad arrays of the 200 x 256 layer at each
    # step took 100 to 250 minor faults a step: glibc mapped them afresh
    script = textwrap.dedent("""
        import math, resource
        from whisksim import experiment, mlp, pipeline
        from whisksim.config import config_from_dict

        cfg = config_from_dict({"duration_s": 100})
        dataset = experiment.build_labeled_dataset(
            cfg, cfg.speed_m_s, experiment.resolve_profiles(cfg), experiment.SYNTH_SCOPE)
        train_set, _ = pipeline.split(dataset, cfg.train_fraction, 0)
        model = mlp.init(mlp.MlpArchitecture(), 0)
        train_cfg = mlp.TrainConfig(epochs=5)   # the default network and batch
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mlp.train(model, train_set, train_cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        steps = train_cfg.epochs * math.ceil(len(train_set) / train_cfg.batch_size)
        print(len(train_set), faults / steps)
        """)
    vectors, faults_per_step = _run_script(script, timeout=120).split()
    assert int(vectors) == 525
    assert float(faults_per_step) < 20


class TestEvaluate:
    def test_perfect_predictor_is_diagonal(self):
        model = init(SMALL_ARCH, 41)
        x, _ = _random_batch(525, seed=8)
        predicted = forward(model, x).argmax(axis=1) + 1
        ds = _dataset_from(x, predicted)
        counts = evaluate(model, ds)
        assert counts.sum() == 525
        assert np.trace(counts) == 525

    def test_row_sums_equal_class_counts(self):
        model = init(SMALL_ARCH, 42)
        x, labels = _random_batch(140, seed=9)
        ds = _dataset_from(x, labels)
        counts = evaluate(model, ds)
        expected = np.bincount(labels, minlength=8)[1:]
        assert np.array_equal(counts.sum(axis=1), expected)

    def test_random_labels_score_near_chance(self):
        # balanced labels assigned independently of the inputs: accuracy is
        # binomial around 1/7; bound at 99% confidence for n=525
        model = init(SMALL_ARCH, 43)
        x, _ = _random_batch(525, seed=10)
        labels = np.repeat(np.arange(1, 8), 75)
        np.random.default_rng(11).shuffle(labels)
        counts = evaluate(model, _dataset_from(x, labels))
        p = 1.0 / 7.0
        bound = 2.576 * math.sqrt(p * (1.0 - p) / 525.0)
        assert abs(np.trace(counts) / counts.sum() - p) < bound

    def test_argmax_invariant_to_positive_output_scaling(self):
        model = init(SMALL_ARCH, 44)
        scaled = copy.deepcopy(model)
        scaled.weights[-1] *= 37.0   # output biases are zero at init
        x, _ = _random_batch(50, seed=12)
        a = forward(model, x).argmax(axis=1)
        b = forward(scaled, x).argmax(axis=1)
        assert np.array_equal(a, b)

    def test_in_place_layers_match_the_textbook_forward_pass(self):
        model = init(SMALL_ARCH, 46)
        for b in model.biases:
            b += np.random.default_rng(13).normal(0.0, 0.1, b.shape)
        x, labels = _random_batch(300, seed=14)
        h = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        logits = h @ model.weights[-1] + model.biases[-1]
        counts = evaluate(model, _dataset_from(x, labels))
        expected = np.zeros((7, 7), dtype=int)
        np.add.at(expected, (labels - 1, logits.argmax(axis=1)), 1)
        assert np.array_equal(counts, expected)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.array_equal(forward(model, x),
                              shifted / shifted.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 33, 49, 525])
    def test_blocks_give_the_one_shot_counts(self, rows, trained):
        # the test rows are a scattered subset of a larger matrix, with
        # inputs that depend on the label, so a trained model tells classes
        # apart and each block's labels must meet its own predictions
        rng = np.random.default_rng(rows)
        labels = rng.integers(1, 8, size=600)
        x = rng.normal(0.0, 1.0, (600, 200)) + labels[:, None] * np.linspace(-1, 1, 200)
        ds = _dataset_from(x, labels)
        test_set = ds.take(np.sort(rng.choice(600, rows, replace=False)))
        model = init(MlpArchitecture(), 47)
        if trained:
            train(model, ds, TrainConfig(0.001, 3, 32, seed=5))
        counts = evaluate(model, test_set)
        assert counts.sum() == rows
        assert np.array_equal(counts, oracles.one_shot_evaluate(model, test_set))

    def test_a_non_finite_row_in_the_last_block_is_refused_as_in_one_shot(self):
        rng = np.random.default_rng(15)
        x, labels = rng.normal(0.0, 1.0, (49, 200)), rng.integers(1, 8, size=49)
        x[48, 3] = np.inf   # the one row of the fourth block of 16
        model, ds = init(SMALL_ARCH, 48), _dataset_from(x, labels)
        with pytest.raises(TrainingDivergedError) as blocked:
            evaluate(model, ds)
        with pytest.raises(TrainingDivergedError) as one_shot:
            oracles.one_shot_evaluate(model, ds)
        assert str(blocked.value) == str(one_shot.value)
        assert str(blocked.value) == "non-finite activations after layer 0"

    def test_default_test_set_peaks_below_a_twentieth_of_the_matrix(
            self, default_config, default_dataset):
        # one block of 16 rows and its layers at a time: about 0.03 times
        # the matrix (the whole test set gathered and passed at once: 0.73)
        _, test_set = split(default_dataset, default_config.train_fraction, 0)
        model = init(MlpArchitecture(), 0)
        evaluate(model, test_set)   # imports and caches
        tracemalloc.start()
        try:
            evaluate(model, test_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(test_set) == 525 == 32 * BLOCK_ROWS + 13
        assert peak < 0.05 * default_dataset.features().nbytes


def test_split_and_evaluate_leave_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma (numpy 2.4.6 does), about
    # 1.6 MiB in each worker that splits; split finds the labels without
    # it. Where np.unique does not import numpy.ma this passes trivially.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from whisksim import mlp, pipeline

        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(1, 8), 7)
        dataset = pipeline.Dataset(rng.normal(0.0, 1.0, (49, 200)), np.arange(49),
                                   labels, np.arange(49))
        _, test_set = pipeline.split(dataset, 0.75, 0)
        counts = mlp.evaluate(mlp.init(mlp.MlpArchitecture(), 0), test_set)
        print(int(counts.sum()), "numpy.ma" in sys.modules)
        """)
    assert _run_script(script, timeout=60).split() == ["14", "False"]
