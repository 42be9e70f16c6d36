"""Network init, forward/loss/backprop, training behavior, evaluation."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

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
from whisksim.pipeline import Dataset, split

SMALL_ARCH = MlpArchitecture((200, 16, 8, 7))


def _random_batch(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, scale, (n, 200))
    labels = rng.integers(1, 8, size=n)
    return x, labels


def _dataset_from(x, labels):
    return Dataset(x, labels, np.arange(len(labels)))


class TestArchitecture:
    def test_default_is_seven_node_layers(self):
        arch = MlpArchitecture()
        assert arch.layer_sizes == DEFAULT_LAYER_SIZES
        assert len(arch.layer_sizes) == 7
        assert arch.n_weight_layers == 6

    def test_input_output_pinned(self):
        with pytest.raises(PhysicsError):
            MlpArchitecture((100, 16, 7))
        with pytest.raises(PhysicsError):
            MlpArchitecture((200, 16, 5))
        with pytest.raises(PhysicsError):
            MlpArchitecture((200, 0, 7))


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

    def test_single_vector_in_vector_out(self):
        model = init(SMALL_ARCH, 3)
        x, _ = _random_batch(1, seed=2)
        probs = forward(model, x[0])
        assert probs.shape == (7,)

    def test_zero_parameters_give_uniform(self):
        model = init(SMALL_ARCH, 0)
        for w in model.weights:
            w[:] = 0.0
        probs = forward(model, np.ones(200))
        assert np.allclose(probs, 1.0 / 7.0, atol=1e-12)

    def test_logit_shift_invariance(self):
        model = init(SMALL_ARCH, 5)
        shifted = model.copy()
        shifted.biases[-1] += 13.7
        x, _ = _random_batch(4, seed=3)
        assert np.allclose(forward(model, x), forward(shifted, x), atol=1e-12)

    def test_rejects_non_finite_input(self):
        model = init(SMALL_ARCH, 5)
        bad = np.ones(200)
        bad[0] = np.inf
        with pytest.raises(PhysicsError):
            forward(model, bad)


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
        # independent central-difference probe, distinct from gradient_check()
        model = init(SMALL_ARCH, 11)
        x, labels = _random_batch(1, seed=4)
        w_grads, b_grads = gradients(model, x, labels)
        rng = np.random.default_rng(12)
        h = 1e-5
        worst = 0.0
        for layer in range(model.arch.n_weight_layers):
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
        assert forward(model, x[0])[2] == 1.0
        w_grads, b_grads = gradients(model, x, np.array([3]))
        assert np.all(w_grads[-1] == 0.0)
        assert np.all(b_grads[-1] == 0.0)

    def test_rejects_empty_batch(self):
        model = init(SMALL_ARCH, 15)
        with pytest.raises(PhysicsError):
            gradients(model, np.empty((0, 200)), np.empty(0, dtype=int))


class TestTrain:
    def _toy(self, n=64, seed=0):
        x, labels = _random_batch(n, seed=seed, scale=0.3)
        return _dataset_from(x, labels)

    def test_zero_learning_rate_changes_nothing(self):
        ds = self._toy()
        model = init(SMALL_ARCH, 21)
        trained, history = train(model, ds, TrainConfig(0.0, 5, 8, seed=1))
        for a, b in zip(model.weights, trained.weights):
            assert np.array_equal(a, b)
        assert history == [history[0]] * 5

    def test_full_batch_epoch_is_one_gradient_step(self):
        ds = self._toy(n=24)
        model = init(SMALL_ARCH, 24)
        cfg = TrainConfig(0.05, 1, 24, seed=4)
        perm = np.random.default_rng(cfg.seed).permutation(len(ds))
        w_grads, b_grads = gradients(model, ds.features()[perm], ds.labels()[perm])
        trained, _ = train(model, ds, cfg)
        for i in range(SMALL_ARCH.n_weight_layers):
            assert np.array_equal(trained.weights[i],
                                  model.weights[i] - cfg.learning_rate * w_grads[i])
            assert np.array_equal(trained.biases[i],
                                  model.biases[i] - cfg.learning_rate * b_grads[i])

    def test_a_split_subset_trains_as_its_gathered_rows(self):
        # batches gathered through the subset's row indices are the same
        # float64 rows as batches of the gathered matrix
        ds = self._toy(n=140, seed=3)
        subset, _ = split(ds, 0.75, 8)
        copied = Dataset(subset.features(), subset.labels(), subset.window_idx())
        model = init(SMALL_ARCH, 25)
        cfg = TrainConfig(0.05, 3, 8, seed=6)
        (a, history_a), (b, history_b) = train(model, subset, cfg), train(model, copied, cfg)
        assert history_a == history_b
        for p, q in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(p, q)

    def test_input_model_untouched(self):
        ds = self._toy()
        model = init(SMALL_ARCH, 22)
        snapshot = [w.copy() for w in model.weights]
        train(model, ds, TrainConfig(0.05, 3, 8, seed=2))
        for a, b in zip(model.weights, snapshot):
            assert np.array_equal(a, b)

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
            cfg, cfg.speed_m_s, experiment.resolve_profiles(cfg), ("synth",))
        train_set, _ = pipeline.split(dataset, cfg.train_fraction, 0)
        model = mlp.init(mlp.MlpArchitecture(), 0)
        train_cfg = mlp.TrainConfig(epochs=5)   # the default network and batch
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mlp.train(model, train_set, train_cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        steps = train_cfg.epochs * math.ceil(len(train_set) / train_cfg.batch_size)
        print(len(train_set), faults / steps)
        """)
    src = os.path.dirname(os.path.dirname(whisksim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    vectors, faults_per_step = out.split()
    assert int(vectors) == 525
    assert float(faults_per_step) < 20


class TestEvaluate:
    def test_perfect_predictor_is_diagonal(self):
        model = init(SMALL_ARCH, 41)
        x, _ = _random_batch(525, seed=8)
        predicted = forward(model, x).argmax(axis=1) + 1
        ds = _dataset_from(x, predicted)
        matrix = evaluate(model, ds)
        assert matrix.counts.sum() == 525
        assert np.trace(matrix.counts) == 525
        assert matrix.overall_accuracy == 1.0

    def test_row_sums_equal_class_counts(self):
        model = init(SMALL_ARCH, 42)
        x, labels = _random_batch(140, seed=9)
        ds = _dataset_from(x, labels)
        matrix = evaluate(model, ds)
        expected = np.bincount(labels, minlength=8)[1:]
        assert np.array_equal(matrix.counts.sum(axis=1), expected)

    def test_random_labels_score_near_chance(self):
        # balanced labels assigned independently of the inputs: accuracy is
        # binomial around 1/7; bound at 99% confidence for n=525
        model = init(SMALL_ARCH, 43)
        x, _ = _random_batch(525, seed=10)
        labels = np.repeat(np.arange(1, 8), 75)
        np.random.default_rng(11).shuffle(labels)
        matrix = evaluate(model, _dataset_from(x, labels))
        p = 1.0 / 7.0
        bound = 2.576 * math.sqrt(p * (1.0 - p) / 525.0)
        assert abs(matrix.overall_accuracy - p) < bound

    def test_argmax_invariant_to_positive_output_scaling(self):
        model = init(SMALL_ARCH, 44)
        scaled = model.copy()
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
        matrix = evaluate(model, _dataset_from(x, labels))
        expected = np.zeros((7, 7), dtype=int)
        np.add.at(expected, (labels - 1, logits.argmax(axis=1)), 1)
        assert np.array_equal(matrix.counts, expected)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.array_equal(forward(model, x),
                              shifted / shifted.sum(axis=1, keepdims=True))

    def test_empty_test_set_is_an_error(self):
        with pytest.raises(PhysicsError):
            evaluate(init(SMALL_ARCH, 45),
                     Dataset(np.empty((0, 200)), [], []))
