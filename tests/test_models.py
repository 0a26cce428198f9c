from dataclasses import replace

import numpy as np
import pytest

from tsadkit.core import (
    ConfigError,
    Entity,
    InsufficientDataError,
    SeriesMatrix,
    TrainingError,
)
from tsadkit.ingest import AnomalySpec, SyntheticSpec, WindowSpec, generate_synthetic
from tsadkit.models import (
    MlpAutoencoder,
    ModelConfig,
    PcaModel,
    autoencoder_widths,
    encoder_widths,
    fit,
    residuals,
)
from tsadkit.models.mlp import Adam
from reference import fd_gradient


def entity_from(train, test=None, labels=None, eid="e"):
    train = np.asarray(train, dtype=np.float64)
    test = train if test is None else np.asarray(test, dtype=np.float64)
    labels = np.zeros(test.shape[0], dtype=np.int64) if labels is None else labels
    return Entity(eid, SeriesMatrix(train), SeriesMatrix(test), labels)


class TestWidths:
    def test_halving_chain(self):
        assert encoder_widths(100, 5) == (100, 50, 25, 12, 6, 5)
        assert encoder_widths(8, 2) == (8, 4, 2)

    def test_floor_at_latent(self):
        # 10 -> 5 -> 2: the floor keeps the tail from undershooting
        assert encoder_widths(10, 4) == (10, 5, 4)

    def test_mirrored_decoder(self):
        widths = autoencoder_widths(16, 2)
        assert widths == (16, 8, 4, 2, 4, 8, 16)
        assert widths == widths[::-1]

    def test_input_must_exceed_latent(self):
        with pytest.raises(ConfigError):
            encoder_widths(5, 5)
        with pytest.raises(ConfigError):
            encoder_widths(3, 8)


class TestMlpAutoencoder:
    def test_forward_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        model = MlpAutoencoder(autoencoder_widths(8, 2), rng)
        x = np.random.default_rng(1).normal(size=(5, 8))
        out = model.forward(x)
        assert out.shape == (5, 8)
        model2 = MlpAutoencoder(autoencoder_widths(8, 2), np.random.default_rng(0))
        assert np.array_equal(out, model2.forward(x))

    def test_init_bounds(self):
        rng = np.random.default_rng(3)
        model = MlpAutoencoder((6, 3, 6), rng)
        w0 = model.weights[0]
        limit = np.sqrt(6.0 / (6 + 3))
        assert np.abs(w0).max() <= limit
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_single_hidden_unit_hand_gradient(self):
        # widths (1, 1, 1)... smallest legal net is (2, 1, 2); use a hand
        # case on (2, 1, 2) with one sample instead
        model = MlpAutoencoder((2, 1, 2), np.random.default_rng(7))
        x = np.array([[0.3, -0.4]])
        w1, b1 = model.weights[0], model.biases[0]
        w2, b2 = model.weights[1], model.biases[1]
        h = np.tanh(x @ w1 + b1)
        y = h @ w2 + b2
        diff = y - x
        # full-mean MSE: gradient of (1/(n*d)) * sum diff^2
        delta = 2.0 * diff / diff.size
        dw2 = h.T @ delta
        dh = delta @ w2.T
        dz = dh * (1 - h**2)
        dw1 = x.T @ dz
        loss, grads = model.loss_and_gradients(x)
        assert loss == pytest.approx(float((diff**2).mean()))
        assert np.allclose(grads[0][0], dw1, atol=1e-12)
        assert np.allclose(grads[1][0], dw2, atol=1e-12)
        assert np.allclose(grads[1][1], delta.sum(axis=0), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            widths = autoencoder_widths(8, 2)
            model = MlpAutoencoder(widths, rng)
            x = rng.normal(size=(4, 8))
            _, grads = model.loss_and_gradients(x)
            flat = [g for pair in grads for g in pair]
            fd = fd_gradient(lambda: model.loss(x), model.parameters())
            for a, b in zip(flat, fd):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
                assert (np.abs(a - b) / denom).max() <= 1e-4

    def test_adam_reduces_loss(self):
        rng = np.random.default_rng(5)
        model = MlpAutoencoder((4, 2, 4), rng)
        x = rng.normal(size=(32, 4))
        opt = Adam(model.parameters(), learning_rate=1e-2)
        first = model.loss(x)
        for _ in range(200):
            _, grads = model.loss_and_gradients(x)
            opt.step(model.parameters(), [g for pair in grads for g in pair])
        assert model.loss(x) < first * 0.5


class TestPca:
    def test_rank_one_single_component(self):
        rng = np.random.default_rng(8)
        c1 = rng.normal(size=100)
        data = np.column_stack([c1, 2.0 * c1])
        model = PcaModel.fit(data)
        assert model.q == 1
        assert np.abs(model.residuals(data)).max() < 1e-10

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))
        model = PcaModel.fit(data)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(model.q)).max() < 1e-8

    def test_variance_fraction_boundary(self):
        # two orthogonal directions at variance split 0.8 / 0.2: the first
        # alone misses 0.9, so q must be 2
        rng = np.random.default_rng(3)
        n = 4000
        a = rng.normal(size=n) * np.sqrt(0.8)
        b = rng.normal(size=n) * np.sqrt(0.2)
        data = np.column_stack([a, b])
        model = PcaModel.fit(data)
        assert model.q == 2
        assert model.retained_variance >= 0.9

    def test_dropping_last_component_breaks_threshold(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            m = int(rng.integers(2, 7))
            scales = rng.random(m) + 0.1
            data = rng.normal(size=(300, m)) * scales
            model = PcaModel.fit(data)
            ev = model.explained_variance_ratio
            assert ev[: model.q].sum() >= 0.9 - 1e-12
            if model.q > 1:
                assert ev[: model.q - 1].sum() < 0.9

    def test_constant_data_reconstructs_mean(self):
        data = np.full((10, 3), 2.5)
        model = PcaModel.fit(data)
        assert model.q == 0
        assert np.abs(model.residuals(data)).max() == 0.0

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            PcaModel.fit(np.zeros((1, 2)))


class TestModelConfig:
    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig("transformer")

    def test_defaults_resolved_per_kind(self):
        uae = ModelConfig("uae").resolved(7)
        assert (uae.latent_dim, uae.learning_rate, uae.batch_size) == (5, 1e-3, 256)
        fc = ModelConfig("fc_ae").resolved(7)
        assert (fc.latent_dim, fc.learning_rate, fc.batch_size) == (3, 1e-4, 128)
        assert ModelConfig("fc_ae").resolved(1).latent_dim == 1

    def test_validation_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig("uae", validation_fraction=0.0)
        with pytest.raises(ConfigError):
            ModelConfig("uae", validation_fraction=1.0)


class TestFitAndResiduals:
    def test_raw_error_is_signal(self):
        ent = entity_from([[0.1, 0.2], [0.3, 0.4]], [[0.7, 0.5]])
        model = fit(ent, ModelConfig("raw"), WindowSpec(1, 1))
        err = residuals(model, ent.test, WindowSpec(1, 1))
        assert err[0, 0] == 0.7 and err[0, 1] == 0.5

    def test_pca_residuals_near_zero_on_rank_one(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=60)
        data = np.column_stack([c, -3.0 * c])
        ent = entity_from(data, data)
        model = fit(ent, ModelConfig("pca"), WindowSpec(1, 1))
        err = residuals(model, ent.test, WindowSpec(1, 1))
        assert np.abs(err).max() < 1e-10

    def test_uae_learns_pure_sinusoid(self):
        t = np.arange(600)
        sig = 0.5 + 0.5 * np.sin(2 * np.pi * t / 50.0)
        ent = entity_from(sig[:, None])
        config = ModelConfig("uae", max_epochs=200, seed=0)
        model = fit(ent, config, WindowSpec(20, 1))
        assert float(np.mean(model.train_residuals**2)) < 0.01

    def test_uae_channel_permutation_property(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(150, 3)).cumsum(axis=0)
        base = (base - base.min(0)) / (base.max(0) - base.min(0))
        ent = entity_from(base)
        perm = [2, 0, 1]
        ent_p = entity_from(base[:, perm])
        spec = WindowSpec(10, 1)
        config = ModelConfig("uae", max_epochs=5, seed=3)
        r1 = fit(ent, config, spec).train_residuals
        r2 = fit(ent_p, config, spec).train_residuals
        assert np.allclose(r1[:, perm], r2)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(1)
        data = rng.random(size=(120, 2))
        ent = entity_from(data)
        config = ModelConfig("fc_ae", max_epochs=8, seed=5)
        m1 = fit(ent, config, WindowSpec(10, 2))
        m2 = fit(ent, config, WindowSpec(10, 2))
        assert np.array_equal(m1.train_residuals, m2.train_residuals)
        assert len(m1.model.groups) == len(m2.model.groups) == 1
        for (mlp1, channels1), (mlp2, channels2) in zip(m1.model.groups, m2.model.groups):
            assert channels1 == channels2 == (0, 1)
            p1, p2 = mlp1.parameters(), mlp2.parameters()
            assert len(p1) == len(p2)
            assert all(np.array_equal(a, b) for a, b in zip(p1, p2))

    def test_one_channel_fc_ae_matches_uae(self):
        # with one channel, FC-AE's time-major window row is UAE's channel
        # slice, so equal knobs train the same network bit for bit
        rng = np.random.default_rng(15)
        data = rng.random(size=(90, 1))
        test = rng.random(size=(40, 1))
        ent = entity_from(data, test)
        spec = WindowSpec(8, 2)
        knobs = {"latent_dim": 2, "learning_rate": 1e-2, "batch_size": 8,
                 "max_epochs": 4, "seed": 4}
        uae = fit(ent, ModelConfig("uae", **knobs), spec)
        fc = fit(ent, ModelConfig("fc_ae", **knobs), spec)
        assert np.array_equal(uae.train_residuals, fc.train_residuals)
        assert np.abs(uae.train_residuals).max() > 0
        tail = SeriesMatrix(data)
        assert np.array_equal(residuals(uae, ent.test, spec, train_tail=tail),
                              residuals(fc, ent.test, spec, train_tail=tail))
        assert [r.channel for r in uae.fit_reports] == [0]
        assert [r.channel for r in fc.fit_reports] == [None]

    def test_early_stopping_invariant(self):
        rng = np.random.default_rng(6)
        data = rng.random(size=(200, 1))
        ent = entity_from(data)
        config = ModelConfig("uae", max_epochs=40, patience=3, seed=2)
        model = fit(ent, config, WindowSpec(12, 1))
        report = model.fit_reports[0]
        assert report.best_epoch < report.epochs_run <= 40
        assert report.best_val_loss <= report.final_train_loss * 100  # sanity

    def test_divergent_loss_raises_training_error(self):
        rng = np.random.default_rng(7)
        data = rng.random(size=(80, 1))
        ent = entity_from(data)
        # absurd learning rate blows the loss up to inf/nan quickly
        config = ModelConfig("uae", learning_rate=1e200, max_epochs=30, seed=0)
        with pytest.raises(TrainingError, match="epoch"):
            fit(ent, config, WindowSpec(10, 1))

    def test_insufficient_train_data(self):
        ent = entity_from(np.zeros((4, 1)))
        with pytest.raises(InsufficientDataError):
            fit(ent, ModelConfig("uae"), WindowSpec(10, 1))

    def test_train_tail_makes_every_test_point_scored(self):
        rng = np.random.default_rng(3)
        data = rng.random(size=(100, 2))
        test = rng.random(size=(37, 2))
        ent = entity_from(data, test)
        spec = WindowSpec(8, 1)
        model = fit(ent, ModelConfig("uae", max_epochs=3, seed=1), spec)
        tail = SeriesMatrix(data[-(spec.length - 1) :])
        err = residuals(model, ent.test, spec, train_tail=tail)
        assert err.shape == (37, 2)
        # without the tail the head of the test set cannot be scored
        with pytest.raises(InsufficientDataError):
            residuals(model, SeriesMatrix(test[:5]), spec)

    def test_perfect_model_stub_zero_errors(self):
        class Identity:
            def forward(self, x):
                return x

        rng = np.random.default_rng(11)
        data = rng.random(size=(60, 1))
        ent = entity_from(data)
        spec = WindowSpec(6, 1)
        model = fit(ent, ModelConfig("uae", max_epochs=2, seed=0), spec)
        assert [channels for _, channels in model.model.groups] == [(0,)]
        perfect = replace(model, model=replace(model.model, groups=((Identity(), (0,)),)))
        err = residuals(perfect, ent.test, spec, train_tail=SeriesMatrix(data[-5:]))
        assert np.abs(err).max() == 0.0

    def test_stride_one_inference_despite_training_stride(self):
        rng = np.random.default_rng(13)
        data = rng.random(size=(90, 1))
        ent = entity_from(data)
        spec = WindowSpec(9, 3)
        model = fit(ent, ModelConfig("uae", max_epochs=2, seed=0), spec)
        tail = SeriesMatrix(data[-8:])
        err = residuals(model, ent.test, spec, train_tail=tail)
        assert err.shape[0] == 90

    def test_train_residual_row_count(self):
        rng = np.random.default_rng(14)
        data = rng.random(size=(64, 2))
        ent = entity_from(data)
        model = fit(ent, ModelConfig("fc_ae", max_epochs=2, seed=0), WindowSpec(10, 2))
        assert model.train_residuals.shape == (64 - 10 + 1, 2)


class TestSyntheticEndToEnd:
    def test_uae_flags_spike_region(self):
        spec = SyntheticSpec(400, 300, 2, period=40.0, noise_sigma=0.05, seed=21,
                             anomalies=(AnomalySpec(150, 20, "spike", (1,), 2.0),))
        ent = generate_synthetic(spec)
        w = WindowSpec(20, 1)
        model = fit(ent, ModelConfig("uae", max_epochs=60, seed=0), w)
        tail = SeriesMatrix(ent.train.values[-19:], ent.train.channel_names)
        err = residuals(model, ent.test, w, train_tail=tail)
        inside = np.abs(err[150:170, 1]).mean()
        outside = np.abs(err[:150, 1]).mean()
        assert inside > 3 * outside
