import contextlib
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadkit import blas
from tsadkit.core import (
    ConfigError,
    Entity,
    InsufficientDataError,
    SeriesMatrix,
    TrainingError,
    ValidationError,
)
from tsadkit import scoring
from tsadkit.experiment import _error_blocks, _Fitted
from tsadkit.ingest import (
    AnomalySpec,
    SyntheticSpec,
    WindowSpec,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    make_windows,
)
from tsadkit.models import ModelConfig, encoder_widths, fit, residuals, train
from tsadkit.models.mlp import Adam, MlpAutoencoder, MlpStack, autoencoder_widths
from tsadkit.models.pca import PcaModel
from tsadkit.models.train import FitReport
from reference import AdamPerArray, Diverged, MlpNaive, fd_gradient, train_mlp


needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="numpy's BLAS is not the bundled OpenBLAS: unpinned"
)


def backprop(stack: MlpStack, x) -> float:
    """One forward and backward pass of ``stack`` with every member on
    ``x``: the first member's loss; the gradients are in ``flat_grads``."""
    for inputs in stack.inputs(x.shape[0]):
        inputs[...] = x
    loss = float(stack.losses()[0])
    stack.backward()
    return loss


@contextlib.contextmanager
def blas_at(count: int):
    """numpy's OpenBLAS at ``count`` threads for the block, so the pin lends
    a pool of ``count``; the prior count after."""
    get, set_ = blas._openblas()
    before = get()
    set_(count)
    try:
        assert blas.blas_threads() == count
        yield
    finally:
        set_(before)


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
        stack = MlpStack(model.widths, model.flat_params[None])
        loss = backprop(stack, x)
        grads = MlpAutoencoder.on(model.widths, stack.flat_grads[0])
        assert loss == pytest.approx(float((diff**2).mean()))
        assert np.allclose(grads.weights[0], dw1, atol=1e-12)
        assert np.allclose(grads.weights[1], dw2, atol=1e-12)
        assert np.allclose(grads.biases[1], delta.sum(axis=0), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            widths = autoencoder_widths(8, 2)
            model = MlpAutoencoder(widths, rng)
            x = rng.normal(size=(4, 8))
            stack = MlpStack(widths, model.flat_params[None])
            backprop(stack, x)
            a = stack.flat_grads[0]
            [b] = fd_gradient(lambda: model.loss(x), [model.flat_params])
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            assert (np.abs(a - b) / denom).max() <= 1e-4

    def test_adam_reduces_loss(self):
        rng = np.random.default_rng(5)
        model = MlpAutoencoder((4, 2, 4), rng)
        x = rng.normal(size=(32, 4))
        stack = MlpStack(model.widths, model.flat_params[None])
        opt = Adam(stack.flat_params, learning_rate=1e-2)
        first = model.loss(x)
        for _ in range(200):
            backprop(stack, x)
            opt.step(stack.flat_params, stack.flat_grads)
        assert model.loss(x) < first * 0.5


    def test_fused_adam_equals_per_array_updates(self):
        # a stack of one with one update of its flat parameters rounds
        # exactly as one network's backprop with one update per array
        widths = autoencoder_widths(12, 3)
        fused = MlpStack(widths, MlpAutoencoder(widths, np.random.default_rng(9)).flat_params[None])
        split = MlpNaive(widths, np.random.default_rng(9))
        opt = Adam(fused.flat_params, learning_rate=3e-3)
        ref = AdamPerArray(split.parameters(), learning_rate=3e-3)
        rng = np.random.default_rng(10)
        for _ in range(300):
            x = rng.normal(size=(16, 12))
            backprop(fused, x)
            opt.step(fused.flat_params, fused.flat_grads)
            _, grads = split.loss_and_gradients(x)
            ref.step(split.parameters(), grads)
        assert np.array_equal(fused.flat_params[0], split.flat_params())
        assert np.array_equal(opt.m[0], np.concatenate([m.ravel() for m in ref.m]))
        assert np.array_equal(opt.v[0], np.concatenate([v.ravel() for v in ref.v]))

    def test_flat_views_in_parameter_order(self):
        model = MlpAutoencoder(autoencoder_widths(8, 2), np.random.default_rng(4))
        pairs = zip(model.weights, model.biases)
        joined = np.concatenate([p.ravel() for pair in pairs for p in pair])
        assert np.array_equal(joined, model.flat_params)
        saved = model.flat_params.copy()
        model.weights[1][0, 0] += 1.0
        assert np.flatnonzero(model.flat_params != saved).size == 1
        wrapped = MlpAutoencoder.on(model.widths, saved)
        assert wrapped.flat_params is saved
        assert all(np.shares_memory(w, saved) for w in wrapped.weights + wrapped.biases)


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
        model = fit(ent.train, ModelConfig("raw"), WindowSpec(1, 1))
        err = residuals(model, ent.test)
        assert err[0, 0] == 0.7 and err[0, 1] == 0.5

    def test_pca_residuals_near_zero_on_rank_one(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=60)
        data = np.column_stack([c, -3.0 * c])
        ent = entity_from(data, data)
        model = fit(ent.train, ModelConfig("pca"), WindowSpec(1, 1))
        err = residuals(model, ent.test)
        assert np.abs(err).max() < 1e-10

    def test_uae_learns_pure_sinusoid(self):
        t = np.arange(600)
        sig = 0.5 + 0.5 * np.sin(2 * np.pi * t / 50.0)
        ent = entity_from(sig[:, None])
        config = ModelConfig("uae", max_epochs=200)
        model = fit(ent.train, config, WindowSpec(20, 1), seed=0)
        assert float(np.mean(residuals(model, ent.train) ** 2)) < 0.01

    def test_uae_channel_permutation_property(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(150, 3)).cumsum(axis=0)
        base = (base - base.min(0)) / (base.max(0) - base.min(0))
        ent = entity_from(base)
        perm = [2, 0, 1]
        ent_p = entity_from(base[:, perm])
        spec = WindowSpec(10, 1)
        config = ModelConfig("uae", max_epochs=5)
        r1 = residuals(fit(ent.train, config, spec, seed=3), ent.train)
        r2 = residuals(fit(ent_p.train, config, spec, seed=3), ent_p.train)
        assert np.allclose(r1[:, perm], r2)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(1)
        data = rng.random(size=(120, 2))
        ent = entity_from(data)
        config = ModelConfig("fc_ae", max_epochs=8)
        m1 = fit(ent.train, config, WindowSpec(10, 2), seed=5)
        m2 = fit(ent.train, config, WindowSpec(10, 2), seed=5)
        assert np.array_equal(residuals(m1, ent.train), residuals(m2, ent.train))
        assert len(m1.groups) == len(m2.groups) == 1
        for (mlp1, channels1), (mlp2, channels2) in zip(m1.groups, m2.groups):
            assert channels1 == channels2 == (0, 1)
            assert np.array_equal(mlp1.flat_params, mlp2.flat_params)

    @needs_openblas
    def test_channel_pool_equals_serial_training(self):
        # the groups train on a pool of the BLAS's own count: 1 (serial)
        # against 2 and 6 (more workers than groups)
        rng = np.random.default_rng(16)
        data = rng.random(size=(160, 3))
        test = rng.random(size=(50, 3))
        ent = entity_from(data, test)
        spec = WindowSpec(12, 1)
        config = ModelConfig("uae", max_epochs=6)
        tail = SeriesMatrix(data)
        stream = np.concatenate([data, test])
        with blas_at(1):
            serial = fit(ent.train, config, spec, seed=2)
            serial_train = residuals(serial, ent.train)
            serial_test = residuals(serial, ent.test, train_tail=tail)
        for count in (2, 6):
            with blas_at(count):
                pooled = fit(ent.train, config, spec, seed=2)
                pooled_train = residuals(pooled, ent.train)
                pooled_test = residuals(pooled, ent.test, train_tail=tail)
                pooled_stream = pooled.residuals(stream)
            assert len(serial.groups) == len(pooled.groups) == 3
            for (mlp1, channels1), (mlp2, channels2) in zip(serial.groups, pooled.groups):
                assert channels1 == channels2
                assert np.array_equal(mlp1.flat_params, mlp2.flat_params)
            assert np.array_equal(serial_train, pooled_train)
            assert np.array_equal(serial_test, pooled_test)
            assert serial.fit_reports == pooled.fit_reports
            assert [r.channel for r in pooled.fit_reports] == [0, 1, 2]
            # inference maps the groups over the same pool, and equals the
            # same weights inferred one group after another
            with blas_at(1):
                assert np.array_equal(pooled.residuals(stream), pooled_stream)

    @needs_openblas
    def test_pooled_inference_under_thread_switching(self):
        # more workers than cores, switching every microsecond, several
        # chunks per group: a lost or misplaced column write shows as a
        # difference from one group after another
        rng = np.random.default_rng(17)
        data = rng.random(size=(80, 6))
        model = fit(SeriesMatrix(data), ModelConfig("uae", max_epochs=1), WindowSpec(8, 1),
                    seed=3)
        stream = rng.random(size=(20_000, 6))
        with blas_at(1):
            serial = model.residuals(stream)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with blas_at(6):
                pooled = model.residuals(stream)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)

    @needs_openblas
    def test_stacks_under_thread_switching(self):
        # 8 channels as four stacks of 2 on a pool of 3 (more workers than
        # cores), switching every microsecond, against two stacks of 4
        # trained one after another: a stack that read or wrote another's
        # state would show as a difference
        rng = np.random.default_rng(18)
        data = SeriesMatrix(rng.random(size=(120, 8)))
        config = ModelConfig("uae", max_epochs=3, batch_size=16)
        with blas_at(1):
            serial = fit(data, config, WindowSpec(8, 1), seed=4)
            serial_err = residuals(serial, data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with blas_at(3):
                pooled = fit(data, config, WindowSpec(8, 1), seed=4)
                pooled_err = residuals(pooled, data)
        finally:
            sys.setswitchinterval(interval)
        for (mlp1, _), (mlp2, _) in zip(serial.groups, pooled.groups):
            assert np.array_equal(mlp1.flat_params, mlp2.flat_params)
        assert serial.fit_reports == pooled.fit_reports
        assert np.array_equal(serial_err, pooled_err)

    def test_one_channel_fc_ae_matches_uae(self):
        # with one channel, FC-AE's time-major window row is UAE's channel
        # slice, so equal knobs train the same network bit for bit
        rng = np.random.default_rng(15)
        data = rng.random(size=(90, 1))
        test = rng.random(size=(40, 1))
        ent = entity_from(data, test)
        spec = WindowSpec(8, 2)
        knobs = {"latent_dim": 2, "learning_rate": 1e-2, "batch_size": 8, "max_epochs": 4}
        uae = fit(ent.train, ModelConfig("uae", **knobs), spec, seed=4)
        fc = fit(ent.train, ModelConfig("fc_ae", **knobs), spec, seed=4)
        train_err = residuals(uae, ent.train)
        assert np.array_equal(train_err, residuals(fc, ent.train))
        assert np.abs(train_err).max() > 0
        tail = SeriesMatrix(data)
        assert np.array_equal(residuals(uae, ent.test, train_tail=tail),
                              residuals(fc, ent.test, train_tail=tail))
        assert [r.channel for r in uae.fit_reports] == [0]
        assert [r.channel for r in fc.fit_reports] == [None]

    def test_early_stopping_invariant(self):
        rng = np.random.default_rng(6)
        data = rng.random(size=(200, 1))
        ent = entity_from(data)
        config = ModelConfig("uae", max_epochs=40, patience=3)
        model = fit(ent.train, config, WindowSpec(12, 1), seed=2)
        report = model.fit_reports[0]
        assert report.best_epoch < report.epochs_run <= 40
        assert report.best_val_loss <= report.final_train_loss * 100  # sanity

    def test_divergent_loss_raises_training_error(self):
        rng = np.random.default_rng(7)
        data = rng.random(size=(80, 1))
        ent = entity_from(data)
        # absurd learning rate blows the loss up to inf/nan quickly
        config = ModelConfig("uae", learning_rate=1e200, max_epochs=30)
        with pytest.raises(TrainingError, match="epoch"):
            fit(ent.train, config, WindowSpec(10, 1))

    def test_insufficient_train_data(self):
        ent = entity_from(np.zeros((4, 1)))
        with pytest.raises(InsufficientDataError):
            fit(ent.train, ModelConfig("uae"), WindowSpec(10, 1))

    def test_train_tail_makes_every_test_point_scored(self):
        rng = np.random.default_rng(3)
        data = rng.random(size=(100, 2))
        test = rng.random(size=(37, 2))
        ent = entity_from(data, test)
        spec = WindowSpec(8, 1)
        model = fit(ent.train, ModelConfig("uae", max_epochs=3), spec, seed=1)
        tail = SeriesMatrix(data[-(spec.length - 1) :])
        err = residuals(model, ent.test, train_tail=tail)
        assert err.shape == (37, 2)
        # without the tail the head of the test set cannot be scored
        with pytest.raises(InsufficientDataError):
            residuals(model, SeriesMatrix(test[:5]))

    def test_perfect_model_stub_zero_errors(self):
        class Identity:
            def forward(self, x):
                return x

        rng = np.random.default_rng(11)
        data = rng.random(size=(60, 1))
        ent = entity_from(data)
        spec = WindowSpec(6, 1)
        model = fit(ent.train, ModelConfig("uae", max_epochs=2), spec)
        assert [channels for _, channels in model.groups] == [(0,)]
        perfect = replace(model, groups=((Identity(), (0,)),))
        err = residuals(perfect, ent.test, train_tail=SeriesMatrix(data[-5:]))
        assert np.abs(err).max() == 0.0

    def test_stride_one_inference_despite_training_stride(self):
        rng = np.random.default_rng(13)
        data = rng.random(size=(90, 1))
        ent = entity_from(data)
        spec = WindowSpec(9, 3)
        model = fit(ent.train, ModelConfig("uae", max_epochs=2), spec)
        tail = SeriesMatrix(data[-8:])
        err = residuals(model, ent.test, train_tail=tail)
        assert err.shape[0] == 90

    def test_train_residual_row_count(self):
        rng = np.random.default_rng(14)
        data = rng.random(size=(64, 2))
        ent = entity_from(data)
        model = fit(ent.train, ModelConfig("fc_ae", max_epochs=2), WindowSpec(10, 2))
        assert residuals(model, ent.train).shape == (64 - 10 + 1, 2)


    @pytest.mark.parametrize("kind", ["raw", "pca", "uae", "fc_ae"])
    def test_fit_returns_the_model_alone(self, kind):
        # perfbench/traced.py reads fit_reports from what fit returns
        rng = np.random.default_rng(19)
        data = rng.random(size=(60, 2))
        model = fit(SeriesMatrix(data), ModelConfig(kind, max_epochs=2), WindowSpec(6, 2))
        windowed = kind in ("uae", "fc_ae")
        assert model.window_length == (6 if windowed else 1)
        assert len(model.fit_reports) == {"raw": 0, "pca": 0, "uae": 2, "fc_ae": 1}[kind]
        assert np.array_equal(model.residuals(data), residuals(model, SeriesMatrix(data)))
        assert residuals(model, SeriesMatrix(data)).shape == (60 - model.window_length + 1, 2)

    @pytest.mark.parametrize("kind", ["raw", "pca", "uae", "fc_ae"])
    def test_residuals_refuse_a_tail_of_another_width(self, kind):
        rng = np.random.default_rng(20)
        data = rng.random(size=(60, 2))
        model = fit(SeriesMatrix(data), ModelConfig(kind, max_epochs=1), WindowSpec(6, 1))
        with pytest.raises(ValidationError, match="train_tail has 3 channels, series has 2"):
            residuals(model, SeriesMatrix(data), train_tail=SeriesMatrix(rng.random((5, 3))))

    @pytest.mark.parametrize("kind", ["pca", "uae", "fc_ae"])
    def test_a_model_refuses_a_stream_of_another_width(self, kind):
        rng = np.random.default_rng(22)
        data = rng.random(size=(60, 2))
        model = fit(SeriesMatrix(data), ModelConfig(kind, max_epochs=1), WindowSpec(6, 1))
        wide = rng.random(size=(40, 3))
        with pytest.raises(ValidationError, match="3 channels, model has 2"):
            residuals(model, SeriesMatrix(wide))
        with pytest.raises(ValidationError, match="3 channels, model has 2"):
            residuals(model, SeriesMatrix(wide), train_tail=SeriesMatrix(wide))


class TestSyntheticEndToEnd:
    def test_uae_flags_spike_region(self):
        spec = SyntheticSpec(400, 300, 2, period=40.0, noise_sigma=0.05, seed=21,
                             anomalies=(AnomalySpec(150, 20, "spike", (1,), 2.0),))
        ent = generate_synthetic(spec)
        w = WindowSpec(20, 1)
        model = fit(ent.train, ModelConfig("uae", max_epochs=60), w)
        tail = SeriesMatrix(ent.train.values[-19:], ent.train.channel_names)
        err = residuals(model, ent.test, train_tail=tail)
        inside = np.abs(err[150:170, 1]).mean()
        outside = np.abs(err[:150, 1]).mean()
        assert inside > 3 * outside


class TestBlockedResiduals:
    """A cell's test side runs the model one row block at a time, each block
    with the l_w - 1 normalized rows before it carried over. The errors must
    be the whole-stream errors bit for bit.

    The lengths leave 1, 2, 8191 and 8193 rows after the last full block.
    Those rows go with the block before them: a PCA product over one row
    goes to gemv and differs from the same row inside a larger product, and
    OpenBLAS sends small products to other kernels. Autoencoder inference
    runs in chunks of 8192 windows from the start of each call, which
    16,384-row blocks keep on the whole-stream grid.
    """

    @pytest.mark.parametrize("extra", [1, 2, 8191, 8193])
    @pytest.mark.parametrize("kind", ["raw", "pca", "uae", "fc_ae"])
    def test_blocks_equal_the_whole_stream(self, kind, extra):
        block = scoring._BLOCK
        n_test = 2 * block + extra
        spec = SyntheticSpec(
            400, n_test, 3, period=(17.0, 29.0, 41.0), noise_sigma=0.1, seed=5,
            anomalies=(AnomalySpec(block - 4, 9, "level_shift", (1,), 2.0),),
        )
        ent = generate_synthetic(spec)
        stats = fit_normalizer(ent.train)
        train_norm = apply_normalizer(ent.train, stats)
        window = WindowSpec(12, 3)
        config = ModelConfig(kind, max_epochs=2, pca_variance_fraction=0.8)
        model = fit(train_norm, config, window)
        test_norm = apply_normalizer(ent.test, stats)
        whole = residuals(model, test_norm, train_tail=train_norm)

        lead = train_norm.values[train_norm.n - model.window_length + 1 :]
        fitted = _Fitted(stats, lead, model, residuals(model, train_norm))
        blocks = list(_error_blocks(ent, fitted))
        assert [(a, b) for a, b, _ in blocks] == [(0, block), (block, n_test)]
        blocked = np.concatenate([err for _, _, err in blocks])
        assert blocked.tobytes() == whole.tobytes()


@st.composite
def stack_cases(draw):
    """A tiny UAE fit: 1-5 channels and knobs that leave a short last
    batch, stop members at different epochs, and make some members fail,
    in training or validation, at once or later."""
    m = draw(st.integers(1, 5))
    l_w = draw(st.integers(2, 6))
    step = draw(st.integers(1, 2))
    batch_size = draw(st.integers(2, 8))
    n_split = batch_size * draw(st.integers(1, 3)) + draw(st.integers(1, batch_size - 1))
    count = next(c for c in range(n_split + 1, 4 * n_split) if int(c * 0.75) == n_split)
    config = ModelConfig(
        "uae",
        latent_dim=draw(st.integers(1, l_w - 1)),
        learning_rate=draw(st.sampled_from([1e-2, 1.0, 1e152, 1e153])),
        batch_size=batch_size,
        max_epochs=draw(st.integers(1, 6)),
        patience=draw(st.integers(1, 2)),
        validation_fraction=0.25,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(size=((count - 1) * step + l_w, m))
    for c in range(m):
        kind = draw(st.sampled_from(["plain", "plain", "large", "huge", "tail", "spike",
                                     "spike"]))
        if kind == "large":  # trains, unless the learning rate is huge too
            values[:, c] *= 1e150
        elif kind == "huge":  # its first batch overflows
            values[:, c] *= 1e154
        elif kind == "tail":  # rows only validation windows read overflow
            values[(n_split - 1) * step + l_w :, c] *= 1e154
        elif kind == "spike":
            # one training row whose square is 0.7 or 0.4 of the largest
            # float: a batch overflows once it holds two or three windows
            # of the row, in whichever epoch that happens first
            row = draw(st.integers(0, n_split * step - 1))
            values[row, c] = draw(st.sampled_from([1.12e154, 8.5e153]))
    return values, WindowSpec(l_w, step), config, draw(st.integers(0, 9))


def _outcome(run):
    """Each trained group's channels, flat parameters and report, or the
    text of the error the training raised."""
    try:
        return [(channels, mlp.flat_params, report) for (mlp, channels), report in run()]
    except (TrainingError, Diverged) as err:
        return str(err)


def _same(got, expected):
    if isinstance(expected, str):
        return got == expected
    return (not isinstance(got, str) and len(got) == len(expected)
            and all(c1 == c2 and np.array_equal(p1, p2) and r1 == r2
                    for (c1, p1, r1), (c2, p2, r2) in zip(got, expected)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stack_cases())
def test_stacked_training_matches_one_network_at_a_time(case):
    """Channels trained in lockstep stacks end bit for bit as each trained
    alone by the oracle: the same weights and reports, or the error of the
    first failing channel; for one stack of every channel (1-5 members)
    and for the stacks ``fit`` cuts under BLAS pools of 1, 2 and 3."""
    values, spec, config, seed = case
    m = values.shape[1]
    windows = make_windows(values, spec)
    widths = autoencoder_widths(spec.length, config.latent_dim)

    def oracle():
        trained = []
        for c in range(m):
            params, fields = train_mlp(windows[:, :, c], widths, config, seed)
            trained.append(((MlpAutoencoder.on(widths, params), (c,)), FitReport(c, *fields)))
        return trained

    def fitted():
        model = fit(SeriesMatrix(values), config, spec, seed)
        return zip(model.groups, model.fit_reports)

    with warnings.catch_warnings():
        # a diverging member overflows on the way, in the oracle as here
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = _outcome(oracle)
        groups = [(c, (c,)) for c in range(m)]
        assert _same(_outcome(lambda: train._train_stack(windows, groups, config, seed)),
                     expected)
        for count in (1, 2, 3) if blas.blas_threads() is not None else (None,):
            with blas_at(count) if count else contextlib.nullcontext():
                assert _same(_outcome(fitted), expected), count


def test_first_failing_channel_wins_though_a_later_one_fails_first():
    """Channel 2 overflows in its first batch, channel 0 only in epoch 5,
    once three windows of its spike share a batch. Trained in one stack,
    as one network after another, the fit raises channel 0's error."""
    values = np.random.default_rng(0).random(size=(27, 3))
    values[8, 0] = 8.5e153
    values[:, 2] *= 1e154
    spec = WindowSpec(4, 1)
    config = ModelConfig("uae", latent_dim=2, learning_rate=1e-2, batch_size=4,
                         max_epochs=6, patience=6)
    windows = make_windows(values, spec)
    widths = autoencoder_widths(4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for c, epoch in ((0, 5), (2, 0)):
            with pytest.raises(Diverged, match=f"^training loss became non-finite at epoch {epoch}$"):
                train_mlp(windows[:, :, c], widths, config, 2)
        with pytest.raises(TrainingError, match="^training loss became non-finite at epoch 5$"):
            train._train_stack(windows, [(c, (c,)) for c in range(3)], config, 2)
        with blas_at(1) if blas.blas_threads() is not None else contextlib.nullcontext():
            with pytest.raises(TrainingError, match="at epoch 5$"):
                fit(SeriesMatrix(values), config, spec, seed=2)
