import math

import numpy as np
import pytest

from gatedepth.errors import TrainingDivergedError
from gatedepth.network import (
    GridSpec,
    NetworkArch,
    NetworkModel,
    TrainConfig,
    backward,
    forward,
    grid_search,
    init_params,
    load_model,
    loss_mae,
    predict_depth,
    predict_depth_batch,
    probe_learned_function,
    save_model,
    train,
    valid_probe_triples,
)
from gatedepth.seeding import derive_seed


def max_relative_gradient_error(got, ref, atol=1e-8):
    """Worst relative deviation, ignoring differences below ``atol``.

    Balanced batches make some MAE subgradients exactly zero, where a
    relative comparison against finite-difference rounding noise would be
    meaningless.
    """
    diff = np.abs(got - ref)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(ref)), 1e-300)
    rel = np.where(diff > atol, diff / denom, 0.0)
    return float(np.max(rel)) if rel.size else 0.0


def finite_difference_grads(model, x, y, h=1e-5):
    """Central-difference oracle for the batch MAE gradient."""
    grads_w, grads_b = [], []
    for arrays, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for a in arrays:
            g = np.zeros_like(a)
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = a[idx]
                a[idx] = orig + h
                up = loss_mae(forward(model, x), y)
                a[idx] = orig - h
                down = loss_mae(forward(model, x), y)
                a[idx] = orig
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return grads_w, grads_b


def smooth_case(rng, activation):
    """Random net/batch staying away from relu kinks and zero residuals."""
    hidden = tuple(rng.choice([3, 5, 8], size=rng.integers(1, 3)))
    arch = NetworkArch(hidden, activation)
    model = init_params(arch, int(rng.integers(1 << 30)))
    for w in model.weights:
        w += rng.normal(0.0, 0.4, w.shape)
    for b in model.biases:
        b += rng.normal(0.0, 0.2, b.shape)
    while True:
        x = rng.normal(0.0, 1.0, (int(rng.integers(2, 6)), 3))
        y = rng.normal(0.0, 5.0, x.shape[0])
        pred = forward(model, x)
        if np.min(np.abs(pred - y)) < 1e-3:
            continue
        if activation == "relu":
            a = x
            near_kink = False
            for i, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = a @ w + b
                if i < len(model.weights) - 1:
                    if np.min(np.abs(z)) < 1e-3:
                        near_kink = True
                    a = np.maximum(z, 0.0)
            if near_kink:
                continue
        return model, x, y


class TestInit:
    def test_weight_range_and_zero_biases(self):
        model = init_params(NetworkArch((40,), "relu"), seed=5)
        for w in model.weights:
            assert np.all(np.abs(w) <= 0.05)
        for b in model.biases:
            assert not b.any()

    def test_deterministic(self):
        a = init_params(NetworkArch((20, 10), "tanh"), seed=9)
        b = init_params(NetworkArch((20, 10), "tanh"), seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_linear_model_shape(self):
        model = init_params(NetworkArch((), "relu"), seed=1)
        assert len(model.weights) == 1
        assert model.weights[0].shape == (3, 1)

    def test_shape_chain_enforced(self):
        good = init_params(NetworkArch((4,), "relu"), seed=0)
        bad_w = [w.copy() for w in good.weights]
        bad_w[0] = bad_w[0][:, :3]
        with pytest.raises(ValueError):
            NetworkModel(good.arch, bad_w, [b.copy() for b in good.biases])


class TestForward:
    def test_zero_weights_output_zero(self):
        model = init_params(NetworkArch((8,), "relu"), seed=0)
        for w in model.weights:
            w[:] = 0.0
        assert forward(model, np.array([0.3, -0.8, 0.5])) == 0.0

    def test_hand_computed_single_unit(self):
        model = init_params(NetworkArch((1,), "relu"), seed=0)
        model.weights[0][:, 0] = [1.0, -2.0, 0.5]
        model.biases[0][0] = 0.25
        model.weights[1][0, 0] = 2.0
        model.biases[1][0] = -1.0
        # pre-activation 0.3 + 0.4 + 0.2 + 0.25 = 1.15; output 2*1.15 - 1
        assert forward(model, np.array([0.3, -0.2, 0.4])) == pytest.approx(1.3)

    def test_dead_relu_returns_output_bias(self):
        model = init_params(NetworkArch((6,), "relu"), seed=3)
        model.biases[0][:] = -100.0
        model.biases[1][0] = 7.5
        assert forward(model, np.array([0.1, 0.2, 0.3])) == pytest.approx(7.5)

    def test_rejects_non_finite_input(self):
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        with pytest.raises(ValueError):
            forward(model, np.array([np.nan, 0.0, 0.0]))


class TestLoss:
    def test_exact_match(self):
        assert loss_mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_examples(self):
        assert loss_mae([10.0], [13.0]) == 3.0
        assert loss_mae([0.0, 10.0], [4.0, 10.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_mae([], [])


class TestBackward:
    def test_zero_residual_zero_gradient(self):
        model = init_params(NetworkArch((4,), "relu"), seed=2)
        x = np.array([[0.5, -0.5, 0.0]])
        y = np.array([forward(model, x[0])])
        gw, gb = backward(model, x, y)
        assert not any(g.any() for g in gw)
        assert not any(g.any() for g in gb)

    def test_linear_model_gradient_is_signed_input(self):
        model = init_params(NetworkArch((), "relu"), seed=2)
        x = np.array([[0.4, -1.0, 0.6]])
        y = np.array([forward(model, x[0]) - 3.0])  # prediction above target
        gw, gb = backward(model, x, y)
        np.testing.assert_allclose(gw[0][:, 0], x[0], atol=1e-12)
        assert gb[0][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
    def test_matches_central_differences(self, activation):
        rng = np.random.default_rng(17)
        for _ in range(4):
            model, x, y = smooth_case(rng, activation)
            gw, gb = backward(model, x, y)
            fw, fb = finite_difference_grads(model, x, y)
            for got, ref in zip(gw + gb, fw + fb):
                assert max_relative_gradient_error(got, ref) < 1e-4


def tiny_problem(n=256, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 3))
    y = 20.0 + 5.0 * x[:, 0] - 3.0 * x[:, 1] + 2.0 * np.abs(x[:, 2])
    return (x[: n - 64], y[: n - 64]), (x[n - 64 :], y[n - 64 :])


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        train_xy, val_xy = tiny_problem()
        arch = NetworkArch((8,), "relu")
        cfg = TrainConfig(0.0, 16, max_epochs=6, patience=10, seed=4)
        model, history = train(train_xy, val_xy, arch, cfg)
        fresh = init_params(arch, cfg.seed)
        for w, w0 in zip(model.weights, fresh.weights):
            np.testing.assert_array_equal(w, w0)
        vals = {round(h.val_mae, 12) for h in history}
        assert len(vals) == 1

    def test_patience_one_stops_after_two_epochs(self):
        train_xy, val_xy = tiny_problem()
        cfg = TrainConfig(0.0, 16, max_epochs=50, patience=1, seed=4)
        model, history = train(train_xy, val_xy, NetworkArch((8,), "relu"), cfg)
        assert len(history) == 2

    def test_validation_improves_on_learnable_problem(self):
        train_xy, val_xy = tiny_problem(n=2048, seed=3)
        cfg = TrainConfig(0.01, 16, max_epochs=12, patience=12, seed=4)
        model, history = train(train_xy, val_xy, NetworkArch((40,), "relu"), cfg)
        assert history[-1].val_mae < history[0].val_mae
        assert model.val_mae < history[0].val_mae

    def test_best_snapshot_contract(self):
        train_xy, val_xy = tiny_problem(n=1024, seed=6)
        cfg = TrainConfig(0.02, 8, max_epochs=15, patience=15, seed=1)
        model, history = train(train_xy, val_xy, NetworkArch((10,), "tanh"), cfg)
        assert model.val_mae == pytest.approx(min(h.val_mae for h in history))

    def test_deterministic_training(self):
        train_xy, val_xy = tiny_problem(n=512, seed=9)
        cfg = TrainConfig(0.01, 16, max_epochs=5, patience=5, seed=21)
        a, _ = train(train_xy, val_xy, NetworkArch((12,), "relu"), cfg)
        b, _ = train(train_xy, val_xy, NetworkArch((12,), "relu"), cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_epoch(self):
        train_xy, val_xy = tiny_problem(n=512, seed=9)
        cfg = TrainConfig(1e9, 16, max_epochs=5, patience=5, seed=2)
        with pytest.raises(TrainingDivergedError) as info:
            train(train_xy, val_xy, NetworkArch((12,), "relu"), cfg)
        epoch = info.value.epoch
        assert isinstance(epoch, int) and 0 <= epoch < cfg.max_epochs

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            train((np.zeros((0, 3)), np.zeros(0)), (np.zeros((1, 3)), np.zeros(1)),
                  NetworkArch((4,), "relu"), TrainConfig(0.01, 4))


class TestGrid:
    def test_default_grid_cardinality(self):
        grid = GridSpec.default_grid()
        assert len(grid) == 720
        assert len(grid.enumerate()) == 3 * 8 * 10 * 3

    def test_single_point_grid_is_best(self):
        train_xy, val_xy = tiny_problem(n=256)
        grid = GridSpec((0.01,), (32,), ((6,),), ("relu",))
        result = grid_search([("only", train_xy, val_xy)], grid, max_epochs=3, patience=3)
        assert result.best == grid.enumerate()[0]

    def test_ranking_uses_mean_across_datasets(self):
        a = tiny_problem(n=300, seed=1)
        b = tiny_problem(n=300, seed=2)
        datasets = [("a", a[0], a[1]), ("b", b[0], b[1])]
        # learning rate zero cannot move off the near-zero init, so the
        # learning config wins on mean validation loss
        grid = GridSpec((0.0, 0.02), (16,), ((8,),), ("relu",))
        result = grid_search(datasets, grid, max_epochs=6, patience=6, seed=5)
        assert result.best.learning_rate == 0.02
        assert len(result.rows) == 4

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_mean_ranking_beats_single_dataset_wins(self, monkeypatch):
        # config 0 wins dataset "a" outright but loses on the mean
        import gatedepth.network as net

        scripted = {(0, "a"): 0.5, (0, "b"): 4.0, (1, "a"): 1.0, (1, "b"): 1.5}
        grid = GridSpec((0.1, 0.2), (16,), ((4,),), ("relu",))
        points = grid.enumerate()

        def fake_train(train_xy, val_xy, arch, cfg):
            idx = next(i for i, p in enumerate(points)
                       if p.learning_rate == cfg.learning_rate)
            model = init_params(arch, 0)
            model.val_mae = scripted[(idx, train_xy[1])]
            model.epochs_run = 1
            return model, []

        monkeypatch.setattr(net, "train", fake_train)
        dummy = (np.zeros((1, 3)), "a")
        dummy_b = (np.zeros((1, 3)), "b")
        result = net.grid_search([("a", dummy, dummy), ("b", dummy_b, dummy_b)], grid)
        assert result.best == points[1]
        assert result.ranking[0][0] == 1

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverged_runs_flagged_not_ranked_first(self):
        train_xy, val_xy = tiny_problem(n=256)
        grid = GridSpec((1e9, 0.01), (16,), ((6,),), ("relu",))
        result = grid_search([("d", train_xy, val_xy)], grid, max_epochs=3, patience=3)
        diverged_rows = [row for row in result.rows if math.isnan(row.val_mae)]
        assert diverged_rows and result.best.learning_rate == 0.01
        flagged = dict((idx, flag) for idx, _, flag in result.ranking)
        assert flagged[diverged_rows[0].config_index]
        # The row records the epoch at which the same solo run diverges.
        row = diverged_rows[0]
        cfg = TrainConfig(1e9, 16, 3, 3, seed=derive_seed(0, "grid", row.config_index))
        with pytest.raises(TrainingDivergedError) as info:
            train(train_xy, val_xy, NetworkArch((6,), "relu"), cfg)
        assert row.epochs == info.value.epoch >= 0

    def test_thread_pool_does_not_change_results(self):
        train_xy, val_xy = tiny_problem(n=256)
        grid = GridSpec((0.01, 0.005), (16, 32), ((6,),), ("relu",))
        serial = grid_search([("d", train_xy, val_xy)], grid, max_epochs=3, patience=3, seed=8)
        threaded = grid_search([("d", train_xy, val_xy)], grid, max_epochs=3, patience=3, seed=8,
                               threads=4)
        assert serial.rows == threaded.rows


class TestPredict:
    def test_prefilter_predicates_apply(self):
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        assert math.isnan(predict_depth(model, (251, 10, 10)))
        assert math.isnan(predict_depth(model, (100, 102, 103)))
        assert math.isfinite(predict_depth(model, (10, 100, 30)))

    def test_affine_invariance(self):
        model = init_params(NetworkArch((8,), "relu"), seed=1)
        base = predict_depth(model, (20, 60, 100))
        moved = predict_depth(model, (2 * 20 + 5, 2 * 60 + 5, 2 * 100 + 5))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_batch_matches_scalar(self):
        model = init_params(NetworkArch((8,), "relu"), seed=1)
        triples = np.array([[20, 80, 140], [251, 0, 0], [7, 7, 7]], dtype=float)
        batch = predict_depth_batch(model, triples)
        assert batch[0] == pytest.approx(predict_depth(model, triples[0]))
        assert np.isnan(batch[1]) and np.isnan(batch[2])


class TestProbe:
    def test_validity_examples(self):
        assert not valid_probe_triples(100, 50, 200)   # middle value is the strict minimum
        assert not valid_probe_triples(10, 12, 14)     # spread below the contrast floor
        assert not valid_probe_triples(240, 100, 10)   # above the gray cap
        assert valid_probe_triples(10, 100, 30)

    def test_predicate_matches_independent_filter(self):
        rng = np.random.default_rng(123)
        s = rng.integers(0, 256, (100_000, 3))
        got = valid_probe_triples(s[:, 0], s[:, 1], s[:, 2])
        for row, flag in zip(s[:5000], got[:5000]):
            a, b, c = (int(v) for v in row)
            expected = (
                max(a, b, c) < 230
                and max(a, b, c) - min(a, b, c) > 6
                and not (b < a and b < c)
            )
            assert bool(flag) == expected

    def test_small_enumeration_matches_brute_force(self):
        model = init_params(NetworkArch((6,), "relu"), seed=2)
        table = probe_learned_function(model, max_gray=24, contrast_floor=6, bin_width_m=1.0)
        count = 0
        for a in range(24):
            for b in range(24):
                for c in range(24):
                    mx, mn = max(a, b, c), min(a, b, c)
                    if mx - mn > 6 and not (b < a and b < c):
                        count += 1
        assert table.total_triples == count
        assert table.counts.sum() == count


class TestModelFile:
    def test_roundtrip_and_stable_bytes(self, tmp_path):
        model = init_params(NetworkArch((5, 3), "sigmoid"), seed=77)
        model.epochs_run = 12
        model.val_mae = 1.5
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch == model.arch
        assert loaded.seed == 77 and loaded.epochs_run == 12
        for wa, wb in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(wa, wb)
        again = tmp_path / "again.txt"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_linear_model_roundtrip(self, tmp_path):
        model = init_params(NetworkArch((), "relu"), seed=1)
        save_model(model, tmp_path / "m.txt")
        loaded = load_model(tmp_path / "m.txt")
        assert loaded.arch.hidden == ()

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("some-other-format 3\n")
        from gatedepth.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_model(path)
