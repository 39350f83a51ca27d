import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth import network
from gatedepth.errors import TrainingDivergedError
from gatedepth.network import (
    GridPoint,
    GridRow,
    GridSearchResult,
    GridSpec,
    NetworkArch,
    NetworkModel,
    ProbeTable,
    TrainConfig,
    backward,
    forward,
    grid_search,
    init_params,
    load_model,
    loss_mae,
    predict_depth_batch,
    probe_learned_function,
    save_model,
    train,
    train_stack,
    valid_probe_triples,
)
from gatedepth.pipeline import standardize_batch
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


def serial_reference(train_xy, val_xy, arch, cfg):
    """The SGD loop written out serially on the 2-D public ``forward`` and
    ``backward``: an oracle for ``train`` that does not go through the stack.
    Returns ``(model, history)`` or the ``TrainingDivergedError``."""
    (x, y), (x_val, y_val) = train_xy, val_xy
    model = init_params(arch, cfg.seed)
    shuffle = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    best, best_val, stale, history = None, math.inf, 0, []

    def diverged(what, epoch):
        return TrainingDivergedError(f"non-finite {what} at epoch {epoch}", epoch=epoch)

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            order = shuffle.permutation(len(y))
            losses = []
            for start in range(0, len(y), cfg.batch_size):
                sel = order[start:start + cfg.batch_size]
                xb, yb = x[sel], y[sel]
                try:
                    pred = forward(model, xb)
                except ValueError:
                    return diverged("forward pass", epoch)
                losses.append(float(np.mean(np.abs(pred - yb))))
                grads_w, grads_b = backward(model, xb, yb)
                for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                    w -= cfg.learning_rate * gw
                    b -= cfg.learning_rate * gb
            try:
                val_mae = float(np.mean(np.abs(forward(model, x_val) - y_val)))
            except ValueError:
                return diverged("validation pass", epoch)
            train_mae = float(np.mean(losses))
            if not (math.isfinite(train_mae) and math.isfinite(val_mae)):
                return diverged("loss", epoch)
            history.append((epoch, train_mae, val_mae))
            if val_mae < best_val:
                best_val, stale = val_mae, 0
                best = ([w.copy() for w in model.weights], [b.copy() for b in model.biases])
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    return NetworkModel(arch, *best, seed=cfg.seed, epochs_run=len(history),
                        val_mae=best_val), history


def assert_same_outcome(got, want):
    if isinstance(want, TrainingDivergedError):
        assert isinstance(got, TrainingDivergedError), got
        assert (str(got), got.epoch) == (str(want), want.epoch)
        return
    assert not isinstance(got, TrainingDivergedError), got
    (model, history), (ref, ref_history) = got, want
    assert [tuple(h) for h in history] == ref_history
    assert (model.val_mae, model.epochs_run, model.seed) == (ref.val_mae, ref.epochs_run, ref.seed)
    for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
        np.testing.assert_array_equal(a, b)


def assert_stack_matches_solo_runs(train_xy, val_xy, arch, cfgs):
    """Every ``train_stack`` member, and every solo ``train`` run, equals the
    serial reference bit for bit; returns the stack's outcomes."""
    outcomes = train_stack(train_xy, val_xy, arch, cfgs)
    assert len(outcomes) == len(cfgs)
    for cfg, outcome in zip(cfgs, outcomes):
        want = serial_reference(train_xy, val_xy, arch, cfg)
        assert_same_outcome(outcome, want)
        try:
            solo = train(train_xy, val_xy, arch, cfg)
        except TrainingDivergedError as exc:
            solo = exc
        assert_same_outcome(solo, want)
    return outcomes


class TestStackedTraining:
    """``train_stack`` trains K members in lockstep as one (K, ...) parameter
    stack; each member, and each solo ``train`` run (the one-member stack),
    must come out exactly as the serial 2-D reference loop. That rests on
    stacked matmuls rounding like 2-D ones, a property of numpy and its BLAS
    that this pins."""

    # 136 training rows: none of the batch sizes divides them, so every epoch
    # ends on a partial batch.
    @settings(max_examples=40, deadline=None)
    @given(activation=st.sampled_from(["relu", "tanh", "sigmoid"]),
           hidden=st.sampled_from([(4,), (6, 3), (40, 20, 10, 5)]),
           batch=st.sampled_from([7, 16, 50]),
           rates=st.lists(st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.3, 1e9]),
                          min_size=1, max_size=4),
           patience=st.integers(1, 2),
           seed=st.integers(0, 2**20))
    def test_every_member_matches_its_solo_run(self, activation, hidden, batch, rates, patience,
                                               seed):
        train_xy, val_xy = tiny_problem(n=200, seed=seed % 7)
        cfgs = [TrainConfig(lr, batch, max_epochs=4, patience=patience, seed=seed + i)
                for i, lr in enumerate(rates)]
        assert_stack_matches_solo_runs(train_xy, val_xy, NetworkArch(hidden, activation), cfgs)

    def test_early_stops_and_a_divergence_leave_the_others_unchanged(self):
        train_xy, val_xy = tiny_problem(n=512, seed=9)
        cfgs = [TrainConfig(lr, 16, max_epochs=8, patience=2, seed=2 + i)
                for i, lr in enumerate((0.0, 1e9, 0.05, 0.001))]
        outcomes = assert_stack_matches_solo_runs(train_xy, val_xy, NetworkArch((12,)), cfgs)
        assert isinstance(outcomes[1], TrainingDivergedError)
        stopped = [outcomes[i][0].epochs_run for i in (0, 2, 3)]
        assert len(set(stopped)) > 1 and min(stopped) < 8  # members stop at different epochs

    def test_members_must_share_the_loop_settings(self):
        train_xy, val_xy = tiny_problem()
        with pytest.raises(ValueError, match="batch size"):
            train_stack(train_xy, val_xy, NetworkArch((4,)),
                        [TrainConfig(0.01, 16), TrainConfig(0.01, 32)])


class TestGrid:
    def test_default_grid_cardinality(self):
        grid = GridSpec.default_grid()
        assert len(grid) == 720
        assert len(grid.enumerate()) == 3 * 8 * 10 * 3

    @pytest.mark.parametrize("axes, message", [
        (((0.01, 0.01), (16,), ((4,),), ("relu",)), "learning_rates: 0.01 repeats 0.01"),
        (((0.01,), (16, 8, 16), ((4,),), ("relu",)), "batch_sizes: 16 repeats 16"),
        (((0.01,), (16,), ((4,), [4]), ("relu",)), "hidden_layouts: [4] repeats (4,)"),
        (((0.01,), (16,), ((4,),), ("relu", "RELU")), "activations: 'RELU' repeats 'relu'"),
    ])
    def test_repeated_axis_value_is_rejected(self, axes, message):
        with pytest.raises(ValueError, match=re.escape(f"grid axis {message}; give each value once")):
            GridSpec(*axes)

    def test_spellings_are_normalized(self):
        grid = GridSpec((0.01,), (16,), ([4, 2],), ("ReLU", "tanh"))
        assert grid.hidden_layouts == ((4, 2),) and grid.activations == ("relu", "tanh")
        assert grid.enumerate() == [GridPoint(0.01, 16, (4, 2), "relu"),
                                    GridPoint(0.01, 16, (4, 2), "tanh")]

    def test_results_csv_bytes(self, tmp_path):
        points = [GridPoint(0.01, 16, (4,), "relu"), GridPoint(1e300, 512, (8, 4), "tanh")]
        rows = [GridRow(0, points[0], "dataset1", 5e-324, 3),
                GridRow(1, points[1], "dataset3", math.nan, 0)]
        GridSearchResult(rows, [(0, 5e-324, False), (1, math.inf, True)], points).write_csv(
            tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == (
            b"lr,batch,arch,activation,dataset,val_mae,epochs\n"
            b"0.01,16,4,relu,dataset1,5e-324,3\n1e+300,512,8-4,tanh,dataset3,nan,0\n")

    def test_numpy_learning_rates_write_plain_numbers(self, tmp_path):
        train_xy, val_xy = tiny_problem(n=128)
        grid = GridSpec(np.array([0.01]), (16,), ((4,),), ("relu",))
        result = grid_search([("only", train_xy, val_xy)], grid, max_epochs=2, patience=2)
        result.write_csv(tmp_path / "grid.csv")
        row = (tmp_path / "grid.csv").read_text().splitlines()[1]
        assert row.startswith("0.01,16,4,relu,only,"), row

    def test_numpy_axes_match_the_tuple_spelling(self, tmp_path):
        train_xy, val_xy = tiny_problem(n=128)
        written = []
        for grid in (GridSpec(np.array([0.01, 0.1]), np.array([16]), ((4,),), ("relu",)),
                     GridSpec((0.01, 0.1), (16,), ((4,),), ("relu",))):
            assert len(grid) == 2
            result = grid_search([("only", train_xy, val_xy)], grid, max_epochs=2, patience=2)
            result.write_csv(tmp_path / "grid.csv")
            written.append((tmp_path / "grid.csv").read_bytes())
        assert written[0] == written[1]

    def test_repeated_numpy_axis_value_is_rejected(self):
        with pytest.raises(ValueError, match=r"^grid axis learning_rates: .*0\.1.* repeats .*0\.1"):
            GridSpec(np.array([0.1, 0.1]), (16,), ((4,),), ("relu",))

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

        def fake_train_stack(train_xy, val_xy, arch, cfgs):
            outcomes = []
            for cfg in cfgs:
                idx = next(i for i, p in enumerate(points) if p.learning_rate == cfg.learning_rate)
                model = init_params(arch, 0)
                model.val_mae = scripted[(idx, train_xy[1])]
                model.epochs_run = 1
                outcomes.append((model, []))
            return outcomes

        monkeypatch.setattr(net, "train_stack", fake_train_stack)
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


def predict_one(model, triple):
    """``predict_depth_batch`` on a one-row array."""
    out = predict_depth_batch(model, np.array([triple], dtype=float))
    assert out.shape == (1,)
    return float(out[0])


def same_bits(a, b):
    return np.asarray(a).view(np.int64).tolist() == np.asarray(b).view(np.int64).tolist()


def spread_model(hidden, activation, seed):
    """A model whose output spreads over tens of metres (a fresh init stays near 0)."""
    rng = np.random.default_rng(seed)
    dims = (3, *hidden, 1)
    weights = [rng.normal(0.0, 1.5 / np.sqrt(dims[i]), (dims[i], dims[i + 1]))
               for i in range(len(dims) - 1)]
    biases = [rng.normal(0.0, 0.5, dims[i + 1]) for i in range(len(dims) - 1)]
    weights[-1] *= 15.0
    biases[-1][:] = 60.0
    return NetworkModel(NetworkArch(hidden, activation), weights, biases, seed=seed)


#: relu, tanh and sigmoid single-layer models plus a deep layout.
MODELS = {
    "relu-40": spread_model((40,), "relu", 1),
    "tanh-40": spread_model((40,), "tanh", 2),
    "sigmoid-40": spread_model((40,), "sigmoid", 3),
    "tanh-40-20-10-5": spread_model((40, 20, 10, 5), "tanh", 4),
}
_gray = st.integers(0, 255)
_rows = st.one_of(
    st.tuples(_gray, _gray, _gray),
    st.tuples(*[st.floats(0.0, 250.0)] * 3),
    st.tuples(st.integers(0, 20), st.integers(40, 250), st.integers(0, 250)),  # clearly valid
)
_invalid_rows = st.one_of(
    st.tuples(st.integers(251, 255), _gray, _gray),  # saturated
    st.tuples(*[st.integers(100, 105)] * 3),  # low contrast
    st.tuples(st.sampled_from([np.nan, np.inf, -np.inf]), _gray, _gray),
)


class TestPredictionsDoNotDependOnTheBatch:
    @pytest.mark.parametrize("name", MODELS)
    @given(rows=st.lists(_rows, min_size=1, max_size=40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_permutation_and_one_row(self, name, rows, data):
        model = MODELS[name]
        triples = np.array(rows, dtype=float)
        out = predict_depth_batch(model, triples)
        cut = data.draw(st.integers(0, len(rows)))
        parts = [predict_depth_batch(model, part) for part in (triples[:cut], triples[cut:])]
        assert same_bits(np.concatenate(parts), out)
        order = np.array(data.draw(st.permutations(range(len(rows)))))
        assert same_bits(predict_depth_batch(model, triples[order]), out[order])
        for i, row in enumerate(triples):
            assert same_bits(predict_depth_batch(model, row), out[i:i + 1])

    @pytest.mark.parametrize("name", MODELS)
    @given(rows=st.lists(_rows, min_size=1, max_size=40),
           extra=st.lists(_invalid_rows, min_size=1, max_size=20), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_invalid_rows_mixed_in(self, name, rows, extra, data):
        model = MODELS[name]
        triples = np.array(rows, dtype=float)
        out = predict_depth_batch(model, triples)
        is_extra = np.array(data.draw(st.permutations([False] * len(rows) + [True] * len(extra))))
        mixed = np.empty((is_extra.size, 3))
        mixed[~is_extra], mixed[is_extra] = triples, np.array(extra, dtype=float)
        got = predict_depth_batch(model, mixed)
        assert same_bits(got[~is_extra], out)
        assert np.isnan(got[is_extra]).all()


class TestShiftInvariance:
    @pytest.mark.parametrize("name", MODELS)
    @given(triples=st.lists(st.tuples(*[st.integers(0, 250)] * 3), min_size=1, max_size=30),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_shift_gives_equal_depths(self, name, triples, data):
        model = MODELS[name]
        base = np.array(triples)
        # shifts that keep each row inside 0..250, so the saturation rule sees the same row
        shift = np.array([data.draw(st.integers(-min(row), 250 - max(row))) for row in triples])
        moved = base + shift[:, None]
        assert same_bits(predict_depth_batch(model, moved), predict_depth_batch(model, base))


class TestPredict:
    def test_prefilter_predicates_apply(self):
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        assert math.isnan(predict_one(model, (251, 10, 10)))
        assert math.isnan(predict_one(model, (100, 102, 103)))
        assert math.isfinite(predict_one(model, (10, 100, 30)))

    def test_affine_invariance(self):
        model = init_params(NetworkArch((8,), "relu"), seed=1)
        base = predict_one(model, (20, 60, 100))
        moved = predict_one(model, (2 * 20 + 5, 2 * 60 + 5, 2 * 100 + 5))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_an_overflowing_model_is_counted_per_batch_of_8192_rows(self):
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        model.weights = [np.full_like(w, 1e300) for w in model.weights]
        triples = np.tile([10.0, 100.0, 30.0], (10_000, 1))
        with pytest.raises(ValueError, match="^8192 of 8192 network inputs predict a non-finite"):
            predict_depth_batch(model, triples)

    @pytest.mark.parametrize("hidden, rows", [((), 8192), ((40,), 8192), ((40, 64, 20), 8192),
                                              ((65,), 8065), ((1000,), 524), ((997, 998), 525),
                                              ((250_000,), 2)])
    def test_chunks_shrink_with_the_widest_layer(self, hidden, rows):
        assert NetworkArch(hidden).chunk_rows == rows

    def test_prediction_and_validation_forward_at_most_one_chunk(self, monkeypatch):
        arch = NetworkArch((1000,), "tanh")  # 524 rows per chunk
        rng = np.random.default_rng(3)
        triples = rng.integers(0, 231, (1500, 3)).astype(float)
        x_val = standardize_batch(triples[:1200])
        y_val = rng.uniform(10.0, 100.0, 1200)
        unchunked = network._forward
        rows = []

        def spy(weights, biases, act, x, cache=None):
            rows.append(x.shape[-2])
            return unchunked(weights, biases, act, x, cache)

        monkeypatch.setattr(network, "_forward", spy)
        model, history = train((x_val[:40], y_val[:40]), (x_val, y_val), arch,
                               TrainConfig(0.01, 16, max_epochs=1, patience=1, seed=2))
        assert max(rows) == 524 and rows.count(524) == 2 and sum(rows) == 40 + 1200
        want = unchunked(model.weights, model.biases, np.tanh, x_val)
        assert history[0].val_mae == float(np.mean(np.abs(want - y_val)))
        rows.clear()
        got = predict_depth_batch(model, triples)
        valid = ~np.isnan(got)
        assert max(rows) <= 524 and sum(rows) == valid.sum() > 1000
        want = unchunked(model.weights, model.biases, np.tanh, standardize_batch(triples[valid]))
        assert same_bits(got[valid], want)

    def test_batch_matches_scalar(self):
        model = init_params(NetworkArch((8,), "relu"), seed=1)
        triples = np.array([[20, 80, 140], [251, 0, 0], [7, 7, 7]], dtype=float)
        batch = predict_depth_batch(model, triples)
        assert batch[0] == pytest.approx(predict_one(model, triples[0]))
        assert np.isnan(batch[1]) and np.isnan(batch[2])


def reference_probe(model, max_gray, contrast_floor, bin_width_m):
    """Per-triple probe: each s1 plane's valid triples are standardized,
    forwarded and binned, and the bin sums accumulate plane by plane."""
    grid = np.arange(max_gray, dtype=float)
    s2, s3 = (g.reshape(-1) for g in np.meshgrid(grid, grid, indexing="ij"))
    sums, total = {}, 0
    for s1 in range(max_gray):
        mask = valid_probe_triples(s1, s2, s3, max_gray, contrast_floor)
        if not mask.any():
            continue
        triples = np.column_stack([np.full(mask.sum(), float(s1)), s2[mask], s3[mask]])
        total += len(triples)
        preds = forward(model, standardize_batch(triples))
        normalized = triples / triples.max(axis=1, keepdims=True)
        keys, inverse = np.unique(np.floor(preds / bin_width_m).astype(np.int64), return_inverse=True)
        counts = np.bincount(inverse)
        col_sums = np.column_stack([np.bincount(inverse, weights=normalized[:, j]) for j in range(3)])
        for key, n, row in zip(keys.tolist(), counts.tolist(), col_sums):
            entry = sums.setdefault(key, [0, np.zeros(3)])
            entry[0] += n
            entry[1] += row
    keys = sorted(sums)
    return ProbeTable(np.array([(k + 0.5) * bin_width_m for k in keys]),
                      np.array([sums[k][1] / sums[k][0] for k in keys]).reshape(-1, 3),
                      np.array([sums[k][0] for k in keys], dtype=np.int64), total)


class TestProbe:
    def test_csv_bytes(self, tmp_path):
        table = ProbeTable(np.array([0.5, 1.5]), np.array([[1.0, -0.0, 5e-324], [0.25, 1e300, 1.0]]),
                           np.array([3, 1]), 4)
        table.write_csv(tmp_path / "probe.csv")
        assert (tmp_path / "probe.csv").read_bytes() == (
            b"r_hat,norm_s1,norm_s2,norm_s3,count\n0.5,1.0,-0.0,5e-324,3\n1.5,0.25,1e+300,1.0,1\n")

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

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("max_gray, contrast_floor", [(30, 0), (30, 6), (60, 6), (60, 20)])
    @pytest.mark.parametrize("bin_width_m", [1.0, 0.37])
    def test_matches_the_per_triple_reference(self, name, max_gray, contrast_floor, bin_width_m):
        model = MODELS[name]
        table = probe_learned_function(model, max_gray, contrast_floor, bin_width_m)
        ref = reference_probe(model, max_gray, contrast_floor, bin_width_m)
        assert table.total_triples == ref.total_triples > 0
        assert table.counts.tolist() == ref.counts.tolist()
        assert same_bits(table.bin_centers, ref.bin_centers)
        np.testing.assert_allclose(table.mean_normalized, ref.mean_normalized, rtol=0, atol=1e-12)
        assert table.counts.size >= 5  # the model spreads over several bins

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(MODELS)), max_gray=st.integers(1, 40),
           contrast_floor=st.integers(0, 12), bin_width_m=st.sampled_from([1.0, 0.37, 2.5, 0.01]))
    def test_property_matches_the_per_triple_reference(self, name, max_gray, contrast_floor,
                                                       bin_width_m):
        table = probe_learned_function(MODELS[name], max_gray, contrast_floor, bin_width_m)
        ref = reference_probe(MODELS[name], max_gray, contrast_floor, bin_width_m)
        assert table.total_triples == ref.total_triples == table.counts.sum()
        assert table.counts.tolist() == ref.counts.tolist()
        assert same_bits(table.bin_centers, ref.bin_centers)
        assert table.mean_normalized.shape == ref.mean_normalized.shape == (table.counts.size, 3)
        np.testing.assert_allclose(table.mean_normalized, ref.mean_normalized, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("contrast_floor", [0, 6])
    @pytest.mark.parametrize("bin_width_m", [1.0, 0.37])
    def test_means_match_exact_rational_sums(self, contrast_floor, bin_width_m):
        model, max_gray = MODELS["tanh-40"], 24
        grid = np.arange(max_gray, dtype=float)
        triples = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
        triples = triples[valid_probe_triples(*triples.T, max_gray, contrast_floor)]
        keys = np.floor(forward(model, standardize_batch(triples)) / bin_width_m).astype(np.int64)
        exact = {}
        for key, triple in zip(keys.tolist(), triples.astype(int).tolist()):
            entry = exact.setdefault(key, [0, [Fraction(0)] * 3])
            entry[0] += 1
            entry[1] = [total + Fraction(v, max(triple)) for total, v in zip(entry[1], triple)]
        table = probe_learned_function(model, max_gray, contrast_floor, bin_width_m)
        assert table.counts.tolist() == [exact[k][0] for k in sorted(exact)]
        assert table.counts.size >= 5
        for row, key in zip(table.mean_normalized.tolist(), sorted(exact)):
            n, sums = exact[key]
            assert max(abs(Fraction(got) - total / n) for got, total in zip(row, sums)) <= 1e-13

    @pytest.mark.parametrize("max_gray, contrast_floor", [(1, 0), (6, 6), (7, 6), (21, 20)])
    def test_no_valid_triple_gives_an_empty_table(self, max_gray, contrast_floor):
        table = probe_learned_function(MODELS["relu-40"], max_gray, contrast_floor)
        assert table.total_triples == 0
        assert table.counts.size == table.bin_centers.size == 0
        assert table.mean_normalized.shape == (0, 3)

    def test_non_finite_predictions_are_rejected(self):
        huge = init_params(NetworkArch((4,), "relu"), seed=0)
        huge.weights = [np.full_like(w, 1e300) for w in huge.weights]  # overflows on most inputs
        with pytest.raises(ValueError, match=r"^\d+ of \d+ network inputs predict a non-finite range$"):
            probe_learned_function(huge, max_gray=20)


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
