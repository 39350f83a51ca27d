"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The expensive network
training for criteria 4 and 5 happens once in a module fixture.

Criteria 4 and 5 run on a hardware-realistic synthetic world: the slice
timing and pulse counts are the stock set, but pulse and gate edges have
finite rise/fall times (trapezoidal shapes). The section baseline keeps its
rectangular-shape assumption, as it does on a real sensor. Criterion 3
checks the baseline in an exactly-rectangular world where its model is
exact, so only quantization error remains.
"""

import math

import numpy as np
import pytest

from gatedepth.cli import main as cli_main
from gatedepth.estimators import baseline_estimate_batch, build_section_table
from gatedepth.evaluation import binned_mae
from gatedepth.gating import GateShape, PulseShape, SliceConfig, slice_support, standard_slices
from gatedepth.network import (
    GridSpec,
    NetworkArch,
    TrainConfig,
    backward,
    forward,
    init_params,
    loss_mae,
    predict_depth_batch,
    probe_learned_function,
    train,
)
from gatedepth.pipeline import RawDataset, prefilter, split, standardize_batch, standardized_arrays
from gatedepth.scene import NoiseModel, UniformRange, calibration_for_peak, generate_dataset

RECT_SLICES = standard_slices()

#: Exhaustive count of valid probe triples below the 230 gray cap, pinned
#: from a one-off enumeration (see criterion 7).
PROBE_TRIPLE_COUNT = 8_117_200


def _report(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def realistic_slices(pulse_edge_fraction=0.15, gate_edge_fraction=0.10):
    """Stock timing and pulse counts with finite rise/fall times."""
    out = []
    for cfg in RECT_SLICES:
        tl = cfg.pulse.width_ns
        tg = cfg.gate.width_ns
        out.append(
            SliceConfig(
                cfg.pulses,
                PulseShape(tl, "trapezoidal", rise_ns=pulse_edge_fraction * tl,
                           fall_ns=pulse_edge_fraction * tl),
                GateShape(tg, "trapezoidal", rise_ns=gate_edge_fraction * tg,
                          fall_ns=gate_edge_fraction * tg),
                cfg.delay_ns,
            )
        )
    return tuple(out)


@pytest.fixture(scope="module")
def trained_world():
    """Synthetic data, a trained network, and the shared held-out test set."""
    slices = realistic_slices()
    calib = calibration_for_peak(slices, 25.0, 100.0, target_peak_gray=240.0)
    train_samples = generate_dataset(
        100_000, UniformRange(10.0, 100.0), UniformRange(0.05, 0.9),
        slices, NoiseModel(2.0, seed=303), calib=calib,
    )
    test_samples = generate_dataset(
        20_000, UniformRange(10.0, 100.0), UniformRange(0.05, 0.9),
        slices, NoiseModel(2.0, seed=404), calib=calib,
    )
    usable = prefilter(train_samples)
    train_set, val_set = split(usable, 0.8, seed=7)
    model, history = train(
        standardized_arrays(train_set),
        standardized_arrays(val_set),
        NetworkArch((40,), "relu"),
        TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=100, patience=10, seed=12),
    )
    triples = np.array([s.triple for s in test_samples], dtype=float)
    truth = np.array([s.r for s in test_samples])
    return model, history, triples, truth


def test_criterion_1_slice_bands():
    expected = [(3.0, 72.0), (18.0, 123.0), (57.0, 176.0)]
    for cfg, (lo, hi) in zip(RECT_SLICES, expected):
        got = slice_support(cfg)
        assert got[0] == pytest.approx(lo, abs=1.0)
        assert got[1] == pytest.approx(hi, abs=1.0)
    _report(1, "slice bands 3-72/18-123/57-176 m within 1 m")


def test_criterion_2_section_count():
    table = build_section_table(RECT_SLICES)
    assert len(table) == 9
    doubled = [sec for sec in table.sections
               if sec.r_lo < 71.9 and sec.r_hi > 57.0 and len(sec.lit) == 3]
    assert len(doubled) == 2
    assert all(len(sec.estimators) == 2 for sec in doubled)
    assert all(len(sec.estimators) == 1 for sec in table.sections if sec not in doubled)
    _report(2, "nine sections, two estimates across 57-72 m")


def test_criterion_3_baseline_on_noiseless_sweep():
    table = build_section_table(RECT_SLICES)
    calib = calibration_for_peak(RECT_SLICES, 20.0, 100.0, target_peak_gray=200.0)
    r = np.arange(20.0, 100.0 + 1e-9, 0.5)
    from gatedepth.scene import simulate_batch

    gray = simulate_batch(r, np.ones_like(r), RECT_SLICES, 0.0, calib, NoiseModel(0.0, 0))
    estimates = baseline_estimate_batch(gray.astype(float), table)
    assert np.isfinite(estimates).mean() > 0.95
    binned = binned_mae(estimates, r, 5.0)
    assert binned.rows, "no covered bins"
    for row in binned.rows:
        assert row.mae < 1.0, f"bin {row.center}: MAE {row.mae}"
    _report(3, "noiseless baseline sweep below 1 m MAE per 5 m bin")


def test_criterion_4_network_relative_accuracy(trained_world):
    model, _history, triples, truth = trained_world
    predictions = predict_depth_batch(model, triples)
    binned = {row.center: row for row in binned_mae(predictions, truth, 5.0).rows}
    for center in np.arange(27.5, 80.0, 5.0):
        row = binned.get(center)
        assert row is not None, f"bin {center} m is empty"
        assert row.rel_mae <= 0.05, f"bin {center} m: relative MAE {row.rel_mae:.3%}"
    _report(4, "network relative MAE at most 5% across 25-80 m")


def test_criterion_5_network_beats_baseline_nearby(trained_world):
    model, _history, triples, truth = trained_world
    table = build_section_table(RECT_SLICES)  # rectangular assumption, as fielded
    network = {row.center: row for row in
               binned_mae(predict_depth_batch(model, triples), truth, 5.0).rows}
    baseline = {row.center: row for row in
                binned_mae(baseline_estimate_batch(triples, table), truth, 5.0).rows}
    for center in np.arange(27.5, 50.0, 5.0):
        nn_row, base_row = network.get(center), baseline.get(center)
        assert nn_row is not None and base_row is not None, f"bin {center} m missing"
        assert nn_row.mae <= base_row.mae, (
            f"bin {center} m: network {nn_row.mae:.3f} m vs baseline {base_row.mae:.3f} m"
        )
    _report(5, "network at or below baseline MAE in every 25-50 m bin")


def test_criterion_6_gradient_check():
    from test_network import finite_difference_grads, max_relative_gradient_error, smooth_case

    rng = np.random.default_rng(99)
    worst = 0.0
    activations = ["tanh", "sigmoid", "relu"]
    for i in range(20):
        model, x, y = smooth_case(rng, activations[i % 3])
        gw, gb = backward(model, x, y)
        fw, fb = finite_difference_grads(model, x, y)
        for got, ref in zip(gw + gb, fw + fb):
            worst = max(worst, max_relative_gradient_error(got, ref))
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    _report(6, f"analytic gradients match finite differences ({worst:.1e})")


def test_criterion_7_probe_enumeration_count():
    model = init_params(NetworkArch((40,), "relu"), seed=0)
    table = probe_learned_function(model, max_gray=230)
    assert table.total_triples == PROBE_TRIPLE_COUNT
    assert 7_000_000 <= table.total_triples <= 9_000_000
    assert table.counts.sum() == table.total_triples
    _report(7, f"probe enumerates {PROBE_TRIPLE_COUNT} valid triples")


def test_criterion_8_invariance_suite(trained_world):
    model, _history, _triples, _truth = trained_world
    rng = np.random.default_rng(5)

    # (a) standardization invariance of the network prediction
    s = rng.integers(10, 200, (10_000, 3)).astype(float)
    spread_ok = (s.max(axis=1) - s.min(axis=1)) >= 12
    s = s[spread_ok]
    scale = rng.uniform(0.5, 1.2, (s.shape[0], 1))
    shift = rng.uniform(0.0, 5.0, (s.shape[0], 1))
    moved = s * scale + shift
    valid = (moved.max(axis=1) <= 250) & (moved.max(axis=1) - moved.min(axis=1) >= 6)
    base = predict_depth_batch(model, s[valid])
    transformed = predict_depth_batch(model, moved[valid])
    np.testing.assert_allclose(transformed, base, atol=1e-6)

    # (b) baseline scale invariance
    from gatedepth.estimators import baseline_estimate
    from gatedepth.scene import simulate_batch

    table = build_section_table(RECT_SLICES)
    calib = calibration_for_peak(RECT_SLICES, 20.0, 100.0, target_peak_gray=200.0)
    r = np.arange(22.0, 100.0, 3.0)
    gray = simulate_batch(r, np.ones_like(r), RECT_SLICES, 0.0, calib, NoiseModel(0.0, 0))
    for row in gray.astype(float):
        reference = baseline_estimate(row, table)
        for k in (0.5, 2.0, 3.0):
            if any((s >= 6.0) != (s * k >= 6.0) for s in row):
                continue  # rescaling flips a slice across the lit/dark floor
            scaled = baseline_estimate(row * k, table)
            if reference is None:
                assert scaled is None
            else:
                assert scaled == pytest.approx(reference, abs=1e-9)

    # (c) prefilter idempotence
    data = RawDataset(rng.integers(0, 256, (2000, 3)), rng.uniform(1.0, 150.0, 2000))
    once = prefilter(data)
    assert prefilter(once) == once

    # (d) per-sample z-scores have zero mean and unit sample std
    triples = rng.integers(0, 256, (10_000, 3)).astype(float)
    triples = triples[triples.max(axis=1) > triples.min(axis=1)]
    z = standardize_batch(triples)
    assert np.max(np.abs(z.mean(axis=1))) < 1e-9
    assert np.max(np.abs(z.std(axis=1, ddof=1) - 1.0)) < 1e-9
    _report(8, "standardization, scaling, and prefilter invariances hold")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 5\nsim.samples = 2000\n"
        "train.max_epochs = 5\ntrain.patience = 3\ntrain.batch_size = 32\n"
        "dataset.variant = dataset4\n"
    )
    data_dir = tmp_path / "data"
    assert cli_main(["--config", str(cfg), "--out", str(data_dir), "simulate"]) == 0
    samples = str(data_dir / "samples.csv")

    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli_main(["--config", str(cfg), "--out", str(out), "train",
                         "--input", samples]) == 0
        outputs[tag] = [(out / "model.txt").read_bytes(), (out / "history.csv").read_bytes()]
    assert outputs["a"] == outputs["b"]

    grid_args = ["gridsearch", "--input", samples,
                 "--learning-rates", "0.1,0.01", "--batch-sizes", "32,64",
                 "--architectures", "5,10-5", "--activations", "relu"]
    grids = {}
    for tag in ("a", "b"):
        out = tmp_path / f"grid_{tag}"
        assert cli_main(["--config", str(cfg), "--out", str(out)] + grid_args) == 0
        grids[tag] = [(out / "grid_results.csv").read_bytes(), (out / "grid_best.txt").read_bytes()]
    assert grids["a"] == grids["b"]
    _report(9, "train and reduced grid search rerun byte-identically")


def test_criterion_10_grid_cardinality():
    grid = GridSpec.default_grid()
    assert len(grid) == 720
    points = grid.enumerate()
    assert len(points) == 720 == 3 * 8 * 10 * 3
    assert len(set(points)) == 720
    _report(10, "stock grid enumerates exactly 720 configurations")
