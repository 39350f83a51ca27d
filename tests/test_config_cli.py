import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatedepth
from gatedepth import cli
from gatedepth.cli import _COMMANDS, build_parser, main
from gatedepth.config import _SCHEMA, RunConfig, config_hash, parse_config, serialize_config
from gatedepth.errors import ConfigError, DataFormatError
from gatedepth.gating import slice_support, standard_slices
from gatedepth.network import EpochStats, NetworkArch, init_params, load_model, save_model
from gatedepth.pgmio import write_pgm
from gatedepth.pipeline import load_samples, prefilter, save_samples
from gatedepth.scene import NoiseModel, UniformRange, generate_dataset
from gatedepth.seeding import derive_seed


# Config values and lines on which parse_config must return or raise ConfigError: odd
# numerals, non-finite, subnormal and huge numbers, 5,000-digit fields, blanks and comments
_NUMERALS = ["", "0", "-0", "+1", "1_000", "0x10", "1e3", "1e308", "1e999", "-1e999", "5e-324",
             "nan", "NaN", "-inf", "Infinity", "\u0663", "\u00bd", "2**8", "40-20", "40x20", "40--20",
             "-", "relu", "TANH", "dataset4", "9" * 30, "9" * 4300, "1" * 5000, "0." + "0" * 4999,
             "1e" + "9" * 20]
_config_value = st.one_of(
    st.sampled_from(_NUMERALS), st.integers().map(str), st.floats().map(repr),
    st.text(st.characters(codec="utf-8", exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
            max_size=12))
_CONFIG_KEYS = [*_SCHEMA, "slice4.tl_ns", "slice1.t_zero", "Seed", "sim", ""]
_LINE_FORMS = ["{} = {}", "{} = {}  # note", "{} {}", "", "# {} = {}"]


def assert_parses_or_names_the_first_bad_line(lines):
    """``parse_config`` returns, or raises ConfigError naming the first bad
    line (or the unordered sim ranges); any other exception fails."""
    try:
        parse_config("\n".join(lines))
    except ConfigError as exc:
        found = re.match(r"line (\d+): ", str(exc))
        if found is None:
            assert re.match(r"sim\.(r_min_m|alpha_min) = .* must be below sim\.", str(exc))
            return
        n = int(found.group(1))
        assert lines[n - 1].split("#", 1)[0].strip()
        try:  # the lines before it are fine, up to the ordering of the sim ranges
            parse_config("\n".join(lines[:n - 1]))
        except ConfigError as before:
            assert str(before).startswith("sim.")


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.slices == standard_slices()
        assert cfg.variant == "dataset3"
        assert cfg.hidden == (40,) and cfg.activation == "relu"
        assert cfg.learning_rate == 0.01 and cfg.batch_size == 16

    def test_slice_presets_roundtrip_through_serialization(self):
        cfg = RunConfig()
        text = serialize_config(cfg)
        back = parse_config(text)
        assert back.slices == cfg.slices
        assert config_hash(back) == config_hash(cfg)

    def test_key_order_and_default_hash_are_pinned(self):
        # RunConfig's field order is the serialization order: reordering a field changes both
        assert list(_SCHEMA) == [
            "seed",
            "slice1.pulses", "slice1.tl_ns", "slice1.tg_ns", "slice1.t0_ns",
            "slice2.pulses", "slice2.tl_ns", "slice2.tg_ns", "slice2.t0_ns",
            "slice3.pulses", "slice3.tl_ns", "slice3.tg_ns", "slice3.t0_ns",
            "atmosphere.gamma_per_m", "noise.sigma_gray", "dataset.variant",
            "network.hidden", "network.activation",
            "train.learning_rate", "train.batch_size", "train.max_epochs", "train.patience",
            "train.fraction",
            "sim.samples", "sim.r_min_m", "sim.r_max_m", "sim.alpha_min", "sim.alpha_max",
            "sim.target_peak_gray",
            "eval.bin_width_m", "baseline.dark_floor", "baseline.tolerance_m",
            "probe.max_gray", "probe.contrast_floor",
        ]
        assert config_hash(RunConfig()) == (
            "09f9916379619ccce0a06ceb1eb9a35fdc27e621b72bf7f43120d71208b6fed3")

    def test_readme_lists_every_key_with_its_default_in_order(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config keys (defaults shown)\n\n```text\n", 1)[1].split("```", 1)[0]
        pairs = [pair for line in block.splitlines()
                 for pair in re.findall(r"(\S+) = (\S+)", line.split("#", 1)[0])]
        assert [key for key, _ in pairs] == list(_SCHEMA)
        documented = parse_config("\n".join(f"{key} = {value}" for key, value in pairs))
        assert serialize_config(documented) == serialize_config(RunConfig())

    def test_overrides(self):
        cfg = parse_config(
            "seed = 9\nslice1.t0_ns = 25\nnetwork.hidden = 20-10\ntrain.batch_size = 64\n"
        )
        assert cfg.seed == 9
        assert cfg.slices[0].delay_ns == 25.0
        assert cfg.hidden == (20, 10)
        assert cfg.batch_size == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("slice1.t_zero = 10\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\ntrain.batch_size = soon\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nseed = 4  # trailing\n")
        assert cfg.seed == 4

    @pytest.mark.parametrize("text, keys", [
        ("sim.r_min_m = 100\n", ("sim.r_min_m", "sim.r_max_m")),
        ("sim.r_max_m = 5\n", ("sim.r_min_m", "sim.r_max_m")),
        ("sim.alpha_min = 0.5\nsim.alpha_max = 0.5\n", ("sim.alpha_min", "sim.alpha_max")),
    ])
    def test_sim_ranges_must_be_ordered(self, text, keys):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert all(key in str(info.value) for key in keys)
        parse_config("sim.r_min_m = 120\nsim.r_max_m = 150\n")  # the order of the lines does not matter

    def test_hash_tracks_content(self):
        assert config_hash(parse_config("seed = 1")) != config_hash(parse_config("seed = 2"))

    def test_every_key_with_every_odd_numeral_parses_or_names_its_line(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for key in _CONFIG_KEYS:
                for value in _NUMERALS:
                    assert_parses_or_names_the_first_bad_line([f"{key} = {value}"])

    @given(st.lists(st.builds(str.format, st.sampled_from(_LINE_FORMS), st.sampled_from(_CONFIG_KEYS),
                              _config_value), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_any_lines_parse_or_fail_naming_the_first_bad_line(self, lines):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_parses_or_names_the_first_bad_line(lines)


def test_stage_seed_derivation_is_stable():
    assert derive_seed(7, "train") == derive_seed(7, "train")
    assert derive_seed(7, "train") != derive_seed(7, "split")
    assert derive_seed(7, "train") != derive_seed(8, "train")


@pytest.fixture()
def sample_csv(tmp_path):
    samples = generate_dataset(
        600, UniformRange(15.0, 100.0), UniformRange(0.2, 0.9),
        standard_slices(), NoiseModel(2.0, seed=5), target_peak_gray=200.0,
    )
    path = tmp_path / "samples.csv"
    save_samples(samples, path)
    return path


@pytest.fixture()
def model_file(tmp_path):
    model = init_params(NetworkArch((8,), "relu"), seed=3)
    path = tmp_path / "model.txt"
    save_model(model, path)
    return path


# One bad line of each kind: a wrong field count, a non-numeric field (one
# split by a quoted newline), a field over csv's size limit, a gray value
# outside 0..255 (one beyond int64) and a range that is not positive and finite.
_SWEEP_BAD_LINES = ["10,20,30", "10,20,30,5.0,1", "   ", "10,x,30,5.0", '10,"2\n0",30,5.0',
                    "10,20,30," + "0" * 200_000 + "5.0", "256,20,30,5.0", "10,-1,30,5.0",
                    "10,20,99999999999999999999,5.0", "10,20,30,0", "10,20,30,-2.5",
                    "10,20,30,nan", "10,20,30,inf"]


@st.composite
def _malformed_sample_files(draw):
    """Sample-file bytes that no reader accepts: empty, a header alone, valid
    rows around one bad line, or such a file with a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["empty", "header_only", "bad_line", "not_utf8"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if kind == "empty":
        return b""
    if kind == "header_only":
        return ("s1,s2,s3,r" + draw(st.sampled_from([end, ""]))).encode()
    row = st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
                    st.floats(0.5, 150.0)).map(lambda t: f"{t[0]},{t[1]},{t[2]},{t[3]!r}")
    lines = draw(st.lists(row, max_size=5))
    if kind == "bad_line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_SWEEP_BAD_LINES)))
    raw = end.join(["s1,s2,s3,r", *lines, ""]).encode()
    if kind == "not_utf8":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + raw[at:]
    return raw


_PGM_BAD_TOKENS = [b"", b"-3", b"0", b"x", b"4.5", b"0x10", b"9" * 30]


@st.composite
def _malformed_pgms(draw):
    """Slice-PGM bytes that no reader accepts: a wrong magic, a width, height
    or maxval token that is missing, negative, zero, non-numeric or huge, or a
    truncated payload; comments may sit between the header tokens."""
    tokens = [b"P5", b"4", b"3", draw(st.sampled_from([b"255", b"65535"]))]
    fault = draw(st.sampled_from(["magic", "token", "truncated"]))
    if fault == "magic":
        tokens[0] = draw(st.sampled_from([b"P2", b"P6", b"p5", b"P55", b"\xffP5"]))
    elif fault == "token":
        tokens[draw(st.integers(1, 3))] = draw(st.sampled_from(_PGM_BAD_TOKENS))
    seps = [draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# a comment\n", b" #\n"]))
            for _ in range(3)]
    header = tokens[0] + b"".join(sep + token for sep, token in zip(seps, tokens[1:])) + b"\n"
    size = 12 * (2 if tokens[3] == b"65535" else 1)
    payload = draw(st.binary(min_size=size, max_size=size))
    if fault == "truncated":
        payload = payload[:draw(st.integers(0, size - 1))]
    return header + payload


_MODEL_TOKENS = ["", "-", "-1", "0", "x", "nan", "inf", "1e999", "1e300", "-1e300",
                 "99999999999999999999", "layer", "bias", "tanh", "2.5"]


class TestCli:
    def test_sections_command(self, tmp_path):
        assert main(["--out", str(tmp_path), "sections"]) == 0
        lines = (tmp_path / "sections.csv").read_text().splitlines()
        assert len(lines) == 10  # header plus nine sections
        assert (tmp_path / "sections_manifest.txt").exists()

    def test_rip_command_covers_advertised_bands(self, tmp_path):
        assert main(["--out", str(tmp_path), "rip", "--r-step", "0.5"]) == 0
        for i, (lo, hi) in enumerate([(3.0, 72.0), (18.0, 122.9), (57.0, 175.4)], start=1):
            rows = (tmp_path / f"rip_slice{i}.csv").read_text().splitlines()[1:]
            coords = np.array([float(r.split(",")[0]) for r in rows])
            vals = np.array([float(r.split(",")[1]) for r in rows])
            lit = coords[vals > 0]
            assert lit.min() == pytest.approx(lo, abs=1.0)
            assert lit.max() == pytest.approx(hi, abs=1.0)

    @pytest.mark.parametrize("config, argv, farthest", [
        ("slice1.tl_ns = 1e9\n", [], "slice1"),  # a 4.47 GiB grid
        ("slice1.t0_ns = 1e300\n", [], "slice1"),  # past numpy's size limit
        ("", ["--r-step", "1e-9"], "slice3"),
    ])
    def test_oversized_rip_grid_is_a_config_error_before_allocation(self, tmp_path, capsys,
                                                                     monkeypatch, config, argv,
                                                                     farthest):
        def refuse(*a, **k):
            raise AssertionError("np.arange reached")

        monkeypatch.setattr(cli.np, "arange", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "rip", *argv]) == 2
        err = capsys.readouterr().err
        for key in ("--r-step", f"{farthest}.t0_ns", f"{farthest}.tl_ns", f"{farthest}.tg_ns"):
            assert key in err
        assert "exceeds 10,000,000" in err
        assert not list((tmp_path / "o").glob("rip_slice*.csv"))

    @pytest.mark.parametrize("step", [1e300, max(slice_support(s)[1] for s in standard_slices())
                                      + 10.0 + 1.0])
    def test_a_step_past_the_grid_end_is_a_usage_error_naming_it(self, tmp_path, capsys, step):
        r_max = max(slice_support(s)[1] for s in standard_slices())
        assert main(["--out", str(tmp_path / "o"), "rip", "--r-step", repr(step)]) == 2
        err = capsys.readouterr().err
        assert f"--r-step {step:.6g} m leaves the rip grid empty" in err
        assert f"r_max + 10 = {r_max + 10.0:.6g} m" in err and "slice3.t0_ns" in err
        assert not list((tmp_path / "o").glob("rip_slice*.csv"))

    @pytest.mark.parametrize("config, argv, message", [
        ("sim.samples = 1000000000000\n", ["simulate"],
         "bad value for 'sim.samples': 1000000000000 is not in 1..10,000,000"),
        ("sim.samples = 10000001\n", ["simulate"],
         "bad value for 'sim.samples': 10000001 is not in 1..10,000,000"),
        ("network.hidden = 100000-100000\n", ["train"],
         "bad value for 'network.hidden': hidden layout 100000-100000 has 10,000,400,000 "
         "weights, more than 1,000,000"),
        ("", ["gridsearch", "--architectures", "40,100000-100000"],
         "argument --architectures: hidden layout 100000-100000 has 10,000,400,000 weights, "
         "more than 1,000,000"),
    ])
    def test_oversized_samples_or_layout_is_a_usage_error_before_allocation(
            self, tmp_path, capsys, monkeypatch, config, argv, message):
        def refuse(*a, **k):
            raise AssertionError("allocation reached")

        # Generator.uniform is an immutable C type's method: patch its callers
        monkeypatch.setattr(UniformRange, "sample", refuse)
        monkeypatch.setattr(gatedepth.network, "init_params", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        if argv[0] != "simulate":
            argv = [*argv, "--input", str(tmp_path / "missing.csv")]  # reading it would exit 3
        try:
            code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_size_bounds_admit_their_limits(self):
        assert parse_config("sim.samples = 10000000\n").sim_samples == 10_000_000
        assert NetworkArch((250_000,)).hidden == (250_000,)  # 3 * 250,000 + 250,000 weights
        assert NetworkArch((997, 998)).hidden == (997, 998)  # 2,991 + 995,006 + 998 weights
        with pytest.raises(ValueError, match="layout 250001 has 1,000,004 weights"):
            NetworkArch((250_001,))

    def test_a_distance_whose_square_underflows_is_a_computation_error(self, tmp_path, capsys):
        # in-process: a numpy RuntimeWarning here fails the test (pyproject filterwarnings)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sim.r_min_m = 1e-170\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 4
        assert capsys.readouterr().err == "error: irradiance factor is not finite at r = 1e-170 m\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_simulate_is_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sim.samples = 400\nseed = 3\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(out1), "simulate"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "simulate"]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_preprocess_dataset4_matches_prefilter_output(self, tmp_path, sample_csv):
        out = tmp_path / "pre"
        assert main(["--out", str(out), "preprocess", "--input", str(sample_csv),
                     "--variant", "dataset4"]) == 0
        filtered = load_samples(out / "filtered.csv")
        expected = prefilter(load_samples(sample_csv))
        assert filtered == expected
        report = (out / "preprocess_report.txt").read_text()
        assert "removed_saturated" in report and "output_rows" in report

    def test_train_and_predict_and_eval(self, tmp_path, sample_csv):
        out = tmp_path / "run"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("train.max_epochs = 3\ntrain.patience = 2\ntrain.batch_size = 32\n")
        assert main(["--config", str(cfg), "--out", str(out), "train",
                     "--input", str(sample_csv)]) == 0
        assert (out / "model.txt").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_mae,val_mae"
        assert len(history) >= 2

        assert main(["--out", str(out), "predict", "--model", str(out / "model.txt"),
                     "--input", str(sample_csv)]) == 0
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[0] == "s1,s2,s3,r_true,r_hat"

        assert main(["--out", str(out), "eval", "--input", str(sample_csv),
                     "--model", str(out / "model.txt"), "--baseline"]) == 0
        text = (out / "comparison.csv").read_text()
        assert "network," in text and "baseline," in text

    def test_history_and_predictions_csv_bytes(self, tmp_path, monkeypatch, sample_csv,
                                                model_file):
        history = [EpochStats(0, 1e300, 5e-324), EpochStats(1, -0.0, 0.5)]
        monkeypatch.setattr(cli, "train", lambda *args: (init_params(NetworkArch((2,)), 0), history))
        assert main(["--out", str(tmp_path), "train", "--input", str(sample_csv)]) == 0
        assert (tmp_path / "history.csv").read_bytes() == (
            b"epoch,train_mae,val_mae\n0,1e+300,5e-324\n1,-0.0,0.5\n")

        samples = tmp_path / "four.csv"
        samples.write_text("s1,s2,s3,r\n10,100,30,1e300\n255,0,0,5e-324\n7,7,7,12.5\n20,80,140,40.0\n")
        preds = np.array([1.5, np.nan, -np.inf, -0.0])
        monkeypatch.setattr(cli, "predict_depth_batch", lambda model, triples: preds)
        assert main(["--out", str(tmp_path), "predict", "--model", str(model_file),
                     "--input", str(samples)]) == 0
        assert (tmp_path / "predictions.csv").read_bytes() == (
            b"s1,s2,s3,r_true,r_hat\n10,100,30,1e+300,1.5\n255,0,0,5e-324,\n7,7,7,12.5,\n"
            b"20,80,140,40.0,-0.0\n")

    def test_gridsearch_reduced(self, tmp_path, sample_csv):
        out = tmp_path / "grid"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("train.max_epochs = 2\ntrain.patience = 2\ndataset.variant = dataset4\n")
        assert main(["--config", str(cfg), "--out", str(out), "gridsearch",
                     "--input", str(sample_csv),
                     "--learning-rates", "0.1,0.01", "--batch-sizes", "32",
                     "--architectures", "5", "--activations", "relu"]) == 0
        rows = (out / "grid_results.csv").read_text().splitlines()
        assert rows[0] == "lr,batch,arch,activation,dataset,val_mae,epochs"
        assert len(rows) == 3
        assert (out / "grid_best.txt").exists()

    def test_depthmap_with_baseline(self, tmp_path, slices):
        from gatedepth.scene import render_slices

        depth = np.full((6, 6), 45.0)
        reflect = np.full_like(depth, 0.7)
        images = render_slices(depth, reflect, slices, NoiseModel(0.0, 0), calib=3.2)
        paths = []
        for i, img in enumerate(images.images, start=1):
            p = tmp_path / f"slice{i}.pgm"
            write_pgm(p, img)
            paths.append(str(p))
        out = tmp_path / "dm"
        assert main(["--out", str(out), "depthmap",
                     "--slice1", paths[0], "--slice2", paths[1], "--slice3", paths[2],
                     "--csv"]) == 0
        assert (out / "depth.pgm").exists() and (out / "depth.csv").exists()
        from gatedepth.evaluation import read_depth_pgm

        depth_map = read_depth_pgm(out / "depth.pgm")
        assert depth_map.valid_mask.all()
        assert np.abs(depth_map.depth - 45.0).max() < 1.0

    def test_depthmap_with_model(self, tmp_path, model_file):
        for i, v in enumerate((10, 100, 30), start=1):
            write_pgm(tmp_path / f"s{i}.pgm", np.full((4, 4), v, dtype=np.uint8))
        out = tmp_path / "dm_model"
        assert main(["--out", str(out), "depthmap", "--model", str(model_file),
                     "--slice1", str(tmp_path / "s1.pgm"), "--slice2", str(tmp_path / "s2.pgm"),
                     "--slice3", str(tmp_path / "s3.pgm")]) == 0
        assert (out / "depth.pgm").exists()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("GATEDEPTH_OUT", str(target))
        assert main(["sections"]) == 0
        assert (target / "sections.csv").exists()

    def test_probe_command(self, tmp_path, model_file):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("probe.max_gray = 32\n")
        out = tmp_path / "probe"
        assert main(["--config", str(cfg), "--out", str(out), "probe",
                     "--model", str(model_file)]) == 0
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0] == "r_hat,norm_s1,norm_s2,norm_s3,count"
        assert len(lines) > 1

    def test_probe_without_valid_triples_is_a_computation_error(self, tmp_path, capsys, model_file):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("probe.max_gray = 1\n")
        out = tmp_path / "probe"
        assert main(["--config", str(cfg), "--out", str(out), "probe",
                     "--model", str(model_file)]) == 4
        err = capsys.readouterr().err
        assert "probe.max_gray" in err and "probe.contrast_floor" in err
        assert not (out / "probe.csv").exists()

    @pytest.mark.parametrize("case", ["sample_range", "bin_width", "model_bias"])
    def test_a_bin_outside_int64_is_a_computation_error(self, tmp_path, capsys, case):
        # in-process: a numpy RuntimeWarning here fails the test (pyproject filterwarnings)
        samples = tmp_path / "samples.csv"
        r = 1e300 if case == "sample_range" else 50.0
        samples.write_text(f"s1,s2,s3,r\n10,100,30,50.0\n10,100,30,{r!r}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eval.bin_width_m = 1e-300\n" if case == "bin_width"
                       else "probe.max_gray = 20\n")
        out = tmp_path / "out"
        if case == "model_bias":  # a linear model predicting a finite 1e300 m everywhere
            model = init_params(NetworkArch((), "relu"), seed=0)
            model.biases[0][:] = 1e300
            save_model(model, tmp_path / "model.txt")
            argv = ["probe", "--model", str(tmp_path / "model.txt")]
        else:
            argv = ["eval", "--input", str(samples), "--baseline"]
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == 4
        value, width = {"sample_range": ("1e+300", "5.0"), "bin_width": ("50.0", "1e-300"),
                        "model_bias": ("1e+300", "1.0")}[case]
        assert f"error: {value} has no bin of width {width}:" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, count", [
        ("predict", "1 of 1"), ("eval", "1 of 1"), ("depthmap", "16 of 16"), ("probe", None)],
        ids=["predict", "eval", "depthmap", "probe"])
    def test_an_overflowing_model_is_a_computation_error(self, tmp_path, command, count):
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        model.weights = [np.full_like(w, 1e300) for w in model.weights]  # finite, overflows on use
        save_model(model, tmp_path / "huge.txt")
        (tmp_path / "samples.csv").write_text("s1,s2,s3,r\n10,100,30,50.0\n7,7,7,20.0\n")
        for i, v in enumerate((10, 100, 30), start=1):
            write_pgm(tmp_path / f"s{i}.pgm", np.full((4, 4), v, dtype=np.uint8))
        (tmp_path / "probe.cfg").write_text("probe.max_gray = 20\n")
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--input", str(tmp_path / "samples.csv")],
            "eval": ["eval", "--input", str(tmp_path / "samples.csv")],
            "depthmap": ["depthmap", *(f"--slice{i}={tmp_path}/s{i}.pgm" for i in (1, 2, 3))],
            "probe": ["--config", str(tmp_path / "probe.cfg"), "probe"],
        }[command]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(gatedepth.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "gatedepth.cli", "--out", str(out), *argv,
                               "--model", str(tmp_path / "huge.txt")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4, proc.stderr
        count = count or r"[1-9]\d* of \d+"  # the probe's first overflowing batch
        assert re.match(rf"error: {count} network inputs predict a non-finite range\n\Z", proc.stderr), \
            proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert list(out.iterdir()) == []  # no output file, no manifest

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_a_split_with_an_empty_set_is_a_data_error_naming_the_file(self, tmp_path, capsys,
                                                                       command, rows):
        # At the default train.fraction of 0.8, one or two rows all go to training.
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("s1,s2,s3,r\n" + "20,150,90,30.5\n10,140,200,45.0\n"[:15 * rows])
        extra = ["--variants", "dataset4"] if command == "gridsearch" else []
        assert main(["--out", str(tmp_path / "o"), command, *extra, "--input", str(tiny)]) == 3
        err = capsys.readouterr().err
        what = (f"variant dataset4 keeps {rows} sample(s)" if extra else
                f"{rows} sample(s) survive the prefilter")
        assert err == (f"error: {tiny}: {what}; train.fraction = 0.8 splits them into {rows} "
                       f"training and 0 validation rows, and each set needs at least one\n")
        assert not (tmp_path / "o" / "model.txt").exists()
        assert not (tmp_path / "o" / "grid_results.csv").exists()

    def test_exit_codes(self, tmp_path, sample_csv):
        # I/O error: missing input file
        assert main(["--out", str(tmp_path), "preprocess", "--input",
                     str(tmp_path / "missing.csv")]) == 3
        # usage error: unknown config key
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("nope = 1\n")
        assert main(["--config", str(bad_cfg), "--out", str(tmp_path), "sections"]) == 2
        # usage error: eval without any estimator selected
        assert main(["--out", str(tmp_path), "eval", "--input", str(sample_csv)]) == 2
        # usage error: invalid training batch size, caught when the config is parsed
        bad_batch = tmp_path / "batch.cfg"
        bad_batch.write_text("train.batch_size = 0\n")
        assert main(["--config", str(bad_batch), "--out", str(tmp_path), "train",
                     "--input", str(sample_csv)]) == 2
        # computation error: a learning rate that makes training diverge
        comp_cfg = tmp_path / "comp.cfg"
        comp_cfg.write_text("train.learning_rate = 1e300\n")
        assert main(["--config", str(comp_cfg), "--out", str(tmp_path), "train",
                     "--input", str(sample_csv)]) == 4
        # I/O error: malformed data file
        broken = tmp_path / "broken.csv"
        broken.write_text("s1,s2,s3,r\n1,2\n")
        assert main(["--out", str(tmp_path), "preprocess", "--input", str(broken)]) == 3

    @pytest.mark.parametrize("command", ["sections", "train", "preprocess"])
    @pytest.mark.parametrize("line", [
        "network.activation = swish",
        "dataset.variant = nope",
        "train.fraction = 1.5",
        "train.fraction = 0",
        "network.hidden = 20-0",
        "noise.sigma_gray = -1",
        "eval.bin_width_m = -1",
        "train.batch_size = 0",
        "train.max_epochs = 0",
        "train.patience = 0",
        "train.learning_rate = -0.1",
        "train.learning_rate = inf",
        "probe.max_gray = 0",
        "probe.max_gray = 257",
        "probe.contrast_floor = -1",
        "baseline.dark_floor = nan",
        "baseline.dark_floor = inf",
        "baseline.dark_floor = -1",
        "baseline.tolerance_m = nan",
        "baseline.tolerance_m = -5",
        "atmosphere.gamma_per_m = -1",
        "atmosphere.gamma_per_m = nan",
        "sim.samples = 0",
        "sim.alpha_max = 2",
        "sim.alpha_min = -0.1",
        "sim.alpha_min = 0.9",
        "sim.r_min_m = 150",
        "sim.r_min_m = 0",
        "sim.r_max_m = inf",
        "sim.target_peak_gray = nan",
        "sim.target_peak_gray = 0",
    ])
    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys, sample_csv, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        args = [] if command == "sections" else ["--input", str(sample_csv)]
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command, *args]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("option, code", [("--config", 2), ("--input", 3), ("--model", 3)])
    def test_invalid_utf8_names_the_file(self, tmp_path, capsys, sample_csv, model_file, option,
                                         code):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"s1,s2,s3,r\n\xff,1,2,3\n")
        files = {"--input": sample_csv, "--model": model_file, option: bad}
        config = ["--config", str(bad)] if option == "--config" else []
        assert main([*config, "--out", str(tmp_path / "o"), "predict",
                     "--model", str(files["--model"]), "--input", str(files["--input"])]) == code
        assert str(bad) in capsys.readouterr().err

    def test_gridsearch_where_every_run_diverges_is_a_computation_error(self, tmp_path, capsys,
                                                                         sample_csv):
        out = tmp_path / "grid"
        assert main(["--out", str(out), "gridsearch", "--input", str(sample_csv),
                     "--learning-rates", "1e300", "--batch-sizes", "16",
                     "--architectures", "40"]) == 4
        assert "every one of the 1 grid configurations diverged" in capsys.readouterr().err
        rows = (out / "grid_results.csv").read_text().splitlines()
        assert len(rows) == 2 and ",nan," in rows[1]
        assert not (out / "grid_best.txt").exists()

    def test_gridsearch_threads_flag_changes_nothing(self, tmp_path, sample_csv):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("train.max_epochs = 2\ntrain.patience = 2\n")
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads{threads}"
            assert main(["--config", str(cfg), "--out", str(out), "gridsearch",
                         "--input", str(sample_csv), "--variants", "dataset4,dataset3",
                         "--learning-rates", "0.01,0.005", "--batch-sizes", "16,32",
                         "--architectures", "6", "--threads", threads]) == 0
            outputs.append((out / "grid_results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 1 + 4 * 2

    def test_gridsearch_variants_spelled_with_spaces_change_nothing(self, tmp_path, sample_csv):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("train.max_epochs = 2\ntrain.patience = 2\n")
        outputs = []
        for i, variants in enumerate(("dataset4,dataset3", "dataset4, dataset3", " dataset4 ,dataset3")):
            out = tmp_path / f"spelling{i}"
            assert main(["--config", str(cfg), "--out", str(out), "gridsearch",
                         "--input", str(sample_csv), "--variants", variants,
                         "--learning-rates", "0.01", "--batch-sizes", "16",
                         "--architectures", "6"]) == 0
            outputs.append((out / "grid_results.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert b",dataset4," in outputs[0] and b",dataset3," in outputs[0]

    def test_activation_spelling_changes_nothing(self, tmp_path, sample_csv):
        outputs = []
        for i, (name, names) in enumerate((("relu", "relu,tanh"), ("ReLU", "ReLU,Tanh"),
                                           ("RELU", "RELU,TANH"))):
            cfg = tmp_path / f"grid{i}.cfg"
            cfg.write_text(f"network.activation = {name}\ntrain.max_epochs = 2\ntrain.patience = 2\n"
                           "dataset.variant = dataset4\n")
            out = tmp_path / f"spelling{i}"
            assert main(["--config", str(cfg), "--out", str(out), "gridsearch",
                         "--input", str(sample_csv), "--activations", names,
                         "--learning-rates", "0.01", "--batch-sizes", "16",
                         "--architectures", "6"]) == 0
            manifest = (out / "gridsearch_manifest.txt").read_text().splitlines()
            outputs.append(((out / "grid_results.csv").read_bytes(), (out / "grid_best.txt").read_bytes(),
                            [line for line in manifest if line.startswith("config_sha256")]))
        assert outputs[0] == outputs[1] == outputs[2]
        assert b",relu,dataset4," in outputs[0][0] and b",tanh,dataset4," in outputs[0][0]

    @pytest.mark.parametrize("argv, flag", [
        (["rip", "--r-step", "0"], "--r-step"),
        (["rip", "--r-step", "-1"], "--r-step"),
        (["rip", "--r-step", "nan"], "--r-step"),
        (["rip", "--r-step", "inf"], "--r-step"),
        (["gridsearch", "--learning-rates", "abc"], "--learning-rates"),
        (["gridsearch", "--learning-rates", "0.1,-1"], "--learning-rates"),
        (["gridsearch", "--learning-rates", "nan"], "--learning-rates"),
        (["gridsearch", "--batch-sizes", "0"], "--batch-sizes"),
        (["gridsearch", "--batch-sizes", "16,x"], "--batch-sizes"),
        (["gridsearch", "--architectures", "0"], "--architectures"),
        (["gridsearch", "--architectures", "40,20-x"], "--architectures"),
        (["gridsearch", "--activations", "swish"], "--activations"),
        (["gridsearch", "--activations", "relu,"], "--activations"),
        (["gridsearch", "--threads", "0"], "--threads"),
        (["gridsearch", "--threads", "-1"], "--threads"),
        (["gridsearch", "--variants", "dataset2,nope"], "--variants"),
    ])
    def test_bad_flag_value_is_a_usage_error_before_any_data_is_read(self, tmp_path, capsys, argv,
                                                                     flag):
        if argv[0] == "gridsearch":
            argv = [*argv, "--input", str(tmp_path / "missing.csv")]  # reading it would exit 3
        with pytest.raises(SystemExit) as info:
            main(["--out", str(tmp_path / "o"), *argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        if flag == "--variants":
            assert "unknown dataset variant 'nope'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, repeat", [
        ("--learning-rates", "0.01,1e-2", "'1e-2' repeats '0.01'"),
        ("--batch-sizes", "16,32,16", "'16' repeats '16'"),
        ("--architectures", "40,40", "'40' repeats '40'"),
        ("--activations", "relu,RELU", "'RELU' repeats 'relu'"),
        ("--variants", "dataset2,dataset3, dataset2", "'dataset2' repeats 'dataset2'"),
    ])
    def test_repeated_list_value_is_a_usage_error_before_any_data_is_read(self, tmp_path, capsys,
                                                                          flag, value, repeat):
        with pytest.raises(SystemExit) as info:
            main(["--out", str(tmp_path / "o"), "gridsearch", flag, value,
                  "--input", str(tmp_path / "missing.csv")])  # reading it would exit 3
        assert info.value.code == 2
        assert f"argument {flag}: {repeat}; give each value once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["pgm_sizes_differ", "model_truncated", "pgm_16bit",
                                      "model_trailing", "model_negative_epochs",
                                      "samples_long_field"])
    def test_malformed_file_is_an_io_error_naming_it(self, tmp_path, capsys, model_file, case):
        paths = [tmp_path / f"s{i}.pgm" for i in (1, 2, 3)]
        for i, path in enumerate(paths):
            write_pgm(path, np.full((4, 5 if i == 1 and case == "pgm_sizes_differ" else 4), 50,
                                    dtype=np.uint16 if i == 2 and case == "pgm_16bit" else np.uint8))
        slices = ["--slice1", str(paths[0]), "--slice2", str(paths[1]), "--slice3", str(paths[2])]
        model = []
        lines = model_file.read_text().splitlines(keepends=True)
        if case == "model_truncated":
            model_file.write_text("".join(lines[:9]))
        elif case == "model_trailing":  # a second layer after a blank line
            model_file.write_text("".join(lines) + "\nlayer 4 1\ngarbage\n")
        elif case == "model_negative_epochs":
            assert lines[4].startswith("epochs ")
            model_file.write_text("".join([*lines[:4], "epochs -7\n", *lines[5:]]))
        if case.startswith("model_"):
            model = ["--model", str(model_file)]
        argv = ["depthmap", *model, *slices]
        if case == "samples_long_field":  # a field over csv's 131,072-character limit
            long = tmp_path / "long.csv"
            long.write_text(f"s1,s2,s3,r\n10,20,30,{'0' * 200_000}5.0\n")
            argv = ["train", "--input", str(long)]
        assert main(["--out", str(tmp_path / "o"), *argv]) == 3
        err = capsys.readouterr().err
        if case == "samples_long_field":
            assert f"{long}:2: field larger than field limit (131072)" in err
            assert "Traceback" not in err
        elif case == "pgm_sizes_differ":
            assert "share dimensions" in err and all(str(p) in err for p in paths)
            assert "s2.pgm is 5x4" in err
        elif case == "pgm_16bit":
            assert "must be 8-bit PGM" in err and str(paths[2]) in err
            assert str(paths[0]) not in err and str(paths[1]) not in err
        elif case == "model_truncated":
            assert f"{model_file}: model file ends early, after line 9" in err
        elif case == "model_trailing":
            assert f"{model_file}: unexpected line {len(lines) + 2} after the last layer" in err
        else:
            assert f"{model_file}: negative epochs -7 on line 5" in err
        assert not (tmp_path / "o" / "depth.pgm").exists()

    @pytest.mark.parametrize("command", ["preprocess", "train", "gridsearch", "predict", "eval"])
    @given(raw=_malformed_sample_files())
    @settings(max_examples=12, deadline=None)
    def test_a_malformed_sample_file_is_an_io_error_naming_it(self, tmp_path_factory, command,
                                                              raw):
        base = tmp_path_factory.getbasetemp()
        bad, model = base / "malformed.csv", base / "sweep_model.txt"
        bad.write_bytes(raw)
        if not model.exists():
            save_model(init_params(NetworkArch((4,), "relu"), seed=1), model)
        extra = {"predict": ["--model", str(model)], "eval": ["--baseline"]}.get(command, [])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--out", str(base / "sweep_out"), command, *extra, "--input", str(bad)])
        assert code == 3, err.getvalue()
        assert str(bad) in err.getvalue()
        assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()

    @given(raw=_malformed_pgms(), which=st.integers(0, 2), with_model=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_a_malformed_slice_pgm_is_an_io_error_naming_it(self, tmp_path_factory, raw, which,
                                                            with_model):
        base = tmp_path_factory.getbasetemp()
        paths = [base / f"fuzz_slice{i}.pgm" for i in (1, 2, 3)]
        for i, path in enumerate(paths):
            write_pgm(path, np.full((3, 4), 50 + 40 * i, dtype=np.uint8))
        paths[which].write_bytes(raw)
        model = base / "fuzz_model.txt"
        save_model(init_params(NetworkArch((4,), "relu"), seed=1), model)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--out", str(base / "fuzz_out"), "depthmap",
                         *(["--model", str(model)] if with_model else []),
                         *(f"--slice{i}={path}" for i, path in enumerate(paths, start=1))])
        assert code == 3, err.getvalue()
        assert str(paths[which]) in err.getvalue()
        assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_malformed_model_file_is_an_io_error_naming_it(self, tmp_path_factory, data):
        """A model file with one token replaced, one line dropped or one line
        repeated: exit 3 naming the file unless it still loads; a model that
        loads runs, or exits 4 when its outputs overflow."""
        base = tmp_path_factory.getbasetemp()
        model, samples, probe_cfg = base / "mutant.txt", base / "few.csv", base / "probe.cfg"
        save_model(init_params(NetworkArch((3,), "relu"), seed=2), model)
        samples.write_text("s1,s2,s3,r\n10,100,30,50.0\n7,7,7,20.0\n")
        probe_cfg.write_text("probe.max_gray = 20\n")
        for i, v in enumerate((10, 100, 30), start=1):
            write_pgm(base / f"mutant_s{i}.pgm", np.full((3, 4), v, dtype=np.uint8))
        lines = model.read_text().split("\n")[:-1]
        at = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["token", "drop", "repeat"]))
        if kind == "token":
            words = lines[at].split(" ")
            words[data.draw(st.integers(0, len(words) - 1))] = data.draw(st.sampled_from(_MODEL_TOKENS))
            lines[at] = " ".join(words)
        elif kind == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        model.write_text("\n".join(lines) + "\n")
        try:
            load_model(model)
        except DataFormatError:
            loads = False
        else:
            loads = True
        for argv in (["predict", "--input", str(samples)], ["eval", "--input", str(samples)],
                     ["depthmap", *(f"--slice{i}={base}/mutant_s{i}.pgm" for i in (1, 2, 3))],
                     ["--config", str(probe_cfg), "probe"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--out", str(base / "mutant_out"), *argv, "--model", str(model)])
            text = err.getvalue()
            if not loads:
                assert code == 3 and str(model) in text, (argv, code, text)
            elif code:  # outputs beyond float or beyond the int64 bin range
                assert code == 4 and ("predict a non-finite range" in text
                                      or "has no bin of width" in text), (argv, code, text)
            assert "Traceback" not in text and "RuntimeWarning" not in text

    @pytest.mark.filterwarnings("error")
    def test_non_positive_pgm_size_is_an_io_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5 -3 4 255\n" + bytes(12))
        assert main(["--out", str(tmp_path), "depthmap", "--slice1", str(bad),
                     "--slice2", str(bad), "--slice3", str(bad)]) == 3

    def test_help_exists_for_every_subcommand(self, capsys):
        parser = build_parser()
        for command in _COMMANDS:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--help"])
            assert exc.value.code == 0
            assert f"usage: gatedepth {command}" in capsys.readouterr().out

    def test_readme_documents_every_subcommand(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        for command in _COMMANDS:
            assert f"`{command}`" in text, f"README is missing the {command} command"
