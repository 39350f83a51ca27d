"""The command line's one parser and the flag part of the malformed-input
sweep: ``main`` reuses one argparse parser per process, so no call may see
another's flags, and any argv exits 0, 2, 3 or 4 without a traceback."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth.cli import _COMMANDS, build_parser, main
from gatedepth.gating import standard_slices
from gatedepth.network import NetworkArch, init_params, save_model
from gatedepth.pgmio import write_pgm
from gatedepth.pipeline import VARIANTS, save_samples
from gatedepth.scene import NoiseModel, UniformRange, generate_dataset


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 200-row ``samples.csv``, three 8x6 slice PGMs, a 4-unit model, a
    config with one training epoch and 200 simulated samples, a bad config,
    a directory and a path to no file."""
    base = tmp_path_factory.mktemp("flags")
    samples = generate_dataset(200, UniformRange(15.0, 100.0), UniformRange(0.2, 0.9),
                               standard_slices(), NoiseModel(2.0, seed=5), target_peak_gray=200.0)
    files = {"samples": base / "samples.csv", "model": base / "model.txt",
             "config": base / "run.cfg", "bad_config": base / "bad.cfg",
             "directory": base / "directory", "missing": base / "missing.txt"}
    save_samples(samples, files["samples"])
    save_model(init_params(NetworkArch((4,), "relu"), seed=1), files["model"])
    files["config"].write_text("seed = 3\ntrain.max_epochs = 1\nsim.samples = 200\n")
    files["bad_config"].write_text("train.max_epochs = 0\n")
    files["directory"].mkdir()
    rng = np.random.default_rng(2)
    for i in (1, 2, 3):
        files[f"slice{i}"] = base / f"slice{i}.pgm"
        write_pgm(files[f"slice{i}"], rng.integers(0, 256, (6, 8)).astype(np.uint8))
    return files


def run(argv):
    """``main(argv)`` with its output captured: (exit code, stderr); an
    argparse exit counts as its code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestOneParserPerProcess:
    def test_main_builds_the_parser_once(self, tmp_path, files):
        assert build_parser() is build_parser()
        built = build_parser.cache_info().misses
        for _ in range(3):
            assert run(["--out", tmp_path, "sections"])[0] == 0
        assert run(["--out", tmp_path, "rip", "--r-step", "0"])[0] == 2
        assert build_parser.cache_info().misses == built

    def test_a_store_true_flag_does_not_carry_over(self, tmp_path, files):
        slices = ["--slice1", files["slice1"], "--slice2", files["slice2"],
                  "--slice3", files["slice3"]]
        assert run(["--out", tmp_path / "a", "depthmap", *slices, "--csv"])[0] == 0
        assert run(["--out", tmp_path / "b", "depthmap", *slices])[0] == 0
        assert (tmp_path / "a" / "depth.csv").exists()
        assert (tmp_path / "b" / "depth.pgm").exists() and not (tmp_path / "b" / "depth.csv").exists()

    def test_a_list_flag_falls_back_to_its_default(self, tmp_path, files):
        common = ["--config", files["config"]]
        grid = ["--input", files["samples"], "--batch-sizes", "16", "--architectures", "4"]
        assert run([*common, "--out", tmp_path / "a", "gridsearch", *grid,
                    "--learning-rates", "0.5"])[0] == 0
        assert run([*common, "--out", tmp_path / "b", "gridsearch", *grid])[0] == 0
        rates = [[row.split(",")[0] for row in (tmp_path / side / "grid_results.csv")
                  .read_text().splitlines()[1:]] for side in ("a", "b")]
        assert rates == [["0.5"], ["0.1", "0.01", "0.001"]]

    def test_a_seed_override_does_not_carry_over(self, tmp_path, files):
        for out, seed in (("a", ["--seed", "5"]), ("b", [])):
            assert run(["--config", files["config"], *seed, "--out", tmp_path / out, "sections"])[0] == 0
        seeds = [[line for line in (tmp_path / out / "sections_manifest.txt").read_text().splitlines()
                  if line.startswith("seed = ")] for out in ("a", "b")]
        assert seeds == [["seed = 5"], ["seed = 3"]]  # the config file's seed

    def test_a_usage_error_between_good_calls_leaves_the_next_call_whole(self, tmp_path, files):
        assert run(["--out", tmp_path / "a", "rip", "--r-step", "0.5"])[0] == 0
        code, err = run(["--out", tmp_path / "bad", "rip", "--r-step", "nan"])
        assert code == 2 and "argument --r-step:" in err
        code, err = run(["--out", tmp_path / "bad", "rip", "--bogus"])
        assert code == 2 and "unrecognized arguments: --bogus" in err
        assert run(["--out", tmp_path / "b", "rip", "--r-step", "0.5"])[0] == 0
        for i in (1, 2, 3):
            assert ((tmp_path / "a" / f"rip_slice{i}.csv").read_bytes()
                    == (tmp_path / "b" / f"rip_slice{i}.csv").read_bytes())
        assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("argv", [["--config=--", "sections"], ["--seed=--", "sections"],
                                  ["--out=--", "sections"], ["rip", "--r-step=--"],
                                  ["eval", "--input=--", "--baseline"], ["probe", "--model=--"],
                                  ["gridsearch", "--input={samples}", "--learning-rates=--"]])
def test_a_double_dash_value_is_a_usage_error(tmp_path, files, argv):
    # argparse removes a "--" value, which would leave the option an empty list
    argv = [a.format_map(files) for a in argv]
    code, err = run(argv if argv[0].startswith("--out") else ["--out", tmp_path, *argv])
    flag = next(a for a in argv if a.endswith("=--")).split("=")[0]
    assert code == 2 and f"argument {flag}: expected one argument" in err
    assert list(tmp_path.iterdir()) == []


# Odd flag values: zero, negative, non-finite, huge, subnormal, 5,000-digit
# numbers (and 4,000-digit ones, which int() still parses), empty and blank
# items, and values argparse may read as an option.
_ODD = ["0", "-0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "9" * 30, "1" * 5000,
        "9" * 4000, "0." + "0" * 4999 + "1", "", " ", ",", "1,,2", "x", "-", "--"]
# file flags take a fixture file (of the right kind or not), a directory, a
# path to no file or an empty path; ``{name}`` stands for the fixture's path
_FILES = ["{samples}", "{model}", "{slice1}", "{config}", "{missing}", "{directory}", ""]
# subcommand -> flag -> (plain values, flag-specific bad ones); ``None`` marks
# a store_true flag
_FLAGS = {
    "sections": {},
    "rip": {"--r-step": (["0.25", "0.5"], ["1e-6", "175"]), "--irradiance": None},
    "simulate": {},
    "preprocess": {"--input": (["{samples}"], _FILES),
                   "--variant": (sorted(VARIANTS), ["DATASET3", "nope"])},
    "train": {"--input": (["{samples}"], _FILES)},
    "gridsearch": {
        "--input": (["{samples}"], _FILES),
        "--variants": (["dataset3", "dataset1", "dataset4"], ["nope", " dataset2", "dataset3"]),
        "--learning-rates": (["0.01", "0.1", "0.001"], ["1e300", "1e-2"]),
        "--batch-sizes": (["16", "1", "64"], ["16", "1.5"]),
        "--architectures": (["4", "3-2"], ["0-4", "1000-1000", "40x", "4", "4-"]),
        "--activations": (["relu", "TANH", "sigmoid"], ["swish", "RELU"]),
        "--threads": (["1", "2"], []),
    },
    "predict": {"--model": (["{model}"], _FILES), "--input": (["{samples}"], _FILES)},
    "depthmap": {"--model": (["{model}"], _FILES), "--slice1": (["{slice1}"], _FILES),
                 "--slice2": (["{slice2}"], _FILES), "--slice3": (["{slice3}"], _FILES),
                 "--csv": None},
    "eval": {"--input": (["{samples}"], _FILES), "--model": (["{model}"], _FILES),
             "--baseline": None},
    "probe": {"--model": (["{model}"], _FILES)},
}
_LIST_FLAGS = {"--variants", "--learning-rates", "--batch-sizes", "--architectures", "--activations"}


def test_the_sweep_covers_every_subcommand():
    assert sorted(_FLAGS) == sorted(_COMMANDS)
    parser_flags = {name: {opt for action in sub._actions for opt in action.option_strings}
                    for name, sub in build_parser()._subparsers._group_actions[0].choices.items()}
    for name, flags in _FLAGS.items():
        assert parser_flags[name] - {"-h", "--help", "--full-grid"} == set(flags)


def _one_in(draw, n):
    return draw(st.sampled_from(range(n))) == 0  # uniform, unlike the edge-seeking integers()


def _mostly(draw, plain, odd):
    """A plain value five times in six, else an odd one."""
    return draw(st.sampled_from(odd if _one_in(draw, 6) else plain))


def _value(draw, flag, plain, bad):
    """One value, or a comma list of one to three (whose repeats are usage
    errors) for the list flags."""
    items = draw(st.integers(1, 3)) if flag in _LIST_FLAGS else 1
    return ",".join(_mostly(draw, plain, [*bad, *_ODD]) for _ in range(items))


@st.composite
def _argvs(draw):
    """A subcommand's argv: each flag given, left out (a required one too),
    repeated or written ``--flag=value``, odd values, unknown flags and stray
    words; global flags before it, rarely after it."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = []
    if _one_in(draw, 2):
        argv += ["--seed", _mostly(draw, ["0", "5", "-1", "9" * 30, "9" * 4000], _ODD)]
    argv += ["--config", _mostly(draw, ["{config}"], ["{missing}", "{directory}", "{bad_config}"])]
    argv.append(command)
    for flag, values in _FLAGS[command].items():
        for _ in range(draw(st.sampled_from([1, 0, 1, 1, 1, 1, 1, 1, 1, 2]))):
            if values is None:
                argv.append(f"{flag}=1" if _one_in(draw, 8) else flag)
            elif _one_in(draw, 6):
                argv.append(f"{flag}={_value(draw, flag, *values)}")
            else:
                argv += [flag, _value(draw, flag, *values)]
    if _one_in(draw, 8):
        extra = draw(st.sampled_from(["--nope", "-x", "stray", "--r-step", "--csv", "--seed", "-h"]))
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv


@given(argv=_argvs())
@settings(max_examples=200, deadline=None)
def test_any_flags_exit_with_a_documented_code_and_no_traceback(files, argv):
    code, err = run(["--out", files["directory"] / "out", *(a.format_map(files) for a in argv)])
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
