"""Command line front end.

Every subcommand reads the shared key-value config (defaults when no file is
given), writes its documented output files into ``--out`` and drops a run
manifest ``<command>_manifest.txt`` recording command, package version, seed
and config hash. Outputs are deterministic under a fixed config and seed;
only the manifest carries a timestamp.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 computation or data error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (RunConfig, _activation, _finite_non_negative, _finite_positive,
                     _hidden_layout, _positive_int, config_hash, load_config)
from .errors import ConfigError, DataFormatError, GatedDepthError
from .estimators import baseline_estimate_batch, build_section_table
from .evaluation import compare_estimators, render_depth_map
from .gating import Atmosphere, rip, slice_support
from .network import (GridSpec, NetworkArch, TrainConfig, grid_search, load_model,
                      predict_depth_batch, probe_learned_function, save_model, train)
from .pgmio import read_pgm
from .pipeline import (VARIANTS, build_dataset, load_samples, prefilter, prefilter_counts,
                       save_samples, split, standardized_arrays, variant)
from .scene import NoiseModel, SliceImageSet, UniformRange, generate_dataset

USAGE_ERROR = 2
IO_ERROR = 3
COMPUTE_ERROR = 4


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig):
    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"seed = {cfg.seed}",
        f"config_sha256 = {config_hash(cfg)}",
        f"created_unix = {int(time.time())}",  # excluded from determinism checks
    ]
    (out_dir / f"{command}_manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_sections(cfg: RunConfig, args, out: Path):
    table = build_section_table(cfg.slices)
    table.write_csv(out / "sections.csv")
    print(f"wrote {len(table)} sections to {out / 'sections.csv'}")


def _cmd_rip(cfg: RunConfig, args, out: Path):
    atmo = Atmosphere(alpha=1.0, gamma_per_m=cfg.gamma_per_m)
    r_max = max(slice_support(s)[1] for s in cfg.slices)
    grid = np.arange(args.r_step, r_max + 10.0, args.r_step)
    for i, s in enumerate(cfg.slices, start=1):
        profile = rip(s, atmo, grid, include_irradiance=args.irradiance)
        profile.write_csv(out / f"rip_slice{i}.csv")
    print(f"wrote {len(cfg.slices)} profiles to {out}")


def _cmd_simulate(cfg: RunConfig, args, out: Path):
    noise = NoiseModel(cfg.noise_sigma_gray, cfg.stage_seed("simulate"))
    samples = generate_dataset(
        cfg.sim_samples,
        UniformRange(cfg.sim_r_min_m, cfg.sim_r_max_m),
        UniformRange(cfg.sim_alpha_min, cfg.sim_alpha_max),
        cfg.slices,
        noise,
        gamma_per_m=cfg.gamma_per_m,
        target_peak_gray=cfg.target_peak_gray,
    )
    save_samples(samples, out / "samples.csv")
    print(f"wrote {len(samples)} samples to {out / 'samples.csv'}")


def _cmd_preprocess(cfg: RunConfig, args, out: Path):
    raw = load_samples(args.input)
    saturated, low, kept = prefilter_counts(raw)
    pre = prefilter(raw)
    spec = variant(args.variant or cfg.variant)
    filtered = build_dataset(pre, spec)
    save_samples(filtered, out / "filtered.csv")
    report = [
        f"input_rows = {len(raw)}",
        f"removed_saturated = {saturated}",
        f"removed_low_contrast = {low}",
        f"after_prefilter = {kept}",
        f"variant = {spec.tag}",
        f"removed_by_variant = {kept - len(filtered)}",
        f"output_rows = {len(filtered)}",
    ]
    (out / "preprocess_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    print("\n".join(report))


def _prepare_training_arrays(cfg: RunConfig, path):
    data = prefilter(load_samples(path))
    if not len(data):
        raise DataFormatError(f"{path}: no samples survive the prefilter")
    train_set, val_set = split(data, cfg.train_fraction, cfg.stage_seed("split"))
    return standardized_arrays(train_set), standardized_arrays(val_set)


def _cmd_train(cfg: RunConfig, args, out: Path):
    train_xy, val_xy = _prepare_training_arrays(cfg, args.input)
    arch = NetworkArch(cfg.hidden, cfg.activation)
    tc = TrainConfig(cfg.learning_rate, cfg.batch_size, cfg.max_epochs, cfg.patience,
                     seed=cfg.stage_seed("train"))
    model, history = train(train_xy, val_xy, arch, tc)
    save_model(model, out / "model.txt")
    with open(out / "history.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_mae,val_mae\n")
        for row in history:
            fh.write(f"{row.epoch},{row.train_mae!r},{row.val_mae!r}\n")
    print(f"best validation MAE {model.val_mae:.4f} m after {model.epochs_run} epochs")


def _cmd_gridsearch(cfg: RunConfig, args, out: Path):
    if args.full_grid:
        grid = GridSpec.default_grid()
    else:
        grid = GridSpec(args.learning_rates, args.batch_sizes, args.architectures, args.activations)
    datasets = []
    raw = prefilter(load_samples(args.input))
    for spec in args.variants or (variant(cfg.variant),):
        filtered = build_dataset(raw, spec)
        if not len(filtered):
            raise DataFormatError(f"variant {spec.tag}: empty dataset after filtering")
        tr, va = split(filtered, cfg.train_fraction, cfg.stage_seed(f"split.{spec.tag}"))
        datasets.append((spec.tag, standardized_arrays(tr), standardized_arrays(va)))
    result = grid_search(datasets, grid, max_epochs=cfg.max_epochs, patience=cfg.patience,
                         seed=cfg.stage_seed("gridsearch"))
    result.write_csv(out / "grid_results.csv")
    if np.isinf(result.ranking[0][1]):  # the best mean is finite unless every run diverged
        raise GatedDepthError(f"every one of the {len(grid)} grid configurations diverged "
                              f"(runs listed in {out / 'grid_results.csv'})")
    best = result.best
    best_arch = "-".join(str(w) for w in best.hidden)
    (out / "grid_best.txt").write_text(
        f"lr = {best.learning_rate!r}\nbatch = {best.batch_size}\n"
        f"arch = {best_arch}\nactivation = {best.activation}\n",
        encoding="utf-8",
    )
    print(f"evaluated {len(grid)} configurations on {len(datasets)} dataset(s); "
          f"best: lr={best.learning_rate} batch={best.batch_size} arch={best_arch} {best.activation}")


def _cmd_predict(cfg: RunConfig, args, out: Path):
    model = load_model(args.model)
    data = load_samples(args.input)
    preds = predict_depth_batch(model, data.triples)
    with open(out / "predictions.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s1,s2,s3,r_true,r_hat\n")
        for s1, s2, s3, r_true, r_hat in zip(*data.triples.T.tolist(), data.r.tolist(), preds.tolist()):
            hat = repr(r_hat) if np.isfinite(r_hat) else ""
            fh.write(f"{s1},{s2},{s3},{r_true!r},{hat}\n")
    print(f"wrote {preds.size} predictions ({np.isfinite(preds).mean():.1%} valid)")


def _load_slice_images(paths):
    images = tuple(read_pgm(p) for p in paths)
    wide = [str(p) for p, img in zip(paths, images) if img.dtype != np.uint8]
    if wide:
        raise DataFormatError(f"slice images must be 8-bit PGM, not 16-bit: {', '.join(wide)}")
    if len({img.shape for img in images}) != 1:
        sizes = ", ".join(f"{p} is {img.shape[1]}x{img.shape[0]}" for p, img in zip(paths, images))
        raise DataFormatError(f"slice images must share dimensions: {sizes}")
    return SliceImageSet(images)


def _estimators(cfg: RunConfig, model_path, baseline):
    """Batch depth estimators by name: the network in ``model_path`` (if
    given), then the section baseline (if ``baseline``)."""
    estimators = {}
    if model_path:
        estimators["network"] = partial(predict_depth_batch, load_model(model_path))
    if baseline:
        estimators["baseline"] = partial(
            baseline_estimate_batch, table=build_section_table(cfg.slices),
            dark_floor=cfg.baseline_dark_floor, tolerance_m=cfg.baseline_tolerance_m)
    return estimators


def _cmd_depthmap(cfg: RunConfig, args, out: Path):
    images = _load_slice_images([args.slice1, args.slice2, args.slice3])
    (estimator,) = _estimators(cfg, args.model, not args.model).values()
    depth_map = render_depth_map(estimator, images)
    depth_map.write_pgm(out / "depth.pgm")
    if args.csv:
        depth_map.write_csv(out / "depth.csv")
    valid = depth_map.valid_mask.mean()
    print(f"wrote depth map ({valid:.1%} valid pixels) to {out / 'depth.pgm'}")


def _cmd_eval(cfg: RunConfig, args, out: Path):
    if not args.model and not args.baseline:
        raise ConfigError("eval needs --model and/or --baseline")
    data = load_samples(args.input)
    estimators = _estimators(cfg, args.model, args.baseline)
    comparison = compare_estimators(estimators, data.triples, data.r, cfg.eval_bin_width_m)
    comparison.write_csv(out / "comparison.csv")
    for rep in comparison.reports:
        overall = (sum(r.mae * r.count for r in rep.binned.rows) / rep.binned.total_count
                   if rep.binned.total_count else float("nan"))
        print(f"{rep.name}: coverage {rep.coverage:.1%}, overall MAE {overall:.3f} m")


def _cmd_probe(cfg: RunConfig, args, out: Path):
    model = load_model(args.model)
    table = probe_learned_function(model, max_gray=cfg.probe_max_gray,
                                   contrast_floor=cfg.probe_contrast_floor)
    if not table.total_triples:
        raise GatedDepthError(f"no triple passes probe.max_gray = {cfg.probe_max_gray} and "
                              f"probe.contrast_floor = {cfg.probe_contrast_floor}")
    table.write_csv(out / "probe.csv")
    print(f"evaluated {table.total_triples} valid triples into {table.bin_centers.size} bins")


def _arg(parse, many=False):
    """argparse ``type=`` applying ``parse`` (to each item of a comma list when
    ``many``, which must not repeat a value); its ValueError becomes the usage
    message."""
    def convert(text):
        try:
            if not many:
                return parse(text)
            items = [v.strip() for v in text.split(",")]
            values = tuple(parse(v) for v in items)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentTypeError(
                    f"{items[i]!r} repeats {items[values.index(value)]!r}; give each value once")
        return values
    return convert


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gatedepth",
        description="Depth estimation from three gated imaging slices.",
    )
    parser.add_argument("--config", help="key=value config file (defaults otherwise)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $GATEDEPTH_OUT or the working directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("sections", help="dump the baseline section table as CSV")

    p = sub.add_parser("rip", help="export per-slice range intensity profiles")
    p.add_argument("--r-step", type=_arg(_finite_positive), default=0.25,
                   help="distance grid step in metres")
    p.add_argument("--irradiance", action="store_true", help="include the alpha*beta/r^2 factor")

    sub.add_parser("simulate", help="generate a labeled synthetic dataset CSV")

    p = sub.add_parser("preprocess", help="prefilter and variant-filter a sample CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS))

    p = sub.add_parser("train", help="train the regression network on a sample CSV")
    p.add_argument("--input", required=True)

    p = sub.add_parser("gridsearch", help="hyperparameter grid search")
    p.add_argument("--input", required=True)
    p.add_argument("--variants", type=_arg(variant, many=True),
                   help="comma list of dataset variants (default: config variant)")
    p.add_argument("--full-grid", action="store_true", help="use the stock 720-point grid")
    p.add_argument("--learning-rates", type=_arg(_finite_non_negative, many=True),
                   default="0.1,0.01,0.001")
    p.add_argument("--batch-sizes", type=_arg(_positive_int, many=True), default="16,64")
    p.add_argument("--architectures", type=_arg(_hidden_layout, many=True), default="40,20-10")
    p.add_argument("--activations", type=_arg(_activation, many=True), default="relu")
    p.add_argument("--threads", type=_arg(_positive_int), default=1, help="accepted; has no effect")

    p = sub.add_parser("predict", help="per-sample depth predictions from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)

    p = sub.add_parser("depthmap", help="render a 16-bit depth map from three slice PGMs")
    p.add_argument("--model", help="model file; omit to use the section baseline")
    p.add_argument("--slice1", required=True)
    p.add_argument("--slice2", required=True)
    p.add_argument("--slice3", required=True)
    p.add_argument("--csv", action="store_true", help="also write depth.csv")

    p = sub.add_parser("eval", help="binned MAE comparison on a labeled CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--model")
    p.add_argument("--baseline", action="store_true")

    p = sub.add_parser("probe", help="bin network output over all valid triples")
    p.add_argument("--model", required=True)
    return parser


_COMMANDS = {
    "sections": _cmd_sections,
    "rip": _cmd_rip,
    "simulate": _cmd_simulate,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "gridsearch": _cmd_gridsearch,
    "predict": _cmd_predict,
    "depthmap": _cmd_depthmap,
    "eval": _cmd_eval,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        out = Path(args.out if args.out is not None else os.environ.get("GATEDEPTH_OUT", "."))
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, args, out)
        _write_manifest(out, args.command, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (GatedDepthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
