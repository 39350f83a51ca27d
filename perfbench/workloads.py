"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
measured pass as a closed loop of steps (each step starts after the
previous one returned) in ``run_pass``, and checks a pass's outputs against
the references in ``oracles``. Steps call the program through module
attributes (``cli.main``, ``scene.render_slices`` ...), so the tracer's
wrappers see them.

* ``train``: the README CLI flow simulate -> preprocess -> train ->
  gridsearch on stock rectangular slices. Exercises the CSV data path and
  network training; no quadrature, no estimators.
* ``infer``: CLI inference on a prepared model and frame set: depthmap per
  frame with the baseline and with the network, eval, probe. Exercises the
  estimators, large-batch forward passes, probe binning and PGM I/O; no
  training, no quadrature.
* ``trapezoid``: the finite-edge "realistic world" of the acceptance suite
  through the public API (the CLI config only builds rectangular slices).
  Exercises the numeric overlap on both of its paths: per point for small
  batches (calibration, rip, render) and the interpolation table for large
  ones (generate_dataset).
"""

from __future__ import annotations

import csv
import hashlib
import io
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import oracles
from gatedepth import cli, gating, network, scene
from gatedepth import estimators as est_mod

# Sizes per scale. "full" is what the benchmark measures; "toy" keeps the
# same steps at sizes small enough for a smoke test.
SIZES = {
    "train": {
        "full": {"sim_samples": 100_000, "train_epochs": 8, "grid_epochs": 2,
                 "val_mae_ceiling_m": 4.0},
        "toy": {"sim_samples": 3_000, "train_epochs": 2, "grid_epochs": 1,
                "val_mae_ceiling_m": 60.0},
    },
    "infer": {
        "full": {"test_rows": 20_000, "model_rows": 30_000, "model_epochs": 6, "frames": 12,
                 "frame_w": 96, "frame_h": 72, "probe_max_gray": 230},
        "toy": {"test_rows": 2_000, "model_rows": 3_000, "model_epochs": 2, "frames": 11,
                "frame_w": 16, "frame_h": 12, "probe_max_gray": 40},
    },
    "trapezoid": {
        "full": {"calib_samples": 1024, "gen_samples": 100_000, "rip_step_m": 0.25,
                 "frame_w": 48, "frame_h": 32, "sky_px": 384, "oracle_points": 16},
        "toy": {"calib_samples": 64, "gen_samples": 500, "rip_step_m": 4.0,
                "frame_w": 8, "frame_h": 6, "sky_px": 12, "oracle_points": 4},
    },
}

GRID_VARIANTS = "dataset2,dataset3"
OVERLAP_RTOL = 1e-6
# Half a 1/256 m level, plus float rounding slack.
DEPTH_PGM_ATOL_M = 1 / 512 + 1e-12
SWEEP_BIN_MAE_M = 1.0
# Pinned count of valid probe triples below gray 230 (acceptance criterion 7).
PROBE_TRIPLES_230 = 8_117_200


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class StepFailed(Exception):
    """A step exited non-zero or raised; the pass stops there."""


@dataclass
class Step:
    name: str
    seconds: float
    ok: bool
    note: str = ""


class Pass:
    """One measured pass: its output directory and the timed steps it ran."""

    def __init__(self, index, out_dir, traced):
        self.index = index
        self.out_dir = out_dir
        self.traced = traced
        self.steps = []
        self.stdout = {}
        self.results = {}
        self.seconds = 0.0
        self.failed = False
        self.digests = {}

    def step(self, name, fn, *args, **kwargs):
        """Run one operation; a failure is recorded and stops the pass."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.steps.append(Step(name, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc(file=sys.stderr)
            raise StepFailed(name) from exc
        self.steps.append(Step(name, time.perf_counter() - t0, True))
        return result


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_arrays(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def detail(name, value, unit, n, percentile=None):
    """A stage metric of one workload: printed and recorded, without a bound."""
    return {"name": name, "value": value, "unit": unit, "n": n, "percentile": percentile}


def median_step(passes, name):
    """Median over passes of the summed time of the steps called ``name``."""
    return float(np.median([sum(s.seconds for s in p.steps if s.name == name) for p in passes]))


def latency_summary(samples_s):
    """Median and tail (ms) of per-frame latencies, with the tail's percentile.

    The tail is the highest percentile that still has at least ten frames
    beyond it (the maximum when there are ten frames or fewer).
    """
    ms = np.sort(np.asarray(samples_s) * 1e3)
    n = ms.size
    k = max(n - 11, 0) if n > 10 else n - 1
    pct = 100.0 * (k + 1) / n
    return float(np.median(ms)), float(ms[k]), pct, n


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def cli_command(*argv):
    """Run one gatedepth CLI command in process; its stdout, or an error on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"gatedepth {' '.join(map(str, argv))} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def run_cli(p, step, *argv):
    """One CLI command as one step of a pass."""
    return p.step(step, cli_command, *argv)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _key_values(path):
    pairs = (line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


class Workload:
    name = ""

    def __init__(self, work, seed, scale):
        self.work = work
        self.seed = int(seed)
        self.sizes = SIZES[self.name][scale]
        self.inputs = work / "inputs"
        self.rng_key = (self.seed, sorted(SIZES).index(self.name))

    def rng(self, purpose):
        return np.random.default_rng([*self.rng_key, purpose])

    def setup(self):
        raise NotImplementedError

    def run_pass(self, p):
        raise NotImplementedError

    def digests(self, p):
        """SHA-256 of every deterministic output of a pass (manifests carry a timestamp)."""
        return {str(f.relative_to(p.out_dir)): sha256_file(f)
                for f in sorted(p.out_dir.rglob("*"))
                if f.is_file() and not f.name.endswith("_manifest.txt")}

    def check(self, p):
        """Checks of the first pass's outputs (later passes must match its digests)."""
        raise NotImplementedError

    def details(self, passes):
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train"

    def setup(self):
        fresh_dir(self.inputs)
        s = self.sizes
        _write(self.inputs / "train.cfg",
               f"seed = {self.seed}\nsim.samples = {s['sim_samples']}\n"
               f"train.max_epochs = {s['train_epochs']}\ntrain.patience = {s['train_epochs']}\n")
        _write(self.inputs / "grid.cfg",
               f"seed = {self.seed}\ntrain.max_epochs = {s['grid_epochs']}\ntrain.patience = {s['grid_epochs']}\n")

    def run_pass(self, p):
        cfg, grid_cfg, out = self.inputs / "train.cfg", self.inputs / "grid.cfg", p.out_dir
        samples = out / "samples.csv"
        run_cli(p, "simulate", "--config", cfg, "--out", out, "simulate")
        run_cli(p, "preprocess", "--config", cfg, "--out", out, "preprocess",
                "--input", samples, "--variant", "dataset3")
        run_cli(p, "train", "--config", cfg, "--out", out, "train", "--input", samples)
        run_cli(p, "gridsearch", "--config", grid_cfg, "--out", out, "gridsearch",
                "--input", samples, "--variants", GRID_VARIANTS, "--threads", "1")

    def check(self, p):
        out, s = p.out_dir, self.sizes
        checks = []
        raw = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        saturated, low, kept = oracles.prefilter_counts(raw[:, :3])
        report = _key_values(out / "preprocess_report.txt")
        filtered_rows = len(_read_csv(out / "filtered.csv"))
        got = (int(report["input_rows"]), int(report["removed_saturated"]),
               int(report["removed_low_contrast"]), int(report["after_prefilter"]),
               int(report["output_rows"]))
        want = (raw.shape[0], saturated, low, kept, filtered_rows)
        checks.append(Check("preprocess report matches recount", got == want,
                            f"report {got}, recount {want}"))
        val_mae = self.val_mae(p)
        checks.append(Check("train val_mae below ceiling",
                            np.isfinite(val_mae) and val_mae < s["val_mae_ceiling_m"],
                            f"val_mae {val_mae} m, ceiling {s['val_mae_ceiling_m']} m"))
        epochs = len(_read_csv(out / "history.csv"))
        checks.append(Check("train ran the fixed epoch count", epochs == s["train_epochs"],
                            f"{epochs} epochs, expected {s['train_epochs']}"))
        rows = _read_csv(out / "grid_results.csv")
        tags = sorted({r["dataset"] for r in rows})
        best = _key_values(out / "grid_best.txt")
        ok = (len(rows) == 12 * 2 and tags == GRID_VARIANTS.split(",")
              and set(best) == {"lr", "batch", "arch", "activation"})
        checks.append(Check("grid covers 12 points x 2 variants", ok,
                            f"{len(rows)} rows over {tags}, best keys {sorted(best)}"))
        return checks

    @staticmethod
    def val_mae(p):
        for line in (p.out_dir / "model.txt").read_text(encoding="utf-8").splitlines():
            if line.startswith("val_mae "):
                return float(line.split()[1])
        return float("nan")

    def details(self, passes):
        out = [detail(f"{step}_s", median_step(passes, step), "s", len(passes))
               for step in ("simulate", "preprocess", "train", "gridsearch")]
        out.append(detail("val_mae_m", self.val_mae(passes[0]), "m", 1))
        return out


def _frame_maps(rng, w, h, sky_fraction):
    """Depth (m) and reflectance maps: a ground ramp, a few boxes and a sky band."""
    rows = np.arange(h, dtype=float)[:, None] / max(h - 1, 1)
    near, far = np.sort(rng.uniform(10.0, 120.0, 2))
    depth = np.repeat(far + (near - far) * rows, w, axis=1)
    for _ in range(3):
        y, x = rng.integers(0, h), rng.integers(0, w)
        depth[y:y + h // 3 + 1, x:x + w // 4 + 1] = rng.uniform(10.0, 120.0)
    depth[: int(round(sky_fraction * h))] = np.inf
    reflectance = rng.uniform(0.05, 0.9, (h, w))
    return depth, reflectance


class InferWorkload(Workload):
    name = "infer"

    def setup(self):
        s = self.sizes
        fresh_dir(self.inputs)
        model_dir, test_dir = self.inputs / "model", self.inputs / "test"
        probe = f"probe.max_gray = {s['probe_max_gray']}\n"
        _write(self.inputs / "infer.cfg", f"seed = {self.seed}\nsim.samples = {s['test_rows']}\n" + probe)
        _write(self.inputs / "model.cfg",
               f"seed = {self.seed + 1_000_000}\nsim.samples = {s['model_rows']}\n"
               f"train.max_epochs = {s['model_epochs']}\ntrain.patience = {s['model_epochs']}\n")
        cli_command("--config", self.inputs / "model.cfg", "--out", model_dir, "simulate")
        cli_command("--config", self.inputs / "model.cfg", "--out", model_dir, "train",
                    "--input", model_dir / "samples.csv")
        cli_command("--config", self.inputs / "infer.cfg", "--out", test_dir, "simulate")

        slices = gating.standard_slices()
        calib = scene.calibration_for_peak(slices, 10.0, 120.0, 200.0)
        rng = self.rng(0)
        n = s["frames"]
        # Fixed composition, seeded placement: sky 0-50 %, a quarter of the
        # frames overexposed so the saturation rule fires.
        sky = rng.permutation(np.linspace(0.0, 0.5, n))
        gain = np.where(rng.permutation(n) < n // 4, 1.6, 1.0)
        for i in range(n):
            depth, refl = _frame_maps(rng, s["frame_w"], s["frame_h"], sky[i])
            noise = scene.NoiseModel(2.0, seed=int(rng.integers(2**31)))
            images = scene.render_slices(depth, refl, slices, noise, calib=calib * gain[i])
            frame = fresh_dir(self.inputs / f"frame{i:02d}")
            for j, img in enumerate(images.images, start=1):
                oracles.encode_pgm(frame / f"slice{j}.pgm", img)

        # Noiseless rectangular sweep for the baseline accuracy check.
        r = np.arange(20.0, 100.0 + 1e-9, 0.5)
        gray = scene.simulate_batch(r, np.ones_like(r), slices, 0.0,
                                    scene.calibration_for_peak(slices, 20.0, 100.0, 200.0),
                                    scene.NoiseModel(0.0, 0))
        _write(self.inputs / "sweep.csv", "s1,s2,s3,r\n" + "".join(
            f"{a},{b},{c},{float(ri)!r}\n" for (a, b, c), ri in zip(gray, r)))

    def frames(self):
        return [self.inputs / f"frame{i:02d}" for i in range(self.sizes["frames"])]

    def run_pass(self, p):
        cfg, model = self.inputs / "infer.cfg", self.inputs / "model" / "model.txt"
        for estimator in ("baseline", "network"):
            extra = ("--model", model) if estimator == "network" else ()
            for frame in self.frames():
                run_cli(p, f"depthmap.{estimator}", "--config", cfg,
                        "--out", p.out_dir / frame.name / estimator, "depthmap", *extra,
                        *(f"--slice{j}={frame / f'slice{j}.pgm'}" for j in (1, 2, 3)))
        run_cli(p, "eval", "--config", cfg, "--out", p.out_dir / "eval", "eval",
                "--input", self.inputs / "test" / "samples.csv", "--model", model, "--baseline")
        p.stdout["probe"] = run_cli(p, "probe", "--config", cfg, "--out", p.out_dir / "probe",
                                    "probe", "--model", model)

    def check(self, p):
        checks = []
        model = network.load_model(self.inputs / "model" / "model.txt")
        table = est_mod.build_section_table(gating.standard_slices())
        worst = 0.0
        for frame in self.frames():
            images = [oracles.decode_pgm(frame / f"slice{j}.pgm") for j in (1, 2, 3)]
            shape = images[0].shape
            triples = np.column_stack([img.reshape(-1) for img in images]).astype(float)
            expected = {
                "baseline": est_mod.baseline_estimate_batch(triples, table),
                "network": network.predict_depth_batch(model, triples),
            }
            for name, values in expected.items():
                levels = oracles.decode_pgm(p.out_dir / frame.name / name / "depth.pgm")
                worst = max(worst, oracles.depth_map_error(levels, values.reshape(shape)))
        checks.append(Check("depth PGMs decode to the estimator arrays", worst <= DEPTH_PGM_ATOL_M,
                            f"worst |error| {worst} m over {len(self.frames())} frames x 2"))

        want = (PROBE_TRIPLES_230 if self.sizes["probe_max_gray"] == 230
                else oracles.probe_triple_count(self.sizes["probe_max_gray"], oracles.CONTRAST_FLOOR))
        counts = [int(r["count"]) for r in _read_csv(p.out_dir / "probe" / "probe.csv")]
        printed = int(p.stdout["probe"].split()[1])
        checks.append(Check("probe visits every valid triple",
                            sum(counts) == want == printed and min(counts) > 0,
                            f"printed {printed}, bins sum {sum(counts)}, expected {want}"))

        rows = _read_csv(p.out_dir / "eval" / "comparison.csv")
        cover = {r["estimator"]: float(r["coverage"]) for r in rows}
        checks.append(Check("eval reports both estimators",
                            sorted(cover) == ["baseline", "network"]
                            and all(0.5 < c <= 1.0 for c in cover.values()),
                            f"coverage {cover}"))

        # The baseline on a noiseless rectangular sweep, through the CLI.
        out = self.work / "sweep"
        cli_command("--config", self.inputs / "infer.cfg", "--out", out, "eval",
                    "--input", self.inputs / "sweep.csv", "--baseline")
        rows = _read_csv(out / "comparison.csv")
        worst = max((float(r["mae"]) for r in rows), default=float("inf"))
        coverage = float(rows[0]["coverage"]) if rows else 0.0
        checks.append(Check("noiseless sweep: baseline MAE below 1 m per 5 m bin",
                            worst < SWEEP_BIN_MAE_M and coverage > 0.95,
                            f"worst bin MAE {worst} m over {len(rows)} bins, coverage {coverage}"))
        return checks

    def details(self, passes):
        out = []
        for estimator in ("baseline", "network"):
            times = [s.seconds for p in passes for s in p.steps if s.name == f"depthmap.{estimator}"]
            p50, tail, pct, n = latency_summary(times)
            out.append(detail(f"{estimator}_frame_ms.p50", p50, "ms", n))
            out.append(detail(f"{estimator}_frame_ms.tail", tail, "ms", n, f"p{pct:.2f}"))
        out.append(detail("eval_s", median_step(passes, "eval"), "s", len(passes)))
        out.append(detail("probe_s", median_step(passes, "probe"), "s", len(passes)))
        return out


def realistic_slices(pulse_edge_fraction=0.15, gate_edge_fraction=0.10):
    """Stock timing and pulse counts with finite rise/fall times."""
    out = []
    for cfg in gating.standard_slices():
        tl, tg = cfg.pulse.width_ns, cfg.gate.width_ns
        pf, gf = pulse_edge_fraction * tl, gate_edge_fraction * tg
        out.append(gating.SliceConfig(
            cfg.pulses,
            gating.PulseShape(tl, "trapezoidal", rise_ns=pf, fall_ns=pf),
            gating.GateShape(tg, "trapezoidal", rise_ns=gf, fall_ns=gf),
            cfg.delay_ns,
        ))
    return tuple(out)


class TrapezoidWorkload(Workload):
    name = "trapezoid"

    def setup(self):
        s = self.sizes
        self.slices = realistic_slices()
        r_max = max(gating.slice_support(c)[1] for c in self.slices)
        self.grid = np.arange(s["rip_step_m"], r_max + 10.0, s["rip_step_m"])
        rng = self.rng(0)
        w, h = s["frame_w"], s["frame_h"]
        self.depth = rng.uniform(10.0, 100.0, (h, w))
        # A fixed number of sky pixels keeps the per-pass call counts seed-independent.
        self.depth.reshape(-1)[rng.choice(w * h, s["sky_px"], replace=False)] = np.inf
        self.reflectance = rng.uniform(0.05, 0.9, (h, w))
        self.noise_seeds = [int(v) for v in rng.integers(2**31, size=2)]

    def run_pass(self, p):
        s, slices = self.sizes, self.slices
        calib = p.step("calibration", scene.calibration_for_peak, slices, 25.0, 100.0, 240.0,
                       0.0, s["calib_samples"])
        samples = p.step("generate", scene.generate_dataset, s["gen_samples"],
                         scene.UniformRange(10.0, 100.0), scene.UniformRange(0.05, 0.9), slices,
                         scene.NoiseModel(2.0, seed=self.noise_seeds[0]), calib=calib)
        profiles = p.step("rip", lambda: [
            gating.rip(c, gating.Atmosphere(), self.grid, include_irradiance=False) for c in slices])
        images = p.step("render", scene.render_slices, self.depth, self.reflectance, slices,
                        scene.NoiseModel(2.0, seed=self.noise_seeds[1]), calib=calib)
        p.results = {"calib": calib, "samples": samples, "profiles": profiles, "images": images}

    def digests(self, p):
        r = p.results
        # Called once per pass, right after it: the samples are kept as arrays
        # from here on, because a list of 100k objects kept alive would slow
        # the collector in later passes.
        r["samples"] = (np.array([(x.s1, x.s2, x.s3) for x in r["samples"]], dtype=np.int64),
                        np.array([x.r for x in r["samples"]]))
        out = {"calibration": sha256_arrays(np.array([r["calib"]])),
               "samples": sha256_arrays(*r["samples"])}
        for i, prof in enumerate(r["profiles"], start=1):
            out[f"rip_slice{i}"] = sha256_arrays(prof.intensities)
        for i, img in enumerate(r["images"].images, start=1):
            out[f"slice{i}"] = sha256_arrays(img)
        return out

    def check(self, p):
        r, s = p.results, self.sizes
        checks = []
        rng = self.rng(1)
        worst, n = 0.0, 0
        for c, prof in zip(self.slices, r["profiles"]):
            lit = np.flatnonzero(prof.intensities > 0)
            for i in rng.choice(lit, min(s["oracle_points"], lit.size), replace=False):
                want = oracles.dense_overlap(
                    (c.pulse.width_ns, c.pulse.rise_ns, c.pulse.fall_ns),
                    (c.gate.width_ns, c.gate.rise_ns, c.gate.fall_ns), c.delay_ns, self.grid[i])
                worst = max(worst, abs(prof.intensities[i] / c.pulses - want) / want)
                n += 1
        checks.append(Check("sampled overlaps match the dense trapezoid rule",
                            n > 0 and worst <= OVERLAP_RTOL,
                            f"worst relative error {worst:.3g} over {n} distances"))

        triples = r["samples"][0]
        ok = (np.isfinite(r["calib"]) and r["calib"] > 0 and triples.shape == (s["gen_samples"], 3)
              and triples.min() >= 0 and triples.max() <= 255)
        checks.append(Check("generated samples are 8-bit triples", bool(ok),
                            f"calib {r['calib']}, shape {triples.shape}"))

        sky = ~np.isfinite(self.depth)
        stacked = np.stack(r["images"].images)
        ok = stacked.shape[1:] == self.depth.shape and not stacked[:, sky].any() and stacked[:, ~sky].any()
        checks.append(Check("render leaves sky pixels dark", bool(ok),
                            f"{int(sky.sum())} sky pixels"))
        return checks

    def details(self, passes):
        synth = float(np.median([sum(st.seconds for st in p.steps if st.name in ("calibration", "generate"))
                                 for p in passes]))
        return [detail("synth_s", synth, "s", len(passes)),
                detail("rip_s", median_step(passes, "rip"), "s", len(passes)),
                detail("render_s", median_step(passes, "render"), "s", len(passes))]


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, TrapezoidWorkload)}
