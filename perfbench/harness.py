"""Runs one workload: set-up, measured passes, checks, metrics and the result."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Check, Pass, StepFailed, fresh_dir

SETUP_REPEATS = 3


def import_probe(src):
    """Import the CLI module in a fresh interpreter, as a user's first command does."""
    subprocess.run([sys.executable, "-c", "import gatedepth.cli"], cwd=src.parent,
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                   capture_output=True, timeout=120)


def git_commit(root):
    """HEAD commit read from ``.git`` without running git, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, seed, sizes):
    src = root / "src" / "gatedepth"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_settings": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }


def _guarded(name, fn, *args):
    """Run a check function; an exception is a failed check, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:
        return [Check(name, False, f"{type(exc).__name__}: {exc}")]


def _measure(wl, work, seconds, trace, tracer):
    """Closed-loop passes within a budget of ``seconds``.

    A pass starts only if one more pass of the median length so far still
    ends inside the budget; the first pass (the first two when tracing)
    always runs. Without tracing every pass is measured. With tracing,
    passes alternate untraced/traced, so the traced numbers come with their
    own untraced reference for the overhead ratio.
    """
    passes = []
    start = time.perf_counter()
    while True:
        p = Pass(len(passes), work / f"pass{len(passes)}", traced=trace and len(passes) % 2 == 1)
        p.out_dir.mkdir(parents=True)
        # Each pass starts from the same collector state, as a fresh CLI process
        # would: objects kept from set-up and earlier passes are frozen out of
        # the cyclic collector's view.
        gc.collect()
        gc.freeze()
        if p.traced:
            tracer.run_id = p.index
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run_pass(p)
        except StepFailed:
            p.failed = True
        finally:
            p.seconds = time.perf_counter() - t0
            if p.traced:
                tracer.uninstall()
        if not p.failed:
            p.digests = wl.digests(p)
        if passes:
            p.results = {}  # only the first pass's results are checked
        passes.append(p)
        if p.failed:
            return passes
        next_end = time.perf_counter() - start + float(np.median([q.seconds for q in passes]))
        if next_end > seconds and (not trace or len(passes) >= 2):
            return passes


def run(workload, seed, seconds, trace, scale, root):
    """Run one workload end to end and return the full result record."""
    root = Path(root)
    work = fresh_dir(root / ".bench_work" / workload)
    wl = WORKLOADS[workload](work, seed, scale)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_probe(root / "src")
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    passes = _measure(wl, work, seconds, bool(trace), tracer)
    done = [p for p in passes if not p.failed]
    untraced = [p for p in done if not p.traced]
    traced = [p for p in done if p.traced]

    checks = []
    digests = [p.digests for p in done]
    if done:
        checks += _guarded("outputs of the first pass", wl.check, done[0])
        same = all(d == digests[0] for d in digests)
        checks.append(Check("every pass writes identical outputs", same,
                            f"{len(done)} passes compared"))

    layer = [tracer.layer_totals(p.index) for p in traced]
    if trace and layer:
        counts = [({k: (v[0], v[2], v[3]) for k, v in t.items()}, e) for t, e in layer]
        checks.append(Check("traced counts repeat exactly", all(c == counts[0] for c in counts),
                            f"{len(counts)} traced passes compared"))
        tracer.write_csv(work / "trace_spans.csv")

    attempted = sum(len(p.steps) for p in passes) + len(checks)
    failed = sum(not s.ok for p in passes for s in p.steps) + sum(not c.ok for c in checks)
    timed = untraced or passes
    e2e = {
        "setup_s": (float(np.median(setup_s)), "s"),
        "run_s": (float(np.median([p.seconds for p in timed])), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    details = wl.details(timed) if untraced else []
    if trace and layer:
        values = tracing.layer_metrics(layer, [p.seconds for p in untraced], [p.seconds for p in traced])
        metrics = {name: (values[name], unit) for name, unit, _ in tracing.per_layer_schema()}
    elif trace:
        metrics = {name: (0.0, unit) for name, unit, _ in tracing.per_layer_schema()}
    else:
        metrics = e2e

    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "environment": environment(root, seed, wl.sizes),
        "setup_s": setup_s,
        "passes": [{"index": p.index, "traced": p.traced, "seconds": p.seconds, "failed": p.failed,
                    "steps": [vars(s) for s in p.steps]} for p in passes],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "details": details,
        "failed_ratio": failed / attempted,
        "checks": [vars(c) for c in checks],
        "output_sha256": digests[0] if digests else {},
        "result": final,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return record


def report(record, out=sys.stdout):
    """Human-readable summary, then the one-line JSON result as the last line."""
    final = record["result"]
    env = record["environment"]
    w = out.write
    w(f"perfbench {record['workload']}: seed {record['seed']}, {record['seconds']} s, "
      f"trace {record['trace']}, scale {record['scale']}\n")
    w(f"  python {env['python']}, numpy {env['numpy']}, {env['blas']} "
      f"({' '.join(f'{k}={v}' for k, v in env['thread_settings'].items())}), nproc {env['nproc']}, "
      f"commit {env['commit']}\n")
    for p in record["passes"]:
        steps = {}
        for s in p["steps"]:
            steps[s["name"]] = steps.get(s["name"], 0.0) + s["seconds"]
        kind = "traced" if p["traced"] else "pass"
        w(f"  {kind} {p['index']}: {p['seconds']:.3f} s  "
          + ", ".join(f"{k} {v:.3f}" for k, v in steps.items()) + "\n")
    rows = [(k, v["value"], v["unit"], "") for k, v in record["end_to_end"].items()]
    rows += [(d["name"], d["value"], d["unit"], f"n={d['n']}" + (f" {d['percentile']}" if d["percentile"] else ""))
             for d in record["details"]]
    rows.append(("failed_ratio", record["failed_ratio"], f"{final['failed']}/{final['attempted']}", ""))
    for name, value, unit, note in rows:
        w(f"  {name:<28} {value:>14.6g} {unit:<8} {note}\n")
    if record["trace"]:
        for name, m in final["metrics"].items():
            if m["value"]:
                w(f"  {name:<52} {m['value']:>14.6g} {m['unit']}\n")
    for c in record["checks"]:
        w(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}\n")
    w(f"  full record: .bench_work/{record['workload']}/result.json\n")
    w(json.dumps(final) + "\n")
