"""Benchmark worker: one fresh process that runs one workload in a closed loop.

Modes:
  setup   import crmatrix and validate every config of a workload, then exit;
          run.py times this process from start to exit.
  run     warm-up pass, then timed passes for --seconds; with --trace 1,
          untraced and traced passes alternate, followed by one
          tracemalloc pass and a default-seed pass for the digest record.
  record  write digests.json: every job's output digests at the default seed.

The last line of ``run``'s standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MIN_PASSES = 3


def import_crmatrix(root: Path):
    """Import crmatrix from ``root/src`` and refuse any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import crmatrix
    if Path(crmatrix.__file__).resolve().parent != (src / "crmatrix").resolve():
        raise ImportError(f"crmatrix imported from {crmatrix.__file__}, not {src}")
    return crmatrix


def write_configs(jobs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.kind == "cli":
            (directory / f"{job.name}.json").write_text(json.dumps(job.spec, indent=1))


def blas_threads() -> int:
    """OpenBLAS thread count of the loaded numpy, or -1 if it cannot be read."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


class Runner:
    """Executes jobs against the library through its module attributes, so
    a tracer installed on those attributes sees every call."""

    def __init__(self, root: Path, scratch: Path):
        import_crmatrix(root)
        from crmatrix import cli, model, presets, projection, rmatrix
        import checks
        self.cli, self.model, self.presets = cli, model, presets
        self.projection, self.rmatrix = projection, rmatrix
        self.checks = checks
        self.scratch = scratch

    def load(self, jobs, tag: str) -> Path:
        """Write and validate the configs of ``jobs``; return their directory."""
        cfgdir = self.scratch / "configs" / tag
        write_configs(jobs, cfgdir)
        for job in jobs:
            if job.kind == "cli":
                self.cli.load_config(cfgdir / f"{job.name}.json")
        return cfgdir

    def execute(self, job, cfgdir: Path, outdir: Path):
        """Run one job; returns the library result, or raises on failure."""
        if job.kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.cli.main(["run", "--config", str(cfgdir / f"{job.name}.json"),
                                      "--outdir", str(outdir)])
            if code != 0:
                raise RuntimeError(f"crmatrix run exited {code}: {out.getvalue().strip()}")
            return None
        spec = job.spec
        lattice = self.model.LatticeSpec(n_cells=spec["N"], lattice_constant=1.0, n_bands=2)
        field = self.presets.generic_two_band(lattice, **spec["two_band"])
        call = spec["call"]
        if call == "position_matrix":
            return field, self.rmatrix.position_matrix(field)
        if call == "wannier_inverse":
            return field, self.projection.wannier_inverse(field, 0, 0)
        if call == "embedded_gram":
            return field, self.projection.embedded_gram(field)
        raise ValueError(f"unknown library call {call!r}")

    def run_pass(self, jobs, cfgdir: Path, tracer=None, want_digests=False) -> dict:
        """One closed-loop pass: each job starts when the previous returns.

        Checks, digests and output clean-up run between jobs, outside the
        job timers; a pass's wall time is the sum of its job times.
        """
        times, failures, facts, digests, written, failed = [], [], [], {}, 0, 0
        for job in jobs:
            outdir = self.scratch / "out" / job.name
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            if tracer is not None:
                tracer.job = job.name
            t0 = time.perf_counter()
            try:
                result = self.execute(job, cfgdir, outdir)
            except Exception:
                times.append(time.perf_counter() - t0)
                failures.append(f"{job.name}: {traceback.format_exc()}")
                failed += 1
                continue
            times.append(time.perf_counter() - t0)
            try:
                errors, info = self.checks.check(job, outdir, result)
            except Exception:
                errors, info = [f"check raised: {traceback.format_exc()}"], {}
            failures.extend(f"{job.name}: {e}" for e in errors)
            failed += bool(errors)
            facts.append(info)
            written += sum(f.stat().st_size for f in outdir.iterdir())
            if want_digests:
                digests[job.name] = self.checks.digests(job, outdir, result)
            del result
        return {"wall_s": sum(times), "job_max_s": max(times), "job_s": times,
                "failed": failed, "failures": failures, "facts": facts,
                "digests": digests, "bytes_written": written}


def setup_main(args) -> int:
    import_crmatrix(args.root)
    from crmatrix import cli
    for path in sorted(args.configs.glob("*.json")):
        cli.load_config(path)
    return 0


def _count_changed(digests: dict, record: dict) -> int:
    """Output digests that differ from, or are missing in, either side."""
    changed = 0
    for job in digests.keys() | record.keys():
        new, old = digests.get(job, {}), record.get(job, {})
        changed += sum(new.get(name) != old.get(name) for name in new.keys() | old.keys())
    return changed


def _traced_metrics(runner, jobs, cfgdir, args, passes, info) -> tuple:
    """Per-layer metrics and the last traced pass's spans."""
    from tracing import LAYERS, Tracer
    tracer = Tracer()
    plain, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < 2:
        plain.append(runner.run_pass(jobs, cfgdir))
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(jobs, cfgdir, tracer=tracer))
        finally:
            tracer.uninstall()
        layer_runs.append(tracer.layer_totals())
    counts, guards = dict(tracer.counts), dict(tracer.guards)
    spans = tracer.span_records()

    tracer.reset()
    tracer.install(memory=True)
    try:
        mem_pass = runner.run_pass(jobs, cfgdir, tracer=tracer)
    finally:
        tracer.uninstall()
    peaks = tracer.layer_totals()

    record_key = f"{args.sizes}/{args.workload}"
    if args.seed == workloads.DEFAULT_SEED:
        digest_pass = runner.run_pass(jobs, cfgdir, want_digests=True)
    else:
        default_jobs = workloads.jobs(args.workload, workloads.DEFAULT_SEED, args.sizes)
        digest_pass = runner.run_pass(default_jobs, runner.load(default_jobs, "default"),
                                      want_digests=True)
    record = json.loads(DIGESTS.read_text()).get(record_key, {}) if DIGESTS.exists() else {}
    passes.extend(plain + traced + [mem_pass, digest_pass])
    info["untraced_wall_s"] = [p["wall_s"] for p in plain]
    info["traced_wall_s"] = [p["wall_s"] for p in traced]

    last = traced[-1]
    audits = [f for f in last["facts"] if "loop_rows" in f]
    loop_rows = sum(f["loop_rows"] for f in audits)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    self_total = [sum(run[layer]["self_s"] for layer in LAYERS) for run in layer_runs]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(run[layer]["self_s"] for run in layer_runs), "s")
        metrics[f"{layer}.calls"] = (layer_runs[-1][layer]["calls"], "count")
        metrics[f"{layer}.peak_mb"] = (peaks[layer]["peak_mb"], "MiB")
    metrics.update({
        "model.points": (counts["model.points"], "count"),
        "io.rows": (counts["io.rows"], "count"),
        "io.files": (counts["io.files"], "count"),
        "io.mb_written": (last["bytes_written"] / float(1 << 20), "MiB"),
        "rmatrix.herm_margin": (guards["herm_defect"] / runner.checks.CRM_HERMITICITY_TOL, "fraction"),
        "transport.chern_residue": (guards["chern_residue"], "fraction"),
        "gauge.flagged_frac": (sum(f["flagged"] for f in audits) / loop_rows if loop_rows else 0.0,
                               "fraction"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "fraction"),
        "trace.coverage_frac": (min(t / p["wall_s"] for t, p in zip(self_total, traced)),
                                "fraction"),
        "outputs.changed_digests": (_count_changed(digest_pass["digests"], record), "count"),
    })
    return metrics, spans


def run_main(args) -> int:
    args.scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.root, args.scratch)
    jobs = workloads.jobs(args.workload, args.seed, args.sizes)
    cfgdir = runner.load(jobs, "seed")
    info = {"workload": args.workload, "seed": args.seed, "sizes": args.sizes,
            "jobs": [j.name for j in jobs], "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "python": sys.version.split()[0]}
    passes = [runner.run_pass(jobs, cfgdir)]  # warm-up: caches and lazy imports
    spans = []
    if args.trace:
        metrics, spans = _traced_metrics(runner, jobs, cfgdir, args, passes, info)
    else:
        timed = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(timed) < MIN_PASSES:
            timed.append(runner.run_pass(jobs, cfgdir))
        passes.extend(timed)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(p["wall_s"] for p in timed), "s"),
                   "job_max_s": (statistics.median(p["job_max_s"] for p in timed), "s"),
                   "peak_rss_mb": (peak, "MiB")}
        info["timed_passes"] = len(timed)
        info["pass_wall_s"] = [p["wall_s"] for p in timed]
        info["job_median_s"] = {job.name: statistics.median(p["job_s"][i] for p in timed)
                                for i, job in enumerate(jobs)}
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if spans and args.spans:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps({"info": info, "spans": spans}))
    print(json.dumps({"attempted": len(jobs) * len(passes),
                      "failed": sum(p["failed"] for p in passes),
                      "info": info,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def record_main(args) -> int:
    args.scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.root, args.scratch)
    record = {}
    for sizes in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            jobs = workloads.jobs(workload, workloads.DEFAULT_SEED, sizes)
            cfgdir = runner.load(jobs, f"{sizes}-{workload}")
            result = runner.run_pass(jobs, cfgdir, want_digests=True)
            if result["failures"]:
                print("\n".join(result["failures"]), file=sys.stderr)
                return 1
            record[f"{sizes}/{workload}"] = result["digests"]
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "run", "record"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--configs", type=Path)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=workloads.SIZES, default="full")
    parser.add_argument("--spans", type=Path, help="file for the last traced pass's spans")
    args = parser.parse_args(argv)
    return {"setup": setup_main, "run": run_main, "record": record_main}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
