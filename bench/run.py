"""crmatrix benchmark entry point.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload crm-emit --seed 0 --seconds 20 --trace 0

Runs one workload of ``bench/workloads.py`` in a fresh worker process and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
(plus set-up time measured over several fresh processes); ``--trace 1``
reports the per-layer metrics of a traced run.  Program outputs go to a
scratch directory inside the checkout that is removed when the run ends;
the run record and the spans of a traced run are kept in ``.bench-out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: fresh processes timed for setup_s; the median of this many is steady
#: to a few percent on a 2-core machine
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170.0


def _worker(mode: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), mode, "--root", str(ROOT), *args],
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)


def measure_setup(cfgdir: Path, samples: int) -> list:
    """Seconds from starting a fresh interpreter to having imported crmatrix
    and validated every config of the workload, one sample per process."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _worker("setup", "--configs", str(cfgdir), timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every problem; used by the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crmatrix" / "__init__.py").is_file():
        print(f"no crmatrix sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    tmp_parent = ROOT / ".bench-tmp"
    tmp_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    tag = f"{args.workload}-seed{args.seed}-{args.sizes}-trace{args.trace}"
    started = time.perf_counter()
    try:
        setup = []
        if not args.trace:
            cfgdir = scratch / "setup-configs"
            write_configs(workloads.jobs(args.workload, args.seed, args.sizes), cfgdir)
            setup = measure_setup(cfgdir, SETUP_SAMPLES)
        proc = _worker("run", "--scratch", str(scratch / "work"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--sizes", args.sizes,
                       "--spans", str(ROOT / ".bench-out" / f"spans-{tag}.json"),
                       timeout=RUN_TIMEOUT_S - (time.perf_counter() - started))
    except subprocess.CalledProcessError as exc:
        print(f"benchmark worker failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("benchmark worker timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = report["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        report["info"]["setup_samples_s"] = setup
    attempted, failed = report["attempted"], report["failed"]
    if not args.trace:
        metrics["success_rate"] = {"value": (attempted - failed) / attempted, "unit": "fraction"}

    outdir = ROOT / ".bench-out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"record-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    info = report["info"]
    print(f"workload {args.workload} seed {args.seed}: nproc {info['nproc']}, "
          f"BLAS threads {info['blas_threads']}, error_rate {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
