"""Correctness checks on each job's outputs, and their byte-identity digests.

The checks use only the outputs and the library's own invariants: no
second implementation of any quantity.  A check returns a list of
failure messages (empty when the job is correct) and a dict of facts the
trace reports (the gauge audit's flagged loop rows).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

#: absolute guard of ``rmatrix.position_matrix``; sampled entry pairs may
#: differ from exact conjugates by at most this much
CRM_HERMITICITY_TOL = 1e-10
#: residuals, Gram identities and recovered columns are exact up to round-off
EXACT_TOL = 1e-9
CRM_SAMPLES = 64
AUDIT_LOOP_ROWS = ("diagonal_loop", "trace_loop", "berry_phase")
AUDIT_MUST_HOLD = ("diagonal_loop", "berry_phase")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _check_manifest(outdir: Path, errors: list) -> dict:
    """Every listed file exists, hashes to its sha256 and has its row count."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        data = (outdir / entry["file"]).read_bytes()
        if sha256_bytes(data) != entry["sha256"]:
            errors.append(f"{entry['file']}: sha256 differs from the manifest")
        if len(data.splitlines()) - 1 != entry["rows"]:
            errors.append(f"{entry['file']}: row count differs from the manifest")
    return manifest


def _check_crm(outdir, config, errors):
    nb, n = config["lattice"]["n_bands"], config["lattice"]["N"]
    lines = (outdir / "crm.csv").read_bytes().splitlines()[1:]
    if len(lines) != (nb * n) ** 2:
        errors.append(f"crm.csv has {len(lines)} rows, expected {(nb * n) ** 2}")
        return
    rng = random.Random(0)
    for _ in range(CRM_SAMPLES):
        m, nn = rng.randrange(nb), rng.randrange(nb)
        p, q = rng.randrange(n), rng.randrange(n)
        a = lines[((m * n + p) * nb + nn) * n + q].split(b",")
        b = lines[((nn * n + q) * nb + m) * n + p].split(b",")
        if [int(x) for x in a[:4]] != [m, p, nn, q] or [int(x) for x in b[:4]] != [nn, q, m, p]:
            errors.append(f"crm.csv rows out of order near ({m},{p},{nn},{q})")
            return
        za = complex(float(a[4]), float(a[5]))
        zb = complex(float(b[4]), float(b[5]))
        if not (math.isfinite(abs(za)) and abs(za - zb.conjugate()) <= CRM_HERMITICITY_TOL):
            errors.append(f"crm.csv entries ({m},{p},{nn},{q}) and ({nn},{q},{m},{p}) "
                          f"are not conjugate: {za} vs {zb}")
            return


def _check_connection(outdir, config, errors):
    nb, n = config["lattice"]["n_bands"], config["lattice"]["N"]
    for name in ("connection.csv", "reduced_r.csv"):
        rows = _rows(outdir / name)
        if len(rows) != n * nb * nb:
            errors.append(f"{name} has {len(rows)} rows, expected {n * nb * nb}")
            continue
        vals = np.array([[float(r[3]), float(r[4])] for r in rows])
        z = (vals[:, 0] + 1j * vals[:, 1]).reshape(n, nb, nb)
        if not np.all(np.isfinite(z)):
            errors.append(f"{name} holds non-finite values")
        elif np.max(np.abs(z - z.conj().transpose(0, 2, 1))) > CRM_HERMITICITY_TOL:
            errors.append(f"{name} is not Hermitian at every k")


def _check_pump(outdir, expect, errors):
    (_, _, chern, residue), = _rows(outdir / "oracle.csv")
    chern = int(chern)
    delta_q = float(_rows(outdir / "pump.csv")[-1][2])
    if not (math.isfinite(delta_q) and abs(delta_q + chern) <= 1e-6):
        errors.append(f"pumped charge {delta_q} is not -C = {-chern}")
    if abs(chern) != expect["chern_abs"]:
        errors.append(f"Chern number {chern}, expected magnitude {expect['chern_abs']}")
    if not float(residue) < 0.05:
        errors.append(f"Chern residue {residue} is not below 0.05")


def _check_spectrum(outdir, config, errors):
    rows = _rows(outdir / "spectrum.csv")
    freq = config["task"]["params"].get("frequencies", {"count": 176})
    if len(rows) != freq["count"]:
        errors.append(f"spectrum.csv has {len(rows)} rows, expected {freq['count']}")
    if not all(_finite(r) for r in rows):
        errors.append("spectrum.csv holds non-finite values")
    elif rows and not 0.0 <= float(rows[0][2]) <= 1.0:
        errors.append("skipped fraction outside [0, 1]")


def _check_audit(outdir, config, errors) -> dict:
    rows = _rows(outdir / "gauge_audit.csv")
    seeds = config["task"]["params"]["seeds"]
    if len(rows) != 4 * seeds:
        errors.append(f"gauge_audit.csv has {len(rows)} rows, expected {4 * seeds}")
    if not all(_finite(r[3:8]) for r in rows):
        errors.append("gauge_audit.csv holds non-finite values")
    broken = [r for r in rows if r[0] in AUDIT_MUST_HOLD and r[8] != "1"]
    if broken:
        errors.append(f"{len(broken)} diagonal_loop/berry_phase rows are not invariant")
    loop = [r for r in rows if r[0] in AUDIT_LOOP_ROWS]
    return {"loop_rows": len(loop), "flagged": sum(r[8] != "1" for r in loop)}


def _check_divergence(outdir, errors):
    rows = _rows(outdir / "truncation.csv")
    if not rows or not all(_finite(r) for r in rows):
        errors.append("truncation.csv is empty or non-finite")
    (before, after, shift), = _rows(outdir / "translation.csv")
    if abs(float(after) - float(before) - float(shift)) > EXACT_TOL:
        errors.append("translation shift differs from the predicted -a")


def _check_incompleteness(outdir, manifest, errors):
    residuals = [float(r[1]) for r in _rows(outdir / "residual.csv")]
    if not residuals or any(abs(r - 1.0) > EXACT_TOL for r in residuals):
        errors.append(f"gap-supported residuals are not all 1: {residuals}")
    (_, _, worst), = _rows(outdir / "orthogonality.csv")
    if not float(worst) < manifest["tolerances"]["gram_off_diag"]:
        errors.append(f"Gram off-diagonal {worst} exceeds its manifest tolerance")


def _check_cli(job, outdir) -> tuple:
    errors, info = [], {}
    manifest = _check_manifest(outdir, errors)
    task = job.spec["task"]["name"]
    if task == "crm":
        _check_crm(outdir, job.spec, errors)
    elif task == "connection":
        _check_connection(outdir, job.spec, errors)
    elif task == "pump":
        _check_pump(outdir, job.expect, errors)
    elif task == "shift-current":
        _check_spectrum(outdir, job.spec, errors)
    elif task == "gauge-audit":
        info = _check_audit(outdir, job.spec, errors)
    elif task == "divergence-demo":
        _check_divergence(outdir, errors)
    elif task == "incompleteness":
        _check_incompleteness(outdir, manifest, errors)
    else:
        errors.append(f"no check for task {task!r}")
    return errors, info


def _check_lib(job, result) -> list:
    field, value = result
    call = job.spec["call"]
    if call == "position_matrix":
        n = field.n_bands * field.n_k
        if value.entries.shape != (n, n) or not np.all(np.isfinite(value.entries)):
            return ["position matrix has the wrong shape or non-finite entries"]
        if not value.hermiticity_defect <= CRM_HERMITICITY_TOL:
            return [f"Hermiticity defect {value.hermiticity_defect:.3e}"]
        return []
    if call == "wannier_inverse":
        err = float(np.max(np.abs(value - field.coeffs[:, 0, 0])))
        return [] if err <= EXACT_TOL else [f"wannier_inverse misses the column by {err:.3e}"]
    if call == "embedded_gram":
        err = float(np.max(np.abs(value - np.eye(value.shape[0]))))
        return [] if err <= EXACT_TOL else [f"embedded Gram is off identity by {err:.3e}"]
    return [f"no check for call {call!r}"]


def check(job, outdir: Path, result) -> tuple:
    """(failure messages, facts) for one finished job."""
    if job.kind == "cli":
        return _check_cli(job, outdir)
    return _check_lib(job, result), {}


def digests(job, outdir: Path, result) -> dict:
    """sha256 of every output: the CLI's files, or a library result's bytes."""
    if job.kind == "cli":
        return {f.name: sha256_bytes(f.read_bytes()) for f in sorted(outdir.iterdir())}
    return {job.spec["call"]: sha256_bytes(np.ascontiguousarray(
        getattr(result[1], "entries", result[1])).tobytes())}
