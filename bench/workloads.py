"""Workload definitions: each workload's job list, drawn from a seed.

Problem sizes are fixed per workload; only model parameters come from the
seed, each from a range in which no numerical guard of the library trips.
This module uses the standard library only, so run.py can write the
configs without importing numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("crm-emit", "pump-eigen", "audit-sweep")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    """One closed-loop job.

    ``kind`` is ``"cli"`` (``spec`` is a ``crmatrix run`` config) or
    ``"lib"`` (``spec`` names a library call, its N and its model
    parameters).  ``expect`` carries values the correctness check needs
    beyond the outputs themselves.
    """

    name: str
    kind: str
    spec: dict
    expect: dict = field(default_factory=dict)


def draw_parameters(seed: int) -> dict:
    """Model parameters of one seed, every one inside a guard-free range.

    - two-band angles: theta stays inside (0.45, 1.75), well within [0, pi];
    - graphene loop: radius < 0.9 keeps the loop 1.5 away from the other
      band-touching points, and mass >= 0.2 keeps a gap;
    - qwz mu: the gap closes only at mu in {-2, 0, 2}; |mu| in [0.6, 1.4]
      pumps one charge per cycle, |mu| in [2.6, 3.4] pumps none;
    - the 3-band table keeps its diagonal entries at least 1 apart at
      every k and its couplings below 0.35, so adjacent bands never meet.
    """
    rng = random.Random(seed)
    u = rng.uniform

    def sign():
        return rng.choice((-1.0, 1.0))

    two_band = {"theta0": u(0.9, 1.3), "theta_amp": u(0.2, 0.45),
                "phi_amp": u(0.1, 0.4), "theta_phase": u(-math.pi, math.pi),
                "phi_phase": u(-math.pi, math.pi)}
    graphene = {"mass": u(0.2, 0.5), "radius": u(0.6, 0.9)}
    mu_pump = sign() * u(0.6, 1.4)
    mu_trivial = sign() * u(2.6, 3.4)
    gauge_seed = rng.randrange(1_000_000)
    return {"two_band": two_band, "graphene": graphene, "mu_pump": mu_pump,
            "mu_trivial": mu_trivial, "gauge_seed": gauge_seed,
            "hamiltonian": _three_band_table(rng)}


def _three_band_table(rng: random.Random) -> list:
    """Hermitian 3x3 expression table in k and a, with seeded coefficients.

    Each Hermitian pair is written with opposite exponent signs so the
    library's pointwise Hermiticity check (1e-12) holds to round-off.
    """
    u = rng.uniform
    levels = [-2.0 + u(-0.2, 0.2), u(-0.2, 0.2), 2.0 + u(-0.2, 0.2)]
    bend = [u(0.1, 0.3) for _ in range(3)]
    t01, t12, w02 = u(0.15, 0.35), u(0.15, 0.35), u(0.1, 0.3)
    phase = u(-math.pi, math.pi)

    def onsite(i):
        return f"{levels[i]!r} + {bend[i]!r}*cos(k*a + {i * phase!r})"

    def hop(t, s):
        return f"{t!r}*exp({s}j*(k*a + {phase!r}))"

    return [[onsite(0), hop(t01, "-"), f"{w02!r}*sin(k*a)"],
            [hop(t01, "+"), onsite(1), hop(t12, "-")],
            [f"{w02!r}*sin(k*a)", hop(t12, "+"), onsite(2)]]


def _cli(name, task, n, model, n_bands=2, seed=0, expect=None, **params) -> Job:
    config = {"lattice": {"N": n, "a": 1.0, "n_bands": n_bands}, "model": model,
              "task": {"name": task, "params": params}, "seed": seed}
    return Job(name, "cli", config, expect or {})


def _lib(name, call, n, two_band) -> Job:
    return Job(name, "lib", {"call": call, "N": n, "two_band": two_band})


def jobs(workload: str, seed: int, sizes: str = "full") -> list:
    """The job list of ``workload`` at ``seed``; ``sizes="tiny"`` shrinks
    every problem for the smoke test without changing the job mix."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if sizes not in SIZES:
        raise ValueError(f"unknown sizes {sizes!r}; choose from {SIZES}")
    full = sizes == "full"

    def size(big, small):
        return big if full else small

    par = draw_parameters(seed)
    generic = {"preset": "two-band-generic", "params": par["two_band"]}
    graphene = {"preset": "graphene-ribbon", "params": par["graphene"]}

    if workload == "crm-emit":
        return [
            _cli("crm-generic", "crm", size(256, 8), generic),
            _cli("crm-graphene", "crm", size(192, 8), graphene),
            _cli("connection-generic", "connection", size(8192, 64), generic),
            _lib("position-matrix", "position_matrix", size(1024, 16), par["two_band"]),
        ]
    if workload == "pump-eigen":
        return [
            _cli("pump-topological", "pump", size(256, 32),
                 {"preset": "qwz-pump", "params": {"mu": par["mu_pump"]}},
                 expect={"chern_abs": 1}, n_lambda=size(64, 16)),
            _cli("pump-trivial", "pump", size(384, 32),
                 {"preset": "qwz-pump", "params": {"mu": par["mu_trivial"]}},
                 expect={"chern_abs": 0}, n_lambda=size(96, 16)),
            _cli("shift-three-band", "shift-current", size(4096, 64),
                 {"hamiltonian": par["hamiltonian"]}, n_bands=3),
        ]
    seeds = size(200, 4)
    return [
        _cli("audit-generic", "gauge-audit", size(1024, 32), generic,
             seed=par["gauge_seed"], seeds=seeds),
        _cli("audit-graphene", "gauge-audit", size(512, 32), graphene,
             seed=par["gauge_seed"], seeds=seeds, modes=4),
        _cli("shift-graphene", "shift-current", size(8192, 64), graphene,
             frequencies={"start": 0.5, "stop": 4.0, "count": size(800, 16)}),
        _cli("divergence-demo", "divergence-demo", 8, generic),
        _cli("incompleteness", "incompleteness", 8, generic,
             orthogonality={"n_max": size(4, 2), "N": size(8, 4)}),
        _lib("wannier-inverse", "wannier_inverse", size(256, 16), par["two_band"]),
        _lib("embedded-gram", "embedded_gram", size(256, 16), par["two_band"]),
    ]
