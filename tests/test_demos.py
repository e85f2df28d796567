"""Smoke test of every demo: each must run to completion and print its
conclusion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("winding_berry_phase.py", "radius 0.05: winding -1.000"),
    ("divergence_of_the_naive_matrix.py", "residual of a gap-supported target: 1.000000000000"),
    ("product_space_factorization.py", "inverse transform recovers the k-space amplitudes"),
    ("position_matrix_blocks.py", "max |[r(k), k(k)]| over the grid: 0.0e+00"),
    ("gauge_audit.py", "band-diagonal loop under U(1) phases"),
    ("shift_current_and_pumping.py", "mu = -1: pumped charge +1.000000"),
])
def test_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
