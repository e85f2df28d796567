"""Smoke test of the demos whose library calls have vectorised or shared
implementations: each must run to completion and print its conclusion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("winding_berry_phase.py", "radius 0.05: winding -1.000"),
    ("divergence_of_the_naive_matrix.py", "residual of a gap-supported target: 1.000000000000"),
    ("product_space_factorization.py", "inverse transform recovers the k-space amplitudes"),
])
def test_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
