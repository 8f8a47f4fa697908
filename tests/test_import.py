"""What importing the package does to the process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, first, expected",
    [
        ({}, "holcus", ("1", "1", "1")),
        ({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}, "holcus", ("2", "1", "3")),
        # numpy's BLAS has already read the variables, so setting them would only mislead.
        ({}, "numpy", (None, None, None)),
    ],
    ids=["unset", "user-set-kept", "numpy-loaded-first"],
)
def test_import_pins_blas_threads_by_default(preset, first, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    code = f"import {first}, holcus, os; print([os.environ.get(v) for v in {BLAS_VARS!r}])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(list(expected))
