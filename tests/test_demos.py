"""Every Python demo runs to completion.

The demos write artifacts such as julia_zm2.pgm into the working
directory, so each one runs in its own temporary directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                       capture_output=True, text=True, timeout=300,
                       env=dict(os.environ))
    assert r.returncode == 0, r.stdout + r.stderr
