"""Each script in `demos/` runs to completion and prints its tables."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(name):
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
