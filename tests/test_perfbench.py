import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "selftest.py")


def test_selftest_passes(tmp_path):
    # the benchmark's output checks call the package API; each must pass on
    # true outputs and fail on perturbed ones
    proc = subprocess.run([sys.executable, SELFTEST], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert os.listdir(tmp_path) == []
