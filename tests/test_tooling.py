import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SESSION = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @given(st.integers())
    @settings(database=None)
    def test_property_fails(n):
        assert n < 0


    def test_plain_passes():
        pass
""")


def test_failing_property_test_fails_only_itself(tmp_path):
    # reporting a falsifying example must not end the session: under the
    # project's warning filters it once raised a third-party deprecation
    # inside pytest, which exited 3 with INTERNALERROR and ran nothing more
    (tmp_path / "test_session.py").write_text(SESSION)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
