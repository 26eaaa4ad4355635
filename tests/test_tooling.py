import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

FAILING_PROPERTY = textwrap.dedent("""\
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_fails(x):
        assert x < 3

    def test_after():
        pass
    """)


def test_failing_hypothesis_test_is_reported_not_internal_error(tmp_path):
    # Under the project's warning filters, a failing @given test must end as
    # an ordinary failure, with the tests after it still run.
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
