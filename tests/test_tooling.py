import importlib
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import topolstm
from topolstm import cli

README = Path(__file__).parents[1] / "README.md"

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


def readme_commands():
    """The argv of every `topolstm ...` line in the README's fenced code
    blocks, with backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.split()[:1] == ["topolstm"]]


def test_readme_commands_parse():
    # A flag deleted from the CLI must not linger in the documented commands.
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["generate", "train", "evaluate", "predict"]
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: topolstm {shlex.join(argv)}")


def readme_reference_names():
    """The (module, name) pairs in backticks under the README's "Reference
    paths" section, such as `graph.build_topologies`."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Reference paths.*?(?=^## )", text, re.MULTILINE | re.DOTALL)
    return re.findall(r"`(\w+)\.(\w+)`", section.group(0))


def test_package_root_exports_no_reference_name():
    pairs = [(module, name) for module, name in readme_reference_names()
             if module != "np"]
    assert len(pairs) >= 7
    for module, name in pairs:
        assert hasattr(importlib.import_module(f"topolstm.{module}"), name), (module, name)
        assert not hasattr(topolstm, name), f"topolstm exports {name}"
