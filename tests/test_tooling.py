import ast
import importlib
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import topolstm
from topolstm import cli
from topolstm.checkpoint import save_model
from topolstm.datagen import PRESETS, generate_dataset
from topolstm.graph import Cascade, load_graph_file
from topolstm.model import Model, ModelConfig, predict_next

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


def test_readme_package_layout_names_every_module():
    # Each module of the package has one line in the README's layout block,
    # and the block names no module that is gone.
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^## Package layout\n\n```\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    modules = Path(topolstm.__file__).parent.glob("*.py")
    assert sorted(listed) == sorted(p.name for p in modules if p.name != "__init__.py")


FILE_SUFFIXES = ("py", "bin", "json", "txt", "csv", "log")


def test_readme_module_names_resolve():
    # Every backticked `module.name` whose module is one of the package's
    # resolves, so a name deleted from the package does not linger in the
    # README.  File names such as `graph.py` and `checkpoint.bin` are none.
    text = README.read_text(encoding="utf-8")
    modules = {p.stem for p in Path(topolstm.__file__).parent.glob("*.py")}
    names = [(module, path) for module, path in re.findall(r"`(\w+)\.([\w.]+)`", text)
             if module in modules and path.rsplit(".", 1)[-1] not in FILE_SUFFIXES]
    assert len(names) >= 10
    for module, path in names:
        obj = importlib.import_module(f"topolstm.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), f"README names {module}.{path}"
            obj = getattr(obj, part)


def test_readme_follow_a_cascade_block_runs(tmp_path, monkeypatch, capsys):
    # The documented CascadeState loop runs as written on a generated
    # dataset and a seeded checkpoint, and names each prefix's most likely
    # next node, as a call without the state does.
    text = README.read_text(encoding="utf-8")
    [block] = [b for b in re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
               if "CascadeState" in b]
    generate_dataset(PRESETS["desk-default"], tmp_path / "data")
    graph = load_graph_file(tmp_path / "data" / "graph.txt")
    model = Model.initialize(ModelConfig(8, graph.node_count, "precedent-only"),
                             np.random.default_rng(0))
    (tmp_path / "run").mkdir()
    save_model(tmp_path / "run" / "checkpoint.bin", model, graph.labels)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    labels = ("17", "4", "92")   # the block's activations
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(labels)
    for k, (label, line) in enumerate(zip(labels, lines), start=1):
        cand, probs = predict_next(model, graph, Cascade(tuple(map(graph.id_of, labels[:k]))))
        assert line == f"{label} -> {graph.labels[cand[probs.argmax()]]}"


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


def calls_outside(tree, names):
    """(line, name) of each call to one of ``names`` that no function or
    class of those names encloses."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside or node.name in names
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names:
                found.append((node.lineno, called))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_reference_paths_are_called_only_from_reference_paths():
    # The reference names stay for the benchmark's gates and the tests; no
    # command may come to depend on them before they are deleted.
    names = {name for module, name in readme_reference_names() if module != "np"}
    package = Path(topolstm.__file__).parent
    bad = [f"{path.name}:{line} calls {name}"
           for path in sorted(package.glob("*.py"))
           for line, name in calls_outside(ast.parse(path.read_text(encoding="utf-8")), names)]
    assert not bad, bad


REFUSAL_TYPES = {"ValueError", "DataError", "NumericError", "CheckpointError", "DivergenceError"}


def test_refusal_vocabulary_is_closed():
    # Every raise in the package names one of five exceptions (or re-raises),
    # so the CLI's exit-code map covers them all, and errors.py defines no
    # exception type beyond those four and their base.
    package = Path(topolstm.__file__).parent
    bad = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in REFUSAL_TYPES):
                    bad.append(f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}")
    assert not bad, bad
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert defined == REFUSAL_TYPES - {"ValueError"} | {"TopoLstmError"}
