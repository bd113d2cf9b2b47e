"""Package metadata, the lazy top-level exports, and the names and
command lines the benchmark uses."""

import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conebessel
from conebessel import cli

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == conebessel.__version__


def test_every_export_resolves_lazily():
    for name in conebessel.__all__:
        if name != "__version__":
            assert conebessel.__getattr__(name) is getattr(conebessel, name)


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these (module, attribute path) names; a rename
    # in the package would otherwise only surface when a traced run fails
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, sites, _ in spans.TARGETS:
        for module, path in sites:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            assert callable(found), f"{module}.{path} does not resolve"


@pytest.fixture(scope="module")
def workloads():
    # loaded read-only; its dataclass looks the module up in sys.modules
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["walk", "freeenergy", "chamber", "ballmc"])
def test_benchmark_warmup_ops_run_and_pass_their_checks(workloads, name, tmp_path, monkeypatch):
    # a warm-up op that fails makes the benchmark run exit 2 before it measures
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "1")  # --threads 1 sets these
    for op in workloads.warmup(name, 1):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*op.argv, "--threads", "1", "--out", str(tmp_path)])
        assert rc == 0, " ".join(op.argv)
        assert op.check((tmp_path / op.csv).read_text(encoding="utf-8")) is None


def test_python_dash_m_runs_the_cli(tmp_path):
    # from a checkout, with the package on PYTHONPATH and nothing installed
    src = str(Path(conebessel.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = ["walk", "--q", "1", "--mu", "6", "--steps", "1", "--replicates", "1",
            "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "conebessel", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "walk.csv").read_text(encoding="utf-8").count("\n") == 3 + 2


def test_subcommands_other_than_check_do_not_load_scipy(tmp_path):
    # scipy is needed only by `check` and the tests; a cold import of the
    # series modules with it took 0.45 s and 54 MB, without it 0.16 s and
    # 28 MB (2-core x86-64 host)
    src = str(Path(conebessel.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [["bessel", "--q", "2", "--mu", "3", "--grid", "0.5", "--n-samples", "100"],
            ["dunkl", "--q", "2", "--grid", "8", "--n-samples", "10"],
            ["walk", "--mu", "3", "--replicates", "2", "--steps", "2"],
            ["lln", "--q", "1", "--grid", "2", "--replicates", "2"],
            ["slln", "--q", "1", "--k-max", "3"],
            ["ldp", "--q", "1", "--atoms", "0;1", "--weights", "0.5,0.5", "--k-max", "3",
             "--replicates", "4", "--t-values", "0,1", "--grid", "0.5"]]
    code = (
        "import contextlib, io, sys\n"
        "from conebessel import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert cli.main([*argv, '--out', {str(tmp_path)!r}]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
