"""Package metadata, the lazy top-level exports, and the names and
command lines the benchmark uses."""

import ast
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


def _spans():
    # perfbench/spans.py, loaded read-only
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these (module, attribute path) names; a rename
    # in the package would otherwise only surface when a traced run fails
    spans = _spans()
    assert spans.TARGETS
    for _, sites, _ in spans.TARGETS:
        for module, path in sites:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            assert callable(found), f"{module}.{path} does not resolve"


def test_unused_imports_are_only_span_shims():
    # a module-level `from` import that its module never reads is kept only
    # as a name the span recorder patches there; any other is dead code, and
    # a shim whose span is retired must go with it
    patched = {(module, path) for _, sites, _ in _spans().TARGETS for module, path in sites}
    for source in sorted((ROOT / "src" / "conebessel").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"conebessel.{source.stem}"
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name
                    assert name in read or (module, name) in patched, f"{module} imports {name}"


def test_only_the_cli_knows_the_run_file_format():
    # the hash of the config echo and the stream version on the CSV's first
    # line are the command line's: no computing module takes a JSON digest
    # or reads the version, which seeds defines
    for source in sorted((ROOT / "src" / "conebessel").glob("*.py")):
        if source.stem in ("cli", "seeds"):
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "json" not in [alias.name for alias in node.names], source.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "json", source.name
                assert "STREAM_VERSION" not in [alias.name for alias in node.names], source.name
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert name != "STREAM_VERSION", source.name
    seeds = ast.parse((ROOT / "src" / "conebessel" / "seeds.py").read_text(encoding="utf-8"))
    assert any(isinstance(target, ast.Name) and target.id == "STREAM_VERSION"
               for node in seeds.body if isinstance(node, ast.Assign) for target in node.targets)


@pytest.mark.parametrize(
    "argv, amounts",
    [
        (["bessel", "--q", "2", "--mu", "3", "--grid", "0.5,1", "--n-samples", "100"],
         {"bessel.integral_mc.samples": 200, "bessel.series.points": 2}),
        (["dunkl", "--q", "2", "--grid", "8", "--n-samples", "10"],
         {"bessel.series.points": 10, "linalg.haar_batch.samples": 10}),
    ],
)
def test_benchmark_span_amounts_read_the_calls_arguments(tmp_path, argv, amounts):
    # the recorder reads each amount at a fixed position or keyword of the
    # wrapped call; a signature that moves it would misreport the work done
    spans = _spans()
    recorder = spans.Recorder()
    recorder.op = 0
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        recorder.uninstall()
    metrics = spans.layer_metrics(recorder, 1, 0.0, 0.0)
    assert {name: metrics[name] for name in amounts} == amounts


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


def test_the_package_never_loads_scipy(tmp_path):
    # scipy is needed only by the tests; with it a cold import of the
    # acceptance suite took 0.8 s and 100 MB, without it 0.16 s and 34.5 MB
    # (2-core x86-64 host)
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
        "import conebessel.acceptance\n"
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
