"""Package metadata, the lazy top-level exports and the names the
traced benchmark run patches."""

import importlib
import importlib.util
import re
from pathlib import Path

import conebessel

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
