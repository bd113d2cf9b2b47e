import itertools
import json
import math
from collections import Counter
from pathlib import Path

import pytest

import workloads
from run import E2E_UNITS
from spans import per_layer_units

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _argv(name, seed, n):
    return [op.argv for op in itertools.islice(workloads.ops(name, seed), n)]


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    assert _argv(name, 3, 12) == _argv(name, 3, 12)
    assert _argv(name, 3, 12) != _argv(name, 4, 12)
    assert [op.argv for op in workloads.warmup(name, 3)] == [
        op.argv for op in workloads.warmup(name, 3)
    ]


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_generated_args_parse_and_name_their_seed(name):
    from conebessel.cli import build_parser

    parser = build_parser()
    for op in itertools.islice(workloads.ops(name, 1), 8):
        args = parser.parse_args(list(op.argv) + ["--out", "unused"])
        assert args.command == op.argv[0]
        assert args.seed is not None
        assert op.work > 0


def test_every_seed_runs_the_same_mix_of_shapes():
    def shapes(seed):
        out = Counter()
        for argv in _argv("ballmc", seed, 40):
            out[(argv[argv.index("--q") + 1], argv[argv.index("--d") + 1])] += 1
        return out

    assert shapes(1) == shapes(2) == Counter({k: 10 for k in shapes(1)})
    mus = Counter(argv[argv.index("--mu") + 1] for argv in _argv("walk", 5, 40))
    assert set(mus.values()) == {10}
    fields = [argv[argv.index("--d") + 1] for argv in _argv("chamber", 5, 6)]
    assert fields == ["1", "2"] * 3


def test_harish_chandra_matches_the_package_closed_form():
    from conebessel.dunkl import harish_chandra_exact

    x2, e2 = (0.9, 0.3, 0.1), (0.6, 0.2, 0.05)
    assert workloads.harish_chandra(x2, e2) == pytest.approx(harish_chandra_exact(x2, e2), rel=1e-9)


def test_free_energy_check_accepts_exact_and_rejects_a_wrong_rate():
    grid = (0.2, 0.5)
    rows = []
    for t in workloads.FE_T:
        c = workloads.fair_bernoulli_free_energy(t)
        rows += [f"c_k,{t!r},{c!r},0.01", f"c_limit,{t!r},{c!r},0"]
    good = rows + [f"rate,{s!r},{workloads.fair_bernoulli_rate(s)!r},0" for s in grid]
    header = "# config_hash=0\n# seed=0\nkind,arg,value,stderr\n"
    assert workloads.check_free_energy(grid, header + "\n".join(good)) is None
    bad = good[:-1] + [f"rate,0.5,{math.log(2.0)!r},0"]
    assert "rate(0.5)" in workloads.check_free_energy(grid, header + "\n".join(bad))


def test_benchmark_json_lists_what_the_runner_reports():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == per_layer_units()
