"""Command-line behavior: config validation, artifacts, exit codes.

Everything drives cli.main(argv) in-process; no subprocesses needed.
"""

import json
import math
import os
import warnings

import pytest

from conebessel import acceptance, cli
from conebessel.errors import ConfigError
from conebessel.seeds import STREAM_VERSION


# -------------------------------------------------------------- config layer


def test_parse_grid_range_and_list():
    g = cli.parse_grid("0:4:0.25")
    assert len(g) == 17
    assert g[0] == 0.0 and g[-1] == pytest.approx(4.0)
    assert cli.parse_grid("1,2.5, 4") == (1.0, 2.5, 4.0)
    assert cli.parse_grid([1, 2]) == (1.0, 2.0)
    with pytest.raises(ConfigError):
        cli.parse_grid("0:4")
    with pytest.raises(ConfigError):
        cli.parse_grid("4:0:1")
    with pytest.raises(ConfigError):
        cli.parse_grid("a,b")


def test_unknown_config_field_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "q": 1,\n  "d": 1,\n  "bogus": 3\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        cli.load_config_file(p)
    assert err.value.line == 4
    assert err.value.path == p


def test_config_file_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        cli.load_config_file(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text('{\n "q": 1,,\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        cli.load_config_file(bad)
    assert err.value.line == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.load_config_file(lst)


def test_run_config_normalizes_lists():
    cfg = cli.RunConfig.from_dict({"atoms": [[1.0, 0.5]], "weights": [1.0]})
    assert cfg.atoms == ((1.0, 0.5),)
    assert cfg.weights == (1.0,)
    back = cfg.as_dict()
    assert back["atoms"] == [[1.0, 0.5]]


def test_config_from_another_stream_version_is_refused(tmp_path):
    # an echo carries its stream version; only the current one re-parses
    assert cli.RunConfig.from_dict({"q": 2, "stream_version": STREAM_VERSION}).q == 2
    p = tmp_path / "old.json"
    p.write_text('{\n  "q": 2,\n  "stream_version": 1\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="stream version 1") as err:
        cli.load_config_file(p)
    assert err.value.line == 3


def test_apply_threads_flag_env_and_validation(monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delenv("CONEBESSEL_THREADS", raising=False)
    cli._apply_threads(None)  # nothing set, nothing touched
    assert "OMP_NUM_THREADS" not in os.environ

    monkeypatch.setenv("CONEBESSEL_THREADS", "3")
    cli._apply_threads(None)
    assert os.environ["OMP_NUM_THREADS"] == "3"
    cli._apply_threads("2")  # the flag wins over the environment
    assert all(os.environ[v] == "2" for v in cli._THREAD_VARS)
    with pytest.raises(ConfigError):
        cli._apply_threads("zero")
    with pytest.raises(ConfigError):
        cli._apply_threads("0")


# ------------------------------------------------------------------ bessel


def test_bessel_grid_run_matches_classical_column(tmp_path, capsys):
    rc = cli.main(
        [
            "bessel", "--q", "1", "--d", "1", "--mu", "5",
            "--grid", "0:4:0.25", "--n-samples", "2000",
            "--seed", "1", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "bessel.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "# seed=1"
    assert lines[2] == "x,series,series_tail,mc,mc_stderr,classical"
    rows = [ln.split(",") for ln in lines[3:]]
    assert len(rows) == 17
    for row in rows:
        series, classical = float(row[1]), float(row[5])
        assert abs(series - classical) <= 1e-9
    assert "wrote" in capsys.readouterr().out


def test_bessel_echo_reparses_to_the_same_config(tmp_path):
    rc = cli.main(
        [
            "bessel", "--q", "1", "--d", "1", "--mu", "3",
            "--grid", "0:1:0.5", "--n-samples", "500",
            "--seed", "2", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    echo = json.loads((tmp_path / "bessel_config.json").read_text())
    cfg2 = cli.RunConfig.from_dict(echo)
    res2 = cli._Resolved(cfg2, "bessel")
    assert res2.cfg == cfg2  # resolving an echoed config is a fixed point
    assert echo["stream_version"] == STREAM_VERSION
    header = (tmp_path / "bessel.csv").read_text().splitlines()[0]
    assert header == f"# config_hash={res2.hash} stream_version={STREAM_VERSION}"


def test_identical_runs_are_byte_identical(tmp_path):
    # identical (config, seed) must reproduce the artifacts byte for byte;
    # the output directory is part of the config, so reuse it
    argv = [
        "bessel", "--q", "1", "--d", "1", "--mu", "3",
        "--grid", "0:1:0.5", "--n-samples", "500", "--seed", "2",
        "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    csv1 = (tmp_path / "bessel.csv").read_bytes()
    echo1 = (tmp_path / "bessel_config.json").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "bessel.csv").read_bytes() == csv1
    assert (tmp_path / "bessel_config.json").read_bytes() == echo1


_SMALL_RUNS = (
    ("bessel", "--mu", "3", "--grid", "0.5", "--n-samples", "100"),
    ("dunkl", "--grid", "8", "--n-samples", "10"),
    ("walk", "--mu", "3", "--replicates", "2", "--steps", "2"),
    ("lln", "--grid", "2", "--replicates", "2"),
    ("slln", "--k-max", "3"),
    ("ldp", "--atoms", "0;1", "--weights", "0.5,0.5", "--k-max", "3",
     "--replicates", "4", "--t-values", "0", "--grid", "0.5"),
)


@pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda a: a[0])
def test_csv_header_carries_the_echo_hash(tmp_path, argv):
    from conebessel.limits import config_hash

    rc = cli.main([*argv, "--q", "1", "--d", "1", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    name = argv[0]
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    echo = json.loads((tmp_path / f"{name}_config.json").read_text())
    assert lines[0] == f"# config_hash={config_hash(echo)} stream_version={STREAM_VERSION}"
    assert lines[1] == "# seed=3"


# --------------------------------------------------------------- exit codes


def test_no_command_exits_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_unknown_field_exits_two_with_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "bogus": 3\n}\n', encoding="utf-8")
    rc = cli.main(["bessel", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{p}:2" in err


def test_experiment_mismatch_exits_two(tmp_path, capsys):
    p = tmp_path / "walk.json"
    p.write_text(json.dumps({"experiment": "walk", "mu": 4.0}), encoding="utf-8")
    assert cli.main(["bessel", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "experiment" in capsys.readouterr().err


def test_missing_mu_exits_two(tmp_path, capsys):
    assert cli.main(["bessel", "--q", "1", "--d", "1", "--out", str(tmp_path)]) == 2
    assert "requires mu" in capsys.readouterr().err


def test_domain_error_exits_two(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"d": 4, "mu": 9.0}), encoding="utf-8")
    assert cli.main(["bessel", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_wrong_atom_length_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["walk", "--q", "2", "--d", "1", "--mu", "4", "--atoms", "1,0.5,0.2",
         "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "q=2" in capsys.readouterr().err


def test_uncertifiable_series_exits_three(tmp_path, capsys):
    rc = cli.main(
        ["bessel", "--q", "1", "--d", "1", "--mu", "5", "--grid", "8",
         "--max-weight", "3", "--n-samples", "100", "--out", str(tmp_path)]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "convergence failure" in err
    assert "certified bound achieved" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--mu", "6", "--weights", "0.5,abc"],
        ["walk", "--mu", "6", "--atoms", "1,x"],
        ["dunkl", "--q", "2", "--xi", "1,b"],
        ["ldp", "--t-values", "1,z"],
        ["bessel", "--mu", "3", "--grid", "1:a:2"],
    ],
)
def test_malformed_list_value_exits_two(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert "entries must be numbers" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("field", ["grid", "weights", "t_values", "atoms"])
def test_malformed_config_list_exits_two(tmp_path, capsys, field):
    p = tmp_path / "c.json"
    value = [["a"]] if field == "atoms" else [1, "a"]
    p.write_text(json.dumps({field: value}), encoding="utf-8")
    assert cli.main(["ldp", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "entries must be numbers" in capsys.readouterr().err


def test_overflowing_walk_exits_two_without_csv(tmp_path, capsys):
    rc = cli.main(["walk", "--q", "1", "--mu", "6", "--atoms", "1e200", "--out", str(tmp_path)])
    assert rc == 2
    assert "matrix entries must be finite" in capsys.readouterr().err
    assert not (tmp_path / "walk.csv").exists()


def test_walk_norm_of_a_huge_state_is_finite(tmp_path, capsys):
    # the sum of squares overflows; the norm column must not read inf
    argv = ["walk", "--q", "1", "--mu", "6", "--atoms", "1e200", "--steps", "1",
            "--replicates", "1", "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    row = (tmp_path / "walk.csv").read_text().splitlines()[4]
    assert row == "0,1,9.9999999999999997e+199,9.9999999999999997e+199,9.9999999999999997e+199"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the series overflows to nan long before its tail certifies
        (["--q", "1", "--mu", "2", "--grid", "22", "--max-weight", "2000"],
         "partial sum is not finite"),
    ],
)
def test_unusable_bessel_values_exit_three(tmp_path, capsys, argv, message):
    assert cli.main(["bessel", *argv, "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bessel.csv").exists()


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["walk", "--q", "1", "--mu", "6", "--atoms", "1e200"], 2, "config error: "),
        (["bessel", "--q", "1", "--mu", "2", "--grid", "22", "--max-weight", "2000"], 3,
         "convergence failure: "),
    ],
)
def test_failing_run_prints_only_its_error_line(tmp_path, capsys, argv, code, prefix):
    # the overflow behind each failure raises no numpy warning ahead of
    # the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([*argv, "--out", str(tmp_path)]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


def test_argparse_rejects_bad_field_choice():
    with pytest.raises(SystemExit):
        cli.main(["bessel", "--d", "3"])


# flags that a subcommand's handler would never read
_UNREAD_FLAGS = {
    "bessel": ("--replicates", "--weights", "--atoms"),
    "dunkl": ("--mu", "--replicates", "--weights", "--atoms"),
    "walk": ("--grid", "--n-samples", "--series-tol", "--max-weight"),
    "lln": ("--mu", "--k-max", "--n-family", "--n-c", "--n-b", "--n-samples",
            "--series-tol", "--max-weight"),
    "slln": ("--mu", "--grid", "--replicates", "--n-samples", "--series-tol", "--max-weight"),
    "ldp": ("--mu", "--n-samples", "--series-tol", "--max-weight"),
}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in _UNREAD_FLAGS.items() for f in flags]
)
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "unrecognized" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["walk", "--q", "1", "--mu", "6", "--rep", "3", "--steps", "1"], "--rep 3"),
        (["lln", "--mu", "1"], "--mu 1"),  # beside --mu-family, --mu-c and --mu-b
    ],
)
def test_flag_prefixes_are_not_expanded(tmp_path, capsys, argv, unknown):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_dunkl_ignores_a_config_mu(tmp_path, capsys):
    # dunkl evaluates at its grid indices only: a config mu below rho - 1
    # runs, and leaves the CSV body and the echo as they are without it
    outputs = []
    for extra in ({}, {"mu": 1.0}):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"q": 3, **extra}), encoding="utf-8")
        argv = ["dunkl", "--config", str(p), "--grid", "8", "--n-samples", "10",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        csv = (tmp_path / "dunkl.csv").read_text().split("\n", 1)[1]
        outputs.append((csv, (tmp_path / "dunkl_config.json").read_text()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["mu"] == 8.0
    capsys.readouterr()


# ------------------------------------------------------------- other commands


def test_walk_csv_shape(tmp_path):
    rc = cli.main(
        ["walk", "--q", "2", "--d", "1", "--mu", "4", "--steps", "3",
         "--replicates", "2", "--seed", "6", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "walk.csv").read_text().splitlines()
    assert lines[2] == "replicate,k,x_11,x_12,x_22,tr,norm"
    assert len(lines) == 3 + 2 * 4  # two paths, steps 0..3 each
    first = lines[3].split(",")
    assert first[:2] == ["0", "0"]
    assert all(float(v) == 0.0 for v in first[2:])  # walk starts at the origin
    row = lines[4].split(",")
    x11, x12, x22, tr, nrm = map(float, row[2:])
    assert tr == pytest.approx(x11 + x22, rel=1e-12)
    assert nrm == pytest.approx(math.hypot(x11, x22, x12, x12), rel=1e-12)


def test_walk_runs_where_rejection_sampling_could_not(tmp_path, capsys):
    # q=3, d=2 with mu - rho = 0.3: no proposal of the old rejection
    # sampler was accepted there
    assert cli.main(["walk", "--q", "3", "--d", "2", "--mu", "6.3", "--out", str(tmp_path)]) == 0
    # the default 200 replicates of 10 steps, S_0 included
    assert len((tmp_path / "walk.csv").read_text().splitlines()) == 3 + 200 * 11
    capsys.readouterr()


def test_bessel_mc_matches_series_where_importance_weights_vanished(tmp_path, capsys):
    # q=3, d=2, mu = rho: the old importance weights summed to zero here
    rc = cli.main(["bessel", "--q", "3", "--d", "2", "--mu", "6", "--grid", "0.5",
                   "--out", str(tmp_path)])
    assert rc == 0
    row = (tmp_path / "bessel.csv").read_text().splitlines()[3].split(",")
    series, tail, mc, se = map(float, row[1:5])
    assert abs(mc - series) <= 4.0 * se + tail
    capsys.readouterr()


def test_walk_csv_complex_field_column_count(tmp_path):
    # d=2 stores re/im per upper-triangle entry; diagonal im columns are 0
    rc = cli.main(
        ["walk", "--q", "2", "--d", "2", "--mu", "6", "--steps", "2",
         "--replicates", "1", "--seed", "6", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "walk.csv").read_text().splitlines()
    header = lines[2].split(",")
    assert header[:2] == ["replicate", "k"] and header[-2:] == ["tr", "norm"]
    assert len(header) == 2 + 2 * 3 + 2  # q(q+1)/2 * d coordinates
    for ln in lines[3:]:
        vals = ln.split(",")
        assert float(vals[header.index("x_11_im")]) == 0.0
        assert float(vals[header.index("x_22_im")]) == 0.0


def test_lln_command_writes_report(tmp_path):
    rc = cli.main(
        ["lln", "--q", "1", "--d", "1", "--grid", "4,8", "--replicates", "20",
         "--epsilon", "0.3", "--seed", "5", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "lln.csv").read_text().splitlines()
    assert lines[2].startswith("experiment,")
    assert len(lines) == 5
    assert all(ln.split(",")[0] == "wlln" for ln in lines[3:])


def test_slln_command_prints_diagnostics(tmp_path, capsys):
    rc = cli.main(
        ["slln", "--q", "1", "--d", "1", "--k-max", "5", "--seed", "4",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("diverging") == 3
    assert (tmp_path / "slln.csv").exists()


def test_ldp_command_values(tmp_path):
    rc = cli.main(
        ["ldp", "--q", "1", "--d", "1", "--atoms", "0;1", "--weights", "0.5,0.5",
         "--k-max", "6", "--replicates", "60", "--t-values=-1,0.5",
         "--grid", "0.5", "--seed", "9", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = {}
    for ln in (tmp_path / "ldp.csv").read_text().splitlines()[3:]:
        kind, arg, value, _ = ln.split(",")
        rows[(kind, float(arg))] = value
    for t in (-1.0, 0.5):
        want = math.log((1.0 + math.exp(t)) / 2.0)
        assert float(rows[("c_limit", t)]) == pytest.approx(want, rel=1e-12)
    assert abs(float(rows[("rate", 0.5)])) <= 1e-6


def test_ldp_reports_infinite_rate(tmp_path):
    rc = cli.main(
        ["ldp", "--q", "1", "--d", "1", "--atoms", "0;1", "--weights", "0.5,0.5",
         "--k-max", "5", "--replicates", "30", "--t-values", "0",
         "--grid", "1.5", "--seed", "9", "--out", str(tmp_path)]
    )
    assert rc == 0
    body = (tmp_path / "ldp.csv").read_text()
    assert "rate,1.5,inf,0" in body


# -------------------------------------------------------------------- check


def _fake_criteria(*verdicts):
    return tuple(
        (f"crit_{i}", (lambda v: (lambda: (v, f"detail {v}")))(v))
        for i, v in enumerate(verdicts)
    )


def test_check_exit_codes_and_lines(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", _fake_criteria(True, True))
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "2/2 criteria passed" in out

    monkeypatch.setattr(acceptance, "CRITERIA", _fake_criteria(True, False))
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1/2 criteria passed" in out
