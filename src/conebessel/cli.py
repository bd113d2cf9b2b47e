"""Command-line front end.

Subcommands: bessel, dunkl, walk, lln, slln, ldp, check.  Each run takes
a flat JSON config file plus flag overrides, validates everything before
computing, and leaves two artifacts in the output directory: a CSV whose
first two lines carry the config hash with the stream version
(seeds.STREAM_VERSION) and the master seed, and a config echo JSON that
records the stream version and re-parses to the exact RunConfig used.
Identical (config, seed) pairs produce byte-identical CSVs.

Exit codes: 0 success, 1 acceptance-criterion failure (check only),
2 config or domain error (with file:line when the offender is a config
entry), 3 a series could not certify its tolerance (the message carries
the bound it did achieve).

Heavy imports happen inside the command handlers so that --threads (or
the CONEBESSEL_THREADS variable) can pin the BLAS thread count before
numpy first loads.  When the library is already imported the pin is a
no-op.  All file writes happen single-threaded at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    IllConditionedError,
    UnsupportedRankError,
)

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SCHEDULE_KEYS = ("mu_family", "mu_c", "mu_b", "n_family", "n_c", "n_b")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Flat description of one run; every field has a JSON-friendly type.

    `grid` is the per-subcommand abscissa list: x values for bessel,
    index values mu for dunkl, walk lengths k for lln, and rate-function
    arguments s for ldp.  It may be given as "start:stop:step" or as an
    explicit comma list / JSON array.  `atoms` holds one diagonal
    (length q) per atom of the step measure.
    """

    experiment: str | None = None
    q: int = 1
    d: int = 1
    mu: float | None = None
    mu_family: str = "pow2"
    mu_c: float = 1.0
    mu_b: float = 1.0
    n_family: str = "poly"
    n_c: float = 1.0
    n_b: float = 1.0
    weights: tuple = (1.0,)
    atoms: tuple = ((1.0,),)
    grid: tuple | None = None
    t_values: tuple = (-1.0, 1.0)
    epsilon: float = 0.1
    replicates: int = 200
    steps: int = 10
    k_max: int = 20
    n_samples: int = 100_000
    series_tol: float | None = None
    max_weight: int | None = None
    xi: tuple = ()
    eta: tuple = ()
    seed: int = 0
    out: str = "."

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key, val in d.items():
            if isinstance(val, tuple):
                d[key] = [list(v) if isinstance(v, tuple) else v for v in val]
        return d

    @classmethod
    def from_dict(cls, data: dict, path=None, raw_text=None) -> "RunConfig":
        """The config a JSON object describes.  A config echo also carries
        the stream version it was written under, which must be the current
        one; a hand-written config may leave it out."""
        from .seeds import STREAM_VERSION

        version = data.get("stream_version", STREAM_VERSION)
        if version != STREAM_VERSION:
            raise ConfigError(
                f"config was written under stream version {version!r}, but this "
                f"package draws version {STREAM_VERSION}",
                path=path,
                line=_find_key_line(raw_text, "stream_version"),
            )
        known = {f.name for f in dataclasses.fields(cls)}
        clean = {}
        for key, val in data.items():
            if key == "stream_version":
                continue
            if key not in known:
                raise ConfigError(
                    f"unknown config field {key!r}",
                    path=path,
                    line=_find_key_line(raw_text, key),
                )
            clean[key] = _normalize(val)
        try:
            return cls(**clean)
        except TypeError as exc:
            raise ConfigError(str(exc), path=path) from exc


def _normalize(val):
    """Lists become tuples (recursively) so RunConfig equality is plain."""
    if isinstance(val, (list, tuple)):
        return tuple(_normalize(v) for v in val)
    return val


def _find_key_line(raw_text, key):
    if raw_text is None:
        return None
    needle = f'"{key}"'
    for i, line in enumerate(raw_text.splitlines(), start=1):
        if needle in line:
            return i
    return None


def load_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", path=path) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object", path=path, line=1)
    return RunConfig.from_dict(data, path=path, raw_text=raw)


def _parse_floats(value, what: str) -> tuple:
    """A comma list (blank entries skipped) or a JSON array as a tuple of
    floats; anything that is not a number is a ConfigError."""
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [p for p in str(value).split(",") if p.strip() != ""]
    try:
        return tuple(float(v) for v in items)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {what} {value!r}: entries must be numbers") from exc


def parse_grid(text):
    """Accept "start:stop:step" (stop inclusive up to rounding) or a comma list."""
    if isinstance(text, (list, tuple)) or ":" not in str(text):
        return _parse_floats(text, "grid")
    pieces = str(text).strip().split(":")
    if len(pieces) != 3:
        raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
    start, stop, step = _parse_floats(pieces, "grid range")
    if step <= 0 or stop < start:
        raise ConfigError(f"empty grid range {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_atoms(text):
    """Atom list flag: diagonals separated by ';', entries by ','."""
    chunks = (c for c in str(text).split(";") if c.strip())
    return tuple(_parse_floats(c, "atom diagonal") for c in chunks)


def _apply_threads(flag_value):
    value = flag_value if flag_value is not None else os.environ.get("CONEBESSEL_THREADS")
    if value is None:
        return
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"thread count must be an integer, got {value!r}")
    if n < 1:
        raise ConfigError(f"thread count must be positive, got {n}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


_OVERRIDE_KEYS = (
    "q", "d", "mu", "mu_family", "mu_c", "mu_b", "n_family", "n_c", "n_b",
    "epsilon", "replicates", "steps", "k_max", "n_samples",
    "series_tol", "max_weight", "seed", "out",
)


def _merge_flags(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    for key in _OVERRIDE_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            updates[key] = val
    if getattr(args, "grid", None) is not None:
        updates["grid"] = parse_grid(args.grid)
    if getattr(args, "atoms", None) is not None:
        updates["atoms"] = _parse_atoms(args.atoms)
    for key in ("weights", "xi", "eta", "t_values"):
        val = getattr(args, key, None)
        if val is not None:
            updates[key] = _parse_floats(val, key)
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


class _Resolved:
    """Validated objects shared by the handlers; built before any compute."""

    def __init__(self, cfg: RunConfig, command: str):
        import numpy as np

        from .hypergroup import RadialLaw
        from .limits import Schedule, config_hash
        from .linalg import ConeMatrix, StructureParams
        from .seeds import STREAM_VERSION

        if cfg.experiment is not None and cfg.experiment != command:
            raise ConfigError(
                f"config names experiment {cfg.experiment!r} but the "
                f"{command!r} subcommand was invoked"
            )
        cfg = dataclasses.replace(cfg, experiment=command)
        for key in ("weights", "xi", "eta", "t_values"):
            _parse_floats(getattr(cfg, key), key)

        self.schedule = Schedule(**{k: getattr(cfg, k) for k in _SCHEDULE_KEYS})
        if command in ("lln", "slln", "ldp"):
            mu0 = cfg.mu if cfg.mu is not None else self.schedule.mu(cfg.k_max)
        else:
            if cfg.mu is None and command in ("bessel", "walk"):
                raise ConfigError(f"{command} requires mu (flag --mu or config field)")
            mu0 = cfg.mu
        grid = tuple(parse_grid(cfg.grid)) if cfg.grid is not None else None
        if command == "dunkl":
            # dunkl evaluates at the grid indices only and ignores a config mu
            if grid is None:
                grid = (64.0, 128.0, 256.0)
            mu0 = max(grid)
        self.params = StructureParams(q=cfg.q, d=cfg.d, mu=float(mu0))

        raw_atoms = cfg.atoms
        if raw_atoms == ((1.0,),) and cfg.q > 1:
            # default step measure: the identity atom at the current rank
            raw_atoms = ((1.0,) * cfg.q,)
            cfg = dataclasses.replace(cfg, atoms=raw_atoms)
        self.law = None
        if command in ("walk", "lln", "slln", "ldp"):
            atoms = []
            for diag in raw_atoms:
                entries = diag if isinstance(diag, tuple) else (diag,)
                if len(entries) != cfg.q:
                    raise ConfigError(
                        f"atom diagonal {list(entries)} needs exactly q={cfg.q} entries"
                    )
                atoms.append(ConeMatrix(np.diag(_parse_floats(entries, "atom diagonal"))))
            self.law = RadialLaw(weights=cfg.weights, atoms=tuple(atoms))

        cfg = dataclasses.replace(cfg, grid=grid, mu=float(mu0))
        self.cfg = cfg
        self.grid = grid
        self.echo = {**cfg.as_dict(), "stream_version": STREAM_VERSION}
        self.hash = config_hash(self.echo)

    def write_csv(self, name: str, columns: str, rows) -> str:
        from .limits import csv_text

        path = os.path.join(self.cfg.out, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text(self.hash, self.cfg.seed, columns, rows))
        return path

    def write_echo(self, name: str) -> str:
        path = os.path.join(self.cfg.out, f"{name}_config.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _g(x) -> str:
    return f"{float(x):.17g}"


def _series_kwargs(cfg: RunConfig) -> dict:
    kw = {}
    if cfg.series_tol is not None:
        kw["tol"] = cfg.series_tol
    if cfg.max_weight is not None:
        kw["max_weight"] = cfg.max_weight
    return kw


def _cmd_bessel(res: _Resolved):
    """Grid of J_mu values: certified series, ball-integral MC, and (at
    rank one) the classical one-variable column."""
    import numpy as np

    from .bessel import bessel_classical, bessel_integral_mc, bessel_series
    from .seeds import substream

    cfg = res.cfg
    grid = res.grid if res.grid is not None else parse_grid("0:4:0.25")
    rows = []
    for i, x in enumerate(grid):
        arg = (x * x / 4.0) * np.eye(cfg.q)
        val, tail = bessel_series(cfg.mu, arg, res.params, **_series_kwargs(cfg))
        half = (x / 2.0) * np.eye(cfg.q)
        mc, se = bessel_integral_mc(
            cfg.mu, half, res.params, cfg.n_samples, substream(cfg.seed, "bessel", i)
        )
        classical = ""
        if cfg.q == 1:
            cval, _ = bessel_classical(cfg.mu - 1.0, float(x))
            classical = _g(cval)
        rows.append(
            f"{_g(x)},{_g(val)},{_g(tail)},{_g(mc)},{_g(se)},{classical}"
        )
    path = res.write_csv("bessel", "x,series,series_tail,mc,mc_stderr,classical", rows)
    echo = res.write_echo("bessel")
    print(f"wrote {path} ({len(rows)} rows) and {echo}")


def _cmd_dunkl(res: _Resolved):
    """Chamber kernel values along a grid of indices, with the flat-limit
    reference and the normalized gap that should stay O(1)."""
    import numpy as np

    from .dunkl import ChamberPoint, bessel_B_mc, hyper_0F0
    from .seeds import substream

    cfg = res.cfg
    xi_vals = cfg.xi if cfg.xi else tuple(1.0 / (i + 1) for i in range(cfg.q))
    eta_vals = cfg.eta if cfg.eta else tuple(0.8 / (i + 1) for i in range(cfg.q))
    xi, eta = ChamberPoint(xi_vals), ChamberPoint(eta_vals)
    x2 = xi.array() ** 2
    e2 = eta.array() ** 2
    kw = _series_kwargs(cfg)
    a_limit, _ = hyper_0F0(2.0 / cfg.d, -x2, e2, **kw)
    envelope_scale = min(1.0, float(np.linalg.norm(x2) * np.linalg.norm(e2)) ** 2)
    rows = []
    for i, mu in enumerate(res.grid):
        b_val, se = bessel_B_mc(
            xi.scaled(2.0 * math.sqrt(mu)),
            eta,
            res.params.with_mu(mu),
            cfg.n_samples,
            substream(cfg.seed, "dunkl", i),
            **kw,
        )
        gap = abs(b_val - a_limit)
        envelope = envelope_scale / mu
        rows.append(
            f"{_g(mu)},{_g(b_val)},{_g(se)},{_g(a_limit)},{_g(gap)},{_g(envelope)}"
        )
    path = res.write_csv("dunkl", "mu,b_value,b_stderr,a_limit,gap,envelope", rows)
    echo = res.write_echo("dunkl")
    print(f"wrote {path} ({len(rows)} rows) and {echo}")


def _cmd_walk(res: _Resolved):
    """Replicate cone walks; one row per step with the upper-triangle
    coordinates of S_k (re/im pairs over the complex field) plus trace
    and Frobenius norm."""
    import numpy as np

    from .hypergroup import walk_batch
    from .seeds import substream

    cfg = res.cfg
    pairs = [(i, j) for i in range(cfg.q) for j in range(i, cfg.q)]
    if cfg.d == 1:
        coord_cols = [f"x_{i + 1}{j + 1}" for i, j in pairs]
    else:
        coord_cols = []
        for i, j in pairs:
            coord_cols += [f"x_{i + 1}{j + 1}_re", f"x_{i + 1}{j + 1}_im"]
    rngs = [substream(cfg.seed, "walk", rep) for rep in range(cfg.replicates)]
    # all steps run before any row is formatted, so a failing walk formats nothing
    history = list(walk_batch(res.law, res.params, cfg.steps, rngs))
    rows = []
    for rep in range(cfg.replicates):
        for step, states in enumerate(history):
            point = states[rep]
            a = point.array
            vals = []
            for i, j in pairs:
                vals.append(_g(np.real(a[i, j])))
                if cfg.d == 2:
                    vals.append(_g(np.imag(a[i, j])))
            vals += [_g(point.trace()), _g(point.norm())]
            rows.append(f"{rep},{step}," + ",".join(vals))
    header = "replicate,k," + ",".join(coord_cols) + ",tr,norm"
    path = res.write_csv("walk", header, rows)
    echo = res.write_echo("walk")
    print(f"wrote {path} ({cfg.replicates} paths x {cfg.steps} steps) and {echo}")


def _cmd_lln(res: _Resolved):
    """Weak-law tail probabilities along a grid of walk lengths."""
    from .limits import REPORT_COLUMNS, wlln_experiment

    cfg = res.cfg
    k_grid = tuple(int(k) for k in (res.grid or (25.0, 100.0, 400.0)))
    report = wlln_experiment(
        res.law, res.params, res.schedule, k_grid, cfg.replicates, cfg.epsilon, cfg.seed
    )
    path = res.write_csv("lln", REPORT_COLUMNS, report.csv_rows())
    echo = res.write_echo("lln")
    print(f"wrote {path} ({len(report.rows)} rows) and {echo}")


def _cmd_slln(res: _Resolved):
    """One strong-law path per seeded replicate plus schedule diagnostics."""
    from .limits import REPORT_COLUMNS, slln_experiment

    cfg = res.cfg
    report = slln_experiment(res.law, res.params, res.schedule, cfg.k_max, cfg.seed)
    path = res.write_csv("slln", REPORT_COLUMNS, report.csv_rows())
    echo = res.write_echo("slln")
    for diag in report.diagnostics:
        print(f"schedule condition {diag.name}: {diag.verdict}")
    print(f"wrote {path} ({len(report.rows)} rows) and {echo}")


def _cmd_ldp(res: _Resolved):
    """Empirical free energy at the last index, its limit, and the rate
    function on a grid."""
    from .limits import free_energy_empirical, free_energy_limit, rate_function

    cfg = res.cfg
    k = cfg.k_max
    mu_k = res.schedule.mu(k)
    n_k = res.schedule.n(k)
    rows = []
    warned = False
    for t in cfg.t_values:
        c_k, se = free_energy_empirical(
            res.law, res.params, mu_k, n_k, float(t), cfg.replicates, cfg.seed
        )
        c_lim = free_energy_limit(res.law, res.params, float(t))
        if se > 0.2 * max(abs(c_k), 1e-12):
            warned = True
        rows.append(f"c_k,{_g(t)},{_g(c_k)},{_g(se)}")
        rows.append(f"c_limit,{_g(t)},{_g(c_lim)},0")
    s_grid = res.grid if res.grid is not None else parse_grid("0.1:0.9:0.1")
    for s in s_grid:
        val = rate_function(res.law, res.params, float(s))
        out = "inf" if math.isinf(val) else _g(val)
        rows.append(f"rate,{_g(s)},{out},0")
    path = res.write_csv("ldp", "kind,arg,value,stderr", rows)
    echo = res.write_echo("ldp")
    if warned:
        print(
            "warning: free-energy standard error above 20% of the value; "
            "increase replicates",
            file=sys.stderr,
        )
    print(f"wrote {path} ({len(rows)} rows) and {echo}")


def _cmd_check(args) -> int:
    """Run the full acceptance suite and print one line per criterion."""
    from . import acceptance

    failures = 0
    total = 0
    for result in acceptance.run_all():
        total += 1
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"{status}  {result.name:32s} [{result.seconds:7.1f}s] {result.detail}")
    print(f"{total - failures}/{total} criteria passed")
    return 0 if failures == 0 else 1


_HANDLERS = {
    "bessel": _cmd_bessel,
    "dunkl": _cmd_dunkl,
    "walk": _cmd_walk,
    "lln": _cmd_lln,
    "slln": _cmd_slln,
    "ldp": _cmd_ldp,
}


# each subcommand takes the common flags plus exactly the ones its run reads
_COMMON_FLAGS = "--config --seed --out --threads --q --d"
_SUBCOMMANDS = {
    "bessel": ("evaluate the matrix Bessel function on a grid",
               "--mu --grid --n-samples --series-tol --max-weight"),
    "dunkl": ("chamber kernel values and flat-limit gaps",
              "--grid --n-samples --series-tol --max-weight --xi --eta"),
    "walk": ("simulate cone walks to CSV", "--mu --replicates --weights --atoms --steps"),
    "lln": ("weak-law tail probabilities",
            "--grid --replicates --weights --atoms --mu-family --mu-c --mu-b --epsilon"),
    "slln": ("strong-law single-path deviations",
             "--weights --atoms --mu-family --mu-c --mu-b --n-family --n-c --n-b --k-max"),
    "ldp": ("free energy and rate function",
            "--grid --replicates --weights --atoms --mu-family --mu-c --mu-b "
            "--n-family --n-c --n-b --k-max --t-values"),
}

_FLAG_SPECS = {
    "--config": dict(help="flat JSON config file"),
    "--seed": dict(type=int, help="master seed (unsigned 64-bit)"),
    "--out": dict(help="output directory"),
    "--threads": dict(help="BLAS thread count (or CONEBESSEL_THREADS)"),
    "--q": dict(type=int, help="matrix rank"),
    "--d": dict(type=int, choices=(1, 2), help="field dimension: 1 real, 2 complex"),
    "--mu": dict(type=float, help="cone index"),
    "--grid": dict(help='abscissa grid, "start:stop:step" or comma list'),
    "--replicates": dict(type=int),
    "--n-samples": dict(type=int, help="Monte Carlo sample count"),
    "--series-tol": dict(type=float),
    "--max-weight": dict(type=int),
    "--weights": dict(help="comma list of atom weights"),
    "--atoms": dict(help="atom diagonals: entries comma-separated, atoms ';'-separated"),
    "--mu-family": dict(choices=("poly", "pow2")),
    "--mu-c": dict(type=float),
    "--mu-b": dict(type=float),
    "--n-family": dict(choices=("poly", "polylog")),
    "--n-c": dict(type=float),
    "--n-b": dict(type=float),
    "--k-max": dict(type=int),
    "--xi": dict(help="comma list, strictly positive decreasing"),
    "--eta": dict(help="comma list, strictly positive decreasing"),
    "--steps": dict(type=int, help="steps per path"),
    "--epsilon": dict(type=float, help="deviation threshold"),
    "--t-values": dict(help="comma list of tilt parameters"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each build leaves
    a reference cycle that only the cyclic garbage collector frees."""
    parser = argparse.ArgumentParser(
        prog="conebessel",
        allow_abbrev=False,
        description="Matrix-cone Bessel functions, radial walks, and their limit theorems.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in f"{_COMMON_FLAGS} {flags}".split():
            cmd.add_argument(flag, **_FLAG_SPECS[flag])
    check = sub.add_parser("check", help="run the acceptance suite", allow_abbrev=False)
    check.add_argument("--threads", **_FLAG_SPECS["--threads"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        _apply_threads(getattr(args, "threads", None))
        if args.command == "check":
            return _cmd_check(args)
        cfg = load_config_file(args.config) if args.config else RunConfig()
        cfg = _merge_flags(cfg, args)
        res = _Resolved(cfg, args.command)
        os.makedirs(res.cfg.out, exist_ok=True)
        _HANDLERS[args.command](res)
        return 0
    except ConfigError as exc:
        where = ""
        if exc.path is not None:
            where = f"{exc.path}:{exc.line}: " if exc.line else f"{exc.path}: "
        print(f"config error: {where}{exc}", file=sys.stderr)
        return 2
    except (DomainError, DimensionError, IllConditionedError, UnsupportedRankError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(
            f"convergence failure: {exc} (certified bound achieved: "
            f"{exc.achieved_bound:.6e})",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
