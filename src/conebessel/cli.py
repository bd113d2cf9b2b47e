"""Command-line front end.

Subcommands: bessel, dunkl, walk, lln, slln, ldp, check.  _SUBCOMMANDS
names the RunConfig fields each run reads; those fields, and no others,
are its flags and the config-file fields it takes (a known field it does
not read is dropped with a note).  Each run validates everything before
computing, and leaves two artifacts in the output directory: a CSV whose
first two lines carry the config hash with the stream version
(seeds.STREAM_VERSION) and the master seed, and a config echo JSON that
holds the stream version and the fields read, and re-parses to itself.
The config hash covers the echo without `out`, so identical (config,
seed) pairs produce byte-identical CSVs in any output directory.

Exit codes: 0 success, 1 acceptance-criterion failure (check only),
2 config or domain error (with file:line when the offender is a config
entry), 3 a series could not certify its tolerance (the message carries
the bound it did achieve).

Heavy imports happen inside the command handlers so that --threads can
pin the BLAS thread count before numpy first loads.  When the library is
already imported the pin is a no-op.  All file writes happen
single-threaded at the end.
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


def load_config_file(path, command=None) -> RunConfig:
    """The config a JSON file describes.  For a subcommand, a known field it
    does not read is dropped, unvalidated and unhashed, with one note."""
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
    if command is not None:
        reads = {"experiment", *_SUBCOMMANDS[command][3]}
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unread = [key for key in data if key in known - reads]
        if unread:
            print(f"note: {command} does not read config field(s) {', '.join(unread)}; "
                  "ignored", file=sys.stderr)
            data = {key: val for key, val in data.items() if key not in unread}
    return RunConfig.from_dict(data, path=path, raw_text=raw)


def _parse_floats(value, what: str) -> tuple:
    """A comma list (blank entries skipped) or a JSON array as a tuple of
    floats; anything that is not a finite number is a ConfigError."""
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [p for p in str(value).split(",") if p.strip() != ""]
    try:
        floats = tuple(float(v) for v in items)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {what} {value!r}: entries must be numbers") from exc
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"{what} {value!r} has a non-finite entry")
    return floats


def parse_grid(text):
    """Accept "start:stop:step" (stop inclusive up to rounding) or a comma list."""
    if isinstance(text, (list, tuple)) or ":" not in str(text):
        grid = _parse_floats(text, "grid")
        if not grid:
            raise ConfigError(f"empty grid {text!r}")
        return grid
    pieces = str(text).strip().split(":")
    if len(pieces) != 3:
        raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
    start, stop, step = _parse_floats(pieces, "grid range")
    if step <= 0 or stop < start:
        raise ConfigError(f"empty grid range {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_atoms(value):
    """Atom diagonals: a list of lists (a bare number is a rank-one
    diagonal), or text with diagonals separated by ';', entries by ','."""
    if not isinstance(value, (list, tuple)):
        value = [c for c in str(value).split(";") if c.strip()]
    return tuple(
        _parse_floats(c if isinstance(c, (list, tuple, str)) else (c,), "atom diagonal")
        for c in value
    )


def _number(key: str, kind, low=-math.inf, high=math.inf):
    """Parser of a scalar field: a `kind` (an int passes as a float) in
    [low, high), or None where that is the field's default."""

    def parse(value):
        if value is None and getattr(RunConfig, key) is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, kind)) or not low <= value < high:
            raise ConfigError(f"{key} must be {kind.__name__} in [{low}, {high}), got {value!r}")
        return kind(value)

    return parse


def _apply_threads(value):
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


class _Resolved:
    """The validated config of one run and the objects its handler uses,
    built from the fields the subcommand reads, before any compute."""

    def __init__(self, cfg: RunConfig, command: str):
        import hashlib

        import numpy as np

        from .hypergroup import RadialLaw
        from .limits import Schedule
        from .linalg import StructureParams
        from .seeds import STREAM_VERSION

        _, _, grid_default, reads = _SUBCOMMANDS[command]
        if cfg.experiment not in (None, command):
            raise ConfigError(f"config names experiment {cfg.experiment!r} but the "
                              f"{command!r} subcommand was invoked")
        if cfg.grid is None:
            cfg = dataclasses.replace(cfg, grid=grid_default)
        parsed = {key: _PARSERS[key](getattr(cfg, key)) for key in reads if key in _PARSERS}
        cfg = dataclasses.replace(cfg, experiment=command, **parsed)

        keys = [f.name for f in dataclasses.fields(Schedule) if f.name in reads]
        self.schedule = Schedule(**{k: getattr(cfg, k) for k in keys}) if keys else None
        # the indices the run evaluates at, each checked here: its mu,
        # dunkl's grid of indices, or the schedule's index at k_max (slln,
        # ldp) or at each of lln's walk lengths
        if "mu" in reads:
            if cfg.mu is None:
                raise ConfigError(f"{command} requires mu (flag --mu or config field)")
            indices = (cfg.mu,)
        elif self.schedule is None:
            indices = cfg.grid
        else:
            lengths = (cfg.k_max,) if "k_max" in reads else cfg.grid
            for k in lengths:
                if not float(k).is_integer():
                    raise ConfigError(f"walk lengths must be whole numbers, got {k!r}")
                if k < 1:
                    raise ConfigError(f"walk lengths must be at least 1, got {k!r}")
            # lln and ldp report a standard error over the replicates
            if "replicates" in reads and cfg.replicates < 2:
                raise ConfigError(f"{command} needs replicates >= 2, got {cfg.replicates}")
            indices = tuple(self.schedule.mu(int(k)) for k in lengths)
        for mu in indices:
            self.params = StructureParams(q=cfg.q, d=cfg.d, mu=mu)

        self.law = None
        if "atoms" in reads:
            if cfg.atoms == ((1.0,),) and cfg.q > 1:
                # default step measure: the identity atom at the current rank
                cfg = dataclasses.replace(cfg, atoms=((1.0,) * cfg.q,))
            for diag in cfg.atoms:
                if len(diag) != cfg.q:
                    raise ConfigError(f"atom diagonal {list(diag)} needs exactly q={cfg.q} entries")
            atoms = tuple(np.diag(diag) for diag in cfg.atoms)
            self.law = RadialLaw(weights=cfg.weights, atoms=atoms)
        for key in ("xi", "eta"):
            point = getattr(cfg, key)
            # an empty point is dunkl's default, built at rank q
            if key in reads and point and len(point) != cfg.q:
                raise ConfigError(f"{key} {list(point)} needs exactly q={cfg.q} entries")

        self.cfg = cfg
        echo = {k: v for k, v in cfg.as_dict().items() if k == "experiment" or k in reads}
        self.echo = {**echo, "stream_version": STREAM_VERSION}
        # where the files go is not what they hold: the hash leaves out `out`
        canon = json.dumps({k: v for k, v in self.echo.items() if k != "out"},
                           sort_keys=True, separators=(",", ":"))
        self.hash = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def write(self, columns: str, rows: list, size: str | None = None):
        """Write the CSV (a line with the config hash and the stream
        version, the master seed line, the column header and the rows) and
        the config echo, both named after the subcommand."""
        stem = os.path.join(self.cfg.out, self.cfg.experiment)
        head = f"# config_hash={self.hash} stream_version={self.echo['stream_version']}"
        with open(f"{stem}.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([head, f"# seed={self.cfg.seed}", columns, *rows]) + "\n")
        with open(f"{stem}_config.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {stem}.csv ({size or f'{len(rows)} rows'}) and {stem}_config.json")


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
    from .seeds import substreams

    cfg = res.cfg
    rows = []
    for x, rng in zip(cfg.grid, substreams(cfg.seed, "bessel", range(len(cfg.grid)))):
        arg = (x * x / 4.0) * np.eye(cfg.q)
        val, tail = bessel_series(arg, res.params, **_series_kwargs(cfg))
        half = (x / 2.0) * np.eye(cfg.q)
        mc, se = bessel_integral_mc(half, res.params, n_samples=cfg.n_samples, rng=rng)
        classical = ""
        if cfg.q == 1:
            cval, _ = bessel_classical(cfg.mu - 1.0, float(x))
            classical = _g(cval)
        rows.append(
            f"{_g(x)},{_g(val)},{_g(tail)},{_g(mc)},{_g(se)},{classical}"
        )
    res.write("x,series,series_tail,mc,mc_stderr,classical", rows)


def _cmd_dunkl(res: _Resolved):
    """Chamber kernel values along a grid of indices, with the flat-limit
    reference and the normalized gap that should stay O(1)."""
    import numpy as np

    from .dunkl import ChamberPoint, bessel_B_mc, hyper_0F0
    from .seeds import substreams

    cfg = res.cfg
    xi_vals = cfg.xi if cfg.xi else tuple(1.0 / (i + 1) for i in range(cfg.q))
    eta_vals = cfg.eta if cfg.eta else tuple(0.8 / (i + 1) for i in range(cfg.q))
    xi, eta = ChamberPoint(xi_vals), ChamberPoint(eta_vals)
    x2 = xi.array() ** 2
    e2 = eta.array() ** 2
    kw = _series_kwargs(cfg)
    a_limit, _ = hyper_0F0(res.params.alpha, -x2, e2, **kw)
    envelope_scale = min(1.0, float(np.linalg.norm(x2) * np.linalg.norm(e2)) ** 2)
    rows = []
    for mu, rng in zip(cfg.grid, substreams(cfg.seed, "dunkl", range(len(cfg.grid)))):
        b_val, se = bessel_B_mc(
            xi.scaled(2.0 * math.sqrt(mu)),
            eta,
            res.params.with_mu(mu),
            cfg.n_samples,
            rng,
            **kw,
        )
        gap = abs(b_val - a_limit)
        envelope = envelope_scale / mu
        rows.append(
            f"{_g(mu)},{_g(b_val)},{_g(se)},{_g(a_limit)},{_g(gap)},{_g(envelope)}"
        )
    res.write("mu,b_value,b_stderr,a_limit,gap,envelope", rows)


def _walk_columns(states):
    """The walk CSV's numeric columns for an (n, q, q) stack of states: the
    upper-triangle coordinates (re/im pairs for a complex stack), the trace
    and the Frobenius norm, bit for bit what np.real, np.imag,
    np.real(np.trace(a)) and np.linalg.norm(a) give one matrix at a time.  A
    norm whose sum of squares overflows is taken after dividing by the
    largest entry, so it is finite whenever it is representable."""
    import numpy as np

    n, q, _ = states.shape
    coords = states[(slice(None), *np.triu_indices(q))]
    if np.iscomplexobj(states):
        coords = np.stack([coords.real, coords.imag], axis=-1).reshape(n, -1)
    # np.linalg.norm(a) is x.real.dot(x.real) + x.imag.dot(x.imag), BLAS dots
    # on strided views of a's entries.  The same dot per row on the same
    # strided views gives its bits; a contiguous copy takes another BLAS
    # kernel and changes last bits.
    flat = states.reshape(n, q * q)
    with np.errstate(over="ignore"):
        sq = flat.real[:, None, :] @ flat.real[:, :, None]
        if np.iscomplexobj(flat):
            sq = sq + flat.imag[:, None, :] @ flat.imag[:, :, None]
    norm = np.sqrt(sq[:, 0, 0])
    for i in np.flatnonzero(~np.isfinite(norm)):
        top = np.max(np.abs(flat[i]))
        norm[i] = top * np.linalg.norm(flat[i] / top)
    return np.column_stack([coords, np.trace(states, axis1=1, axis2=2).real, norm])


def _cmd_walk(res: _Resolved):
    """Replicate cone walks; one row per step with the upper-triangle
    coordinates of S_k (re/im pairs over the complex field) plus trace
    and Frobenius norm."""
    import numpy as np

    from .hypergroup import walk_batch
    from .seeds import substreams

    cfg = res.cfg
    names = [f"x_{i + 1}{j + 1}" for i, j in zip(*np.triu_indices(cfg.q))]
    if cfg.d == 2:
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]
    rngs = substreams(cfg.seed, "walk", range(cfg.replicates))
    # all steps run before any row is formatted, so a failing walk formats
    # nothing; the paths, (replicates, steps + 1, q, q), live only until
    # their columns are taken
    paths = walk_batch(res.law, res.params, cfg.steps, rngs)
    cols = _walk_columns(paths.reshape(-1, cfg.q, cfg.q))
    row = "%d,%d," + ",".join(["%.17g"] * cols.shape[1])
    rows = []
    for rep, walk in enumerate(np.split(cols, cfg.replicates)):
        rows += [row % (rep, step, *vals) for step, vals in enumerate(walk.tolist())]
    header = "replicate,k," + ",".join(names) + ",tr,norm"
    res.write(header, rows, f"{cfg.replicates} paths x {cfg.steps} steps")


def _write_report(res: _Resolved, rows):
    """Write the lln or slln experiment's ReportRows, one line each."""
    res.write("experiment,k,mu,n,replicates,statistic,value,stderr,seed", [
        f"{r.experiment},{r.k},{_g(r.mu)},{r.n},{r.replicates},"
        f"{r.statistic},{_g(r.value)},{_g(r.stderr)},{r.seed}"
        for r in rows
    ])


def _cmd_lln(res: _Resolved):
    """Weak-law tail probabilities along a grid of walk lengths."""
    from .limits import wlln_experiment

    cfg = res.cfg
    _write_report(res, wlln_experiment(
        res.law, res.params, res.schedule, cfg.grid, cfg.replicates, cfg.epsilon, cfg.seed
    ))


def _cmd_slln(res: _Resolved):
    """One strong-law path along the schedule, then the schedule's
    condition verdicts."""
    from .limits import schedule_conditions, slln_experiment

    cfg = res.cfg
    rows = slln_experiment(res.law, res.params, res.schedule, cfg.k_max, cfg.seed)
    for name, verdict in schedule_conditions(res.schedule):
        print(f"schedule condition {name}: {verdict}")
    _write_report(res, rows)


def _cmd_ldp(res: _Resolved):
    """Empirical free energy at the last index, its limit, and the rate
    function on a grid."""
    from .limits import free_energy_empirical, free_energy_limit, rate_function

    cfg = res.cfg
    c_k, se = free_energy_empirical(
        res.law, res.params, res.schedule.n(cfg.k_max), cfg.t_values, cfg.replicates, cfg.seed
    )
    c_lim = free_energy_limit(res.law, cfg.t_values)
    rows = []
    warned = False
    for t, ck, err, cl in zip(cfg.t_values, c_k.tolist(), se.tolist(), c_lim.tolist()):
        warned = warned or err > 0.2 * max(abs(ck), 1e-12)
        rows += [f"c_k,{_g(t)},{_g(ck)},{_g(err)}", f"c_limit,{_g(t)},{_g(cl)},0"]
    rates = rate_function(res.law, cfg.grid)
    rows += [f"rate,{_g(s)},{_g(val)},0" for s, val in zip(cfg.grid, rates)]
    res.write("kind,arg,value,stderr", rows)
    if warned:
        print(
            "warning: free-energy standard error above 20% of the value; "
            "increase replicates",
            file=sys.stderr,
        )


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


# name: (help, handler, default grid, the RunConfig fields its run reads);
# each field read is also a flag, --n-samples for n_samples
_SUBCOMMANDS = {
    "bessel": ("evaluate the matrix Bessel function on a grid", _cmd_bessel, "0:4:0.25",
               ("q", "d", "seed", "out", "mu", "grid", "n_samples", "series_tol", "max_weight")),
    "dunkl": ("chamber kernel values and flat-limit gaps", _cmd_dunkl, "64,128,256",
              ("q", "d", "seed", "out", "grid", "n_samples", "series_tol", "max_weight",
               "xi", "eta")),
    "walk": ("simulate cone walks to CSV", _cmd_walk, None,
             ("q", "d", "seed", "out", "mu", "replicates", "weights", "atoms", "steps")),
    "lln": ("weak-law tail probabilities", _cmd_lln, "25,100,400",
            ("q", "d", "seed", "out", "grid", "replicates", "weights", "atoms",
             "mu_family", "mu_c", "mu_b", "epsilon")),
    "slln": ("strong-law single-path deviations", _cmd_slln, None,
             ("q", "d", "seed", "out", "weights", "atoms", "mu_family", "mu_c", "mu_b",
              "n_family", "n_c", "n_b", "k_max")),
    "ldp": ("free energy and rate function", _cmd_ldp, "0.1:0.9:0.1",
            ("q", "d", "seed", "out", "grid", "replicates", "weights", "atoms",
             "mu_family", "mu_c", "mu_b", "n_family", "n_c", "n_b", "k_max", "t_values")),
}

_FLAG_SPECS = {
    "config": dict(help="flat JSON config file"),
    "threads": dict(help="BLAS thread count"),
    "seed": dict(type=int, help="master seed (unsigned 64-bit)"),
    "out": dict(help="output directory"),
    "q": dict(type=int, help="matrix rank"),
    "d": dict(type=int, choices=(1, 2), help="field dimension: 1 real, 2 complex"),
    "mu": dict(type=float, help="cone index"),
    "grid": dict(help='abscissa grid, "start:stop:step" or comma list'),
    "replicates": dict(type=int),
    "n_samples": dict(type=int, help="Monte Carlo sample count"),
    "series_tol": dict(type=float),
    "max_weight": dict(type=int),
    "weights": dict(help="comma list of atom weights"),
    "atoms": dict(help="atom diagonals: entries comma-separated, atoms ';'-separated"),
    "mu_family": dict(choices=("poly", "pow2")),
    "mu_c": dict(type=float),
    "mu_b": dict(type=float),
    "n_family": dict(choices=("poly", "polylog")),
    "n_c": dict(type=float),
    "n_b": dict(type=float),
    "k_max": dict(type=int),
    "xi": dict(help="comma list, strictly positive decreasing"),
    "eta": dict(help="comma list, strictly positive decreasing"),
    "steps": dict(type=int, help="steps per path"),
    "epsilon": dict(type=float, help="deviation threshold"),
    "t_values": dict(help="comma list of tilt parameters"),
}

# field -> parser, applied alike to flag text and config values after the
# two are merged, so that a malformed value exits 2 like any config error
_PARSERS = {
    **{key: _number(key, spec["type"]) for key, spec in _FLAG_SPECS.items() if "type" in spec},
    "seed": _number("seed", int, 0, 2**64),
    "replicates": _number("replicates", int, 1),
    "n_samples": _number("n_samples", int, 2),
    "steps": _number("steps", int, 0),
    "k_max": _number("k_max", int, 1),
    "max_weight": _number("max_weight", int, 0),
    "grid": parse_grid,
    "atoms": _parse_atoms,
    **{k: functools.partial(_parse_floats, what=k) for k in ("weights", "xi", "eta", "t_values")},
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
    for name, (help_text, _, _, reads) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in ("config", "threads", *reads):
            cmd.add_argument("--" + key.replace("_", "-"), **_FLAG_SPECS[key])
    check = sub.add_parser("check", help="run the acceptance suite", allow_abbrev=False)
    check.add_argument("--threads", **_FLAG_SPECS["threads"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        _apply_threads(args.threads)
        if args.command == "check":
            return _cmd_check(args)
        _, handler, _, reads = _SUBCOMMANDS[args.command]
        cfg = load_config_file(args.config, args.command) if args.config else RunConfig()
        flags = {key: getattr(args, key) for key in reads if getattr(args, key) is not None}
        res = _Resolved(dataclasses.replace(cfg, **flags), args.command)
        os.makedirs(res.cfg.out, exist_ok=True)
        handler(res)
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
