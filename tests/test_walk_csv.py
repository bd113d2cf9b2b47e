"""The walk CSV, written from whole columns, against the row-by-row oracle
of tests/walk_csv_oracle.py: the same bytes for the same walk history."""

import contextlib
import io
import warnings

import numpy as np
import pytest

from conebessel import cli
from conebessel.hypergroup import RadialLaw, walk_batch
from conebessel.linalg import StructureParams
from conebessel.seeds import substream
from walk_csv_oracle import frobenius, walk_csv_lines

# (q, d, mu, steps, replicates, atom diagonals, weights, seed)
_CONFIGS = {
    "q1-real": (1, 1, 3.0, 6, 4, "1;0.3", "0.5,0.5", 5),
    "q1-complex": (1, 2, 3.0, 1, 1, "1", "1", 6),
    "q2-real-zero-atom": (2, 1, 4.0, 6, 4, "1,0.5;0,0", "0.6,0.4", 7),
    "q2-complex-no-steps": (2, 2, 6.0, 0, 4, "1,0.5", "1", 8),
    "q2-complex-zero-atom": (2, 2, 6.0, 6, 1, "0,0;0.7,0.2", "0.5,0.5", 9),
    "q3-real-tiny": (3, 1, 5.0, 6, 4, "1e-200,2e-200,3e-200", "1", 10),
    "q3-complex-1e152": (3, 2, 8.0, 6, 4, "1e152,2e152,0.5e152", "1", 11),
    "q9-real": (9, 1, 12.0, 6, 4, ",".join(["1"] * 9), "1", 12),
    "q9-complex": (9, 2, 20.0, 1, 4, ",".join(f"{1 + i / 9:.3f}" for i in range(9)), "1", 13),
    "q1-real-mixed-1e200": (1, 1, 6.0, 1, 4, "1e200;1", "0.5,0.5", 1),
    "q2-complex-mixed-1e200": (2, 2, 6.0, 1, 4, "1e200,2e200;1,1", "0.5,0.5", 1),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_walk_csv_matches_the_row_by_row_oracle(tmp_path, name):
    q, d, mu, steps, replicates, atoms, weights, seed = _CONFIGS[name]
    argv = ["walk", "--q", str(q), "--d", str(d), "--mu", repr(mu), "--steps", str(steps),
            "--replicates", str(replicates), "--atoms", atoms, "--weights", weights,
            "--seed", str(seed), "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert [str(w.message) for w in caught] == []

    law = RadialLaw(weights=cli._parse_floats(weights, "weights"),
                    atoms=tuple(np.diag(diag) for diag in cli._parse_atoms(atoms)))
    rngs = [substream(seed, "walk", rep) for rep in range(replicates)]
    history = walk_batch(law, StructureParams(q=q, d=d, mu=mu), steps, rngs).swapaxes(0, 1)
    if "mixed" in name:
        # one step holds states whose sum of squares overflows and plain ones
        big = np.max(np.abs(history[1]), axis=(1, 2)) > 1e160
        assert big.any() and not big.all()
    body = (tmp_path / "walk.csv").read_bytes().split(b"\n", 2)[2]
    expected = "\n".join(walk_csv_lines(history, q, d)) + "\n"
    assert body == expected.encode("utf-8")


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("q", [1, 2, 3, 9])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_walk_columns_match_per_matrix_numpy_bit_for_bit(q, field):
    # cli._walk_columns takes each norm as BLAS dots on the strided
    # .real/.imag views of the flattened stack, as np.linalg.norm does per
    # matrix; on a contiguous copy BLAS takes another kernel and changes last
    # bits, so a numpy or BLAS change that breaks this shows here first
    rng = np.random.default_rng(q)
    n = 3000
    stack = rng.standard_normal((n, q, q))
    if field == "complex":
        stack = stack + 1j * rng.standard_normal((n, q, q))
    stack *= np.exp(rng.uniform(-40.0, 40.0, (n, 1, 1)))
    stack[::50] *= 1e170  # sums of squares that overflow
    stack[1::50] = 0.0
    cols = cli._walk_columns(stack)

    parts = (np.real, np.imag) if field == "complex" else (np.real,)
    pairs = [(i, j) for i in range(q) for j in range(i, q)]
    coords = [[part(a[i, j]) for i, j in pairs for part in parts] for a in stack]
    trace = [np.real(np.trace(a)) for a in stack]
    norm = [frobenius(a) for a in stack]
    assert np.isfinite(norm).all()
    assert np.array_equal(_bits(cols[:, :-2]), _bits(coords))
    assert np.array_equal(_bits(cols[:, -2]), _bits(trace))
    assert np.array_equal(_bits(cols[:, -1]), _bits(norm))
