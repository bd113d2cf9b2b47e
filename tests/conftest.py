import contextlib
import hashlib
import io

import numpy as np
import pytest

from conebessel import cli


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def body_digest(text: str, drop: str | None = None) -> str:
    """SHA-256 of a CSV below its config-hash line, with the column named
    `drop` (if any) taken out of the header and of every data row."""
    lines = text.split("\n")[1:]
    if drop is not None:
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        col = lines[header].split(",").index(drop)
        lines = [line if line.startswith("#") or not line
                 else ",".join(c for i, c in enumerate(line.split(",")) if i != col)
                 for line in lines]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture
def csv_digest(tmp_path):
    """Run a CLI subcommand and return the SHA-256 of its CSV below the
    config-hash line, which carries the stream version: a digest outlives
    a version change that leaves its CSV body alone.  With `drop`, the
    digest skips that column (body_digest)."""

    def digest(argv, drop: str | None = None) -> str:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"{argv[0]}.csv").read_text(encoding="utf-8")
        return body_digest(text, drop)

    return digest
