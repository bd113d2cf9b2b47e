import contextlib
import hashlib
import io

import numpy as np
import pytest

from conebessel import cli


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def csv_digest(tmp_path):
    """Run a CLI subcommand and return the SHA-256 of its CSV below the
    config-hash line, which carries the stream version: a digest outlives
    a version change that leaves its CSV body alone."""

    def digest(argv) -> str:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"{argv[0]}.csv").read_text(encoding="utf-8")
        return hashlib.sha256(text.split("\n", 1)[1].encode("utf-8")).hexdigest()

    return digest
