import gc
import stat
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def thawed_gc():
    """Undo the `gc.freeze()` of every `dtf.cli` load when a test ends, so
    that garbage cycles of one test are still collected during the next."""
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO / "corpus"


@pytest.fixture(scope="session")
def negative_dir() -> Path:
    return REPO / "corpus" / "negative"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def fake_prover(tmp_path):
    """Factory for tiny shell scripts that act as provers."""

    def make(body: str, name: str = "fake_prover.sh") -> str:
        path = tmp_path / name
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        return str(path)

    return make
