import gc
import stat
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


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


@pytest.fixture
def collections():
    """The generation of each cyclic collection started while the test runs."""
    started: list = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()
