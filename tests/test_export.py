"""Pins on the export path: obligation files and prover task texts, byte for byte."""

import hashlib
from pathlib import Path

import pytest

from dtf.cli import EXIT_OK, run

from genutil import load_generator

REPO = Path(__file__).resolve().parents[1]
generate = load_generator()

# sha256 of `_export_digest`, recorded when every obligation and every solve
# task erased and printed its whole visible theory again.
DIGESTS = {
    "corpus/choice.p": "670a626fa635f4062ff9e8ea74f5ef5ffae9fb6c405744767b894555bb2d78bf",
    "corpus/dep_impl.p": "3bc94603dab00d1b9da80ce7e4cfc561cf09527ad0f04e9e0cba7fb20d3c2987",
    "corpus/dep_impl_rev.p": "dece0a3bd07e4d487b689e6c9b07886755f837c694067ba7a3cc246b2be4db80",
    # Recorded once `<=>` became equality at $o: it prints as `(q = r)`.
    "corpus/desugar.p": "0f5a17bed2ed0cda9a968d6d77b61dd6adee3c1c65b253055ccb016a8e3885cb",
    "corpus/hol.p": "1d5b55c53a84563d62940c902094fa4542146d4be3ed335035800ffdff4dec6a",
    "corpus/list_append.p": "f1c79e3a53403a0e893ebe5fb3fb700a5441cc544b4def501a7bc7e575c9bf7b",
    "corpus/roles.p": "ea2f8e6002b9392632a5b759980f33b1fed716e859c42b9f0098f13bad00b658",
    "corpus/vect.p": "ecff893accb594d47c7a5ca5bd13882f8e822e3ea78e9ef6c8e03f716eac7438",
    "tests/fixtures/per_nat_collision.p": "0fd519d345bc8e4dae4bf35d10b43fa45f14825662cbd1aa0949bcb22b1d5a6f",
    "axioms_1": "c3a2be6e44b40fff0ba2370aa661a2fd77e42dd3bffe58a82aad5d669f097251",
    "axioms_4": "e36736c2c6fa6ee985383ace6fbc02431987905388c6122d99447260687f5e07",
    "discharge_1": "58ad91236f47760737825047495ebe1086bbf5b0570a21e58cefd90fdfe2a23c",
    "discharge_4": "58af6816377d1b188627bade6901740a27e2150f346742c2c8b56aaa8078b142",
    "terms_1": "4f72b1197e8635e7179d31c6e9967bb7d1764782ab34b395a82c76f540d52086",
    "terms_4": "f59a42c0f5609c4fa294ff2f68f65ad2eaef9d7428f78a1b5681fed68fb5c825",
}


def _source(key: str, tmp_path: Path) -> Path:
    if key.endswith(".p"):
        return REPO / key
    family, scale = key.rsplit("_", 1)
    path = tmp_path / f"{key}.p"
    path.write_text(generate.family(family, 1, float(scale))[0], encoding="utf-8")
    return path


def _export_digest(path: Path, work: Path, make_prover) -> str:
    """Every `obligations --all` file, then every task text `solve` hands to the prover."""
    exported, tasks = work / "obligations", work / "tasks"
    tasks.mkdir()
    prover = make_prover(f'cp "$1" "{tasks}/"\necho "% SZS status Theorem for $1"')
    assert run(["obligations", "--all", "--out-dir", str(exported), str(path)]) == EXIT_OK
    assert run(["solve", "--jobs", "2", "--prover", f"{prover} {{file}}", str(path)]) == EXIT_OK
    digest = hashlib.sha256()
    for folder in (exported, tasks):
        for item in sorted(folder.iterdir()):
            digest.update(f"{folder.name}/{item.name}\0".encode())
            digest.update(item.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_export_output_is_pinned(key, tmp_path, fake_prover, capsys):
    assert _export_digest(_source(key, tmp_path), tmp_path, fake_prover) == DIGESTS[key]
