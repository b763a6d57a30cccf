"""Pins on what the CLI prints: stdout, stderr and exit code, byte for byte."""

import hashlib
import re
from pathlib import Path

import pytest

from dtf.cli import run

from genutil import load_generator

REPO = Path(__file__).resolve().parents[1]
generate = load_generator()

COMMANDS = (
    ["parse", "--print"],
    ["check"],
    ["check", "--deep", "--verbose"],
    ["stats"],
    ["translate"],
    ["translate", "--assume-obligations"],
    ["solve"],
)
_TIME = re.compile(r"\(\d+\.\d\ds\)")

# sha256 of `_cli_digest`, recorded before the rules of the elaborator, the
# checkers, the erasure and the core nodes were each folded into one place.
DIGESTS = {
    "corpus/choice.p": "fb5e82c9df839cfe8d27d3977478bddc5b2bfaef61fee786594c645206990580",
    "corpus/dep_impl.p": "e3d8b5d15e5a77dda9140dd89a8bb6948731121f7ba14d4b77169edeecbdca5e",
    "corpus/dep_impl_rev.p": "e680f57bb4a43637e6679f66c9363355824b53a6dbf1a6dd3daed08a39a17c7b",
    # Recorded once `<=>` became equality at $o: it prints as `(q = r)`.
    "corpus/desugar.p": "c2adf7909c0a0e15fe579f6672017c39b4de6f0cc3a26c21971cbf2f5abbe623",
    "corpus/hol.p": "a05bcefd7256af5896a6661444fb4076adf9e34a2c3f0f52f6d0740371f8c228",
    "corpus/list_append.p": "d367fae155fc0dbefcbb8a29d86472b2cb3453e049d911c1066f13361bb6ca13",
    "corpus/roles.p": "a2fb20a7adccfd252e9a880baaa679500e1325ebcb782c50dbf1862465350d17",
    "corpus/vect.p": "98c185a5fb61049545c4b3f4d9cc7d1c32b13d13ad30f6d1d98d07e8999f8ae4",
    "corpus/negative/neg_app_mismatch.p": "5d3437e8a88b9994162cc895f39c21fb843f13402140ddacd71dd2729dbd3ba4",
    "corpus/negative/neg_arity_extra.p": "90ca71264f338f4ef1a6e938dba12d6df0b9c781358614b4230d09ba072fd504",
    "corpus/negative/neg_arity_missing.p": "2659d896b1114dfb0af39fad6598606ccad559518ce3770803588f59f502d64b",
    "corpus/negative/neg_eq_mismatch.p": "08b876dc8e39e5216d28c59dedc99880d0945c4c0751a68b7d068d2d48e924eb",
    "corpus/negative/neg_head_mismatch.p": "a135da0952ad24a22118014546953270db8417bfadb386847bd1d284bc8cc896",
    "corpus/negative/neg_mixed_binder.p": "4bc64c12f6a3fe2981a47e6197a4ed2e63beb723783fdbe863be420fbc4d48ce",
    "corpus/negative/neg_not_bool.p": "0305978ed555f1087c4a0d76821be357700e1380420c2de3c58ca8468a49e871",
    "corpus/negative/neg_poly_const.p": "2efe2d5b16d4081b98462411c5b5e89ee320d0db1a75b91930f441250dafbfd8",
    "corpus/negative/neg_poly_type.p": "0af2049465a98bf1bf98c764d199dc830d8cf27fff9d7f0fdeb51019f22d898b",
    "corpus/negative/neg_unknown_symbol.p": "f1b9fab341b93486a9407d947c4b6dd79fbf48d27a8fbf5299418ee584eae051",
    "tests/fixtures/list_append_obligation.p": "68bac716ecbeff35a950a60b21003b3ee11ce3c6df8552acfd70fe27d70165f2",
    "tests/fixtures/per_nat_collision.p": "7f7cc57e3f2d26f3bc50fc654f1ae5a477c50158197b3aa8f4f6d7b123dbdea7",
    "tests/fixtures/quoted_ttype.p": "1f208fff128a86fc7274d91082bcc2c57ab8eb1ec3b8fd94cc0e5e8dab51a8ee",
    "axioms_1": "eca34ee70321363d64a9fe706b76bd9f621290fe890240129c718f0cbc36b5fa",
    "terms_1": "3b82eac034353c7d53d15dd1b5b6800eb3fa25cd7034e51d32f638fb7bd81e0b",
    "discharge_1": "395c1faf89bc378ed375241fd2ad9dd9919361ee4797154741f753b75fea510e",
    # Recorded once an included file was named relative to the including
    # file's path as typed, not by its absolute path.
    "tests/fixtures/include/inc_main.p": "f59ff330ab96e1b9802fa6e99bcf134c0c987e8c7dfd6396ad76d3956480f7ee",
}


def _keys() -> list:
    files = [*sorted((REPO / "corpus").glob("*.p")),
             *sorted((REPO / "corpus" / "negative").glob("*.p")),
             *sorted((REPO / "tests" / "fixtures").glob("*.p")),
             REPO / "tests" / "fixtures" / "include" / "inc_main.p"]
    return [str(f.relative_to(REPO)) for f in files] + ["axioms_1", "terms_1", "discharge_1"]


def _source(key: str, tmp_path: Path, monkeypatch) -> str:
    """The path to pass on the command line, relative to the working directory."""
    if key.endswith(".p"):
        monkeypatch.chdir(REPO)
        return key
    family, scale = key.rsplit("_", 1)
    (tmp_path / f"{key}.p").write_text(generate.family(family, 1, float(scale))[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return f"{key}.p"


def _cli_digest(path: str, prover: str, capsys) -> str:
    """Exit code, stdout and stderr of every command in COMMANDS on path;
    prover times and the repository path are masked."""
    digest = hashlib.sha256()
    for command in COMMANDS:
        extra = ["--prover", f"{prover} {{file}}"] if command[0] == "solve" else []
        code = run([*command, *extra, path])
        out, err = capsys.readouterr()
        text = f"{' '.join(command)}\0{code}\0{out}\0{err}\0"
        digest.update(_TIME.sub("(T)", text).replace(str(REPO), "<repo>").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", _keys())
def test_cli_output_is_pinned(key, tmp_path, monkeypatch, fake_prover, capsys):
    prover = fake_prover('echo "% SZS status CounterSatisfiable for $1"')
    path = _source(key, tmp_path, monkeypatch)
    assert _cli_digest(path, prover, capsys) == DIGESTS.get(key)
