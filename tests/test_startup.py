"""What a process loads: each subcommand imports only the modules it runs,
and the package re-exports its API lazily (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dtf
from dtf import prover
from dtf.cli import EXIT_OK, run
from dtf.prover import DEFAULT_TIMEOUT, PROVER_ENV_VAR, ProverResult, SzsVerdict

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))

# The home module of every name the package exports, in `__all__` order.
HOMES = {
    "core": ["Axiom", "BaseApp", "BoolType", "ConstDecl", "Context", "Pi", "Theory",
             "TypeDecl", "alpha_equal", "beta_eta_normalize", "term_size"],
    "deep": ["CheckReport", "DeepChecker", "Obligation", "check_problem",
             "export_obligations"],
    "diagnostics": ["Diagnostic", "Span"],
    "erasure": ["erase_problem", "erase_type"],
    "printer": ["format_term", "format_type", "print_problem", "print_th0"],
    "prover": ["ProverConfig", "ProverResult", "SzsVerdict", "run_prover"],
    "shallow": ["check_shallow", "skeletonize"],
    "syntax": ["Problem", "parse_file", "parse_problem"],
}
EXPORTS = [name for names in HOMES.values() for name in names]
SUBMODULES = ["cli", *HOMES]
HEAVY = {"dtf.deep", "dtf.erasure", "dtf.prover"}
PROCESS_STACK = {"subprocess"}


def fresh(code: str, *args: str):
    """Run code in a new interpreter at the repository root; return the JSON
    value on the last line it prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=REPO, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Modules new after `cli.run(argv)`, against the set taken before `import
# dtf.cli`, so that what the interpreter and its site hook load does not count.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import dtf.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = dtf.cli.run(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""


def loaded_by(argv: list) -> set:
    result = fresh(PROBE, json.dumps(argv))
    assert result["code"] == EXIT_OK
    return set(result["new"])


# -- what each subcommand loads ---------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["parse", "corpus/vect.p", "corpus/hol.p"],
    ["parse", "--print", "corpus/vect.p"],
    ["check", "corpus/vect.p"],
    ["stats", "corpus/vect.p"],
], ids=["parse", "parse-print", "check", "stats"])
def test_front_end_subcommands_load_no_deep_erasure_or_prover(argv):
    new = loaded_by(argv)
    assert {"dtf.cli", "dtf.syntax", "dtf.shallow"} <= new
    assert not new & (HEAVY | PROCESS_STACK)
    assert ("dtf.printer" in new) is ("--print" in argv)  # only a subcommand that prints formulae


def test_deep_check_loads_neither_erasure_nor_prover():
    new = loaded_by(["check", "--deep", "corpus/vect.p"])
    assert "dtf.deep" in new
    assert not new & ({"dtf.erasure", "dtf.prover"} | PROCESS_STACK)


@pytest.mark.parametrize("argv", [
    ["translate", "--assume-obligations", "corpus/vect.p"],
    ["obligations", "corpus/vect.p", "--out-dir", "{tmp}"],
], ids=["translate", "obligations"])
def test_export_subcommands_do_not_load_the_prover(argv, tmp_path):
    new = loaded_by([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert "dtf.deep" in new
    assert not new & ({"dtf.prover"} | PROCESS_STACK)


def test_only_solve_loads_the_process_stack():
    new = loaded_by(["solve", "corpus/list_append.p",
                     "--prover", "sh perfbench/fake_prover.sh {file}"])
    assert HEAVY | PROCESS_STACK <= new


# `dataclasses` costs about 10 ms to import and pulls in `inspect`, `ast` and
# `dis`; the records are written out by hand so that no process pays for it.
CODEGEN = {"dataclasses", "inspect"}


# Every subcommand, `solve` with one prover and with two.
EVERY_SUBCOMMAND = pytest.mark.parametrize("argv", [
    ["parse", "--print", "corpus/vect.p"],
    ["check", "corpus/vect.p"],
    ["check", "--deep", "corpus/vect.p"],
    ["stats", "corpus/vect.p"],
    ["translate", "--assume-obligations", "corpus/vect.p"],
    ["obligations", "corpus/vect.p", "--out-dir", "{tmp}"],
    ["solve", "corpus/list_append.p", "--prover", "sh perfbench/fake_prover.sh {file}"],
    ["solve", "corpus/list_append.p", "--prover", "sh perfbench/fake_prover.sh {file}",
     "--jobs", "2"],
], ids=["parse", "check", "check-deep", "stats", "translate", "obligations", "solve",
        "solve-jobs-2"])


@EVERY_SUBCOMMAND
def test_no_subcommand_loads_dataclasses_or_inspect(argv, tmp_path):
    new = loaded_by([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert "dtf.cli" in new
    assert not new & CODEGEN


# `solve` runs its provers on plain threads: `concurrent.futures` would pull in
# `logging`: about 3.5 ms of import in every `solve` process (`-X importtime`).
POOL_STACK = {"concurrent.futures", "logging"}


@EVERY_SUBCOMMAND
def test_no_subcommand_loads_concurrent_futures_or_logging(argv, tmp_path):
    new = loaded_by([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert "dtf.cli" in new
    assert not new & POOL_STACK


def imported_by(*args: str) -> set:
    """The modules a new interpreter imports, read from `-X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=REPO, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_python_m_dtf_check_on_an_empty_file_loads_neither(tmp_path):
    empty = tmp_path / "empty.p"
    empty.write_text("")
    loaded = imported_by("-m", "dtf", "check", str(empty)) - imported_by("-c", "pass")
    assert {"dtf", "dtf.cli", "dtf.core", "dtf.syntax"} <= loaded
    assert not loaded & CODEGEN


def test_python_m_dtf_solve_loads_neither_the_codegen_nor_the_pool_stack():
    # `python -m dtf` goes through the package `__init__` and `__main__`, as the
    # benchmark runs it; `solve` loads the most modules.
    loaded = (imported_by("-m", "dtf", "solve", "corpus/list_append.p",
                          "--prover", "sh perfbench/fake_prover.sh {file}")
              - imported_by("-c", "pass"))
    assert {"dtf", "dtf.cli", "subprocess"} <= loaded
    assert not loaded & (CODEGEN | POOL_STACK)


def test_importing_the_package_loads_no_submodule():
    loaded = fresh("import json, sys, dtf\n"
                   "print(json.dumps([m for m in sys.modules if m.startswith('dtf.')]))")
    assert loaded == []


# -- the package API -----------------------------------------------------------------------


def test_every_exported_name_is_its_home_modules_object():
    result = fresh(
        "import importlib, json, sys, dtf\n"
        "homes = json.loads(sys.argv[1])\n"
        "print(json.dumps({'all': dtf.__all__, 'wrong': [\n"
        "    n for m, names in homes.items() for n in names\n"
        "    if getattr(dtf, n) is not getattr(importlib.import_module('dtf.' + m), n)]}))",
        json.dumps(HOMES))
    assert result == {"all": EXPORTS, "wrong": []}
    # The same in this process, where the names may already be cached.
    for module, names in HOMES.items():
        for name in names:
            assert getattr(dtf, name) is getattr(importlib.import_module(f"dtf.{module}"), name)


def test_submodules_resolve_as_package_attributes():
    wrong = fresh(
        "import json, sys, types, dtf\n"
        "print(json.dumps([m for m in json.loads(sys.argv[1])\n"
        "    if not isinstance(getattr(dtf, m), types.ModuleType)\n"
        "    or getattr(dtf, m) is not sys.modules['dtf.' + m]]))",
        json.dumps(SUBMODULES))
    assert wrong == []
    for name in SUBMODULES:
        module = getattr(dtf, name)
        assert isinstance(module, types.ModuleType)
        assert module is importlib.import_module(f"dtf.{name}")


def test_star_import_binds_all_of_all():
    bound = fresh("import json\n"
                  "ns = {}\n"
                  "exec('from dtf import *', ns)\n"
                  "print(json.dumps(sorted(set(ns) - {'__builtins__'})))")
    assert bound == sorted(EXPORTS)
    assert "alpha_equal" in dtf.__all__


def test_dir_lists_the_exports_and_submodules():
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(dtf))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dtf.no_such_name
    assert not hasattr(dtf, "no_such_name")
    with pytest.raises(ImportError):
        from dtf import no_such_name  # noqa: F401


# -- solve's options, resolved without loading the prover at parser build time ----------


def test_solve_help_names_the_prover_variable(capsys):
    assert run(["solve", "--help"]) == EXIT_OK
    assert f"${PROVER_ENV_VAR}" in capsys.readouterr().out


@pytest.mark.parametrize("extra, timeout", [([], DEFAULT_TIMEOUT), (["--timeout", "7"], 7.0)])
def test_solve_timeout_defaults_to_the_prover_default(corpus_dir, monkeypatch, capsys,
                                                      extra, timeout):
    seen = []

    def fake_discharge_all(config, problems, jobs=1):
        seen.append(config.timeout)
        return {label: ProverResult(SzsVerdict("Theorem"), "", "", 0, 0.0)
                for label, _ in problems}

    monkeypatch.setattr(prover, "discharge_all", fake_discharge_all)
    argv = ["solve", str(corpus_dir / "list_append.p"), "--prover", "p {file}", *extra]
    assert run(argv) == EXIT_OK
    assert seen and set(seen) == {timeout}
