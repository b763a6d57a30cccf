"""External prover invocation and SZS verdict parsing."""

import os
import subprocess
import time

import pytest

from dtf.cli import EXIT_SYSTEM, run
from dtf.prover import (
    DEFAULT_TIMEOUT,
    MAX_TIMEOUT,
    PROVER_ENV_VAR,
    ProverConfig,
    SzsVerdict,
    config_from_env,
    discharge_all,
    parse_szs,
    run_prover,
)


# -- configuration -----------------------------------------------------------------


def test_config_requires_file_placeholder():
    with pytest.raises(ValueError, match="exactly one"):
        ProverConfig("prove --fast")
    with pytest.raises(ValueError, match="exactly one"):
        ProverConfig("prove {file} {file}")


def test_config_requires_positive_timeout():
    with pytest.raises(ValueError, match="positive"):
        ProverConfig("prove {file}", timeout=0)


TIMEOUTS_THE_WAIT_CANNOT_TAKE = ["nan", "inf", "1e10", "2147484", "2147483.65"]


@pytest.mark.parametrize("timeout", TIMEOUTS_THE_WAIT_CANNOT_TAKE)
def test_config_rejects_a_timeout_the_wait_cannot_take(timeout):
    with pytest.raises(ValueError, match="at most 2147483.647 seconds"):
        ProverConfig("prove {file}", timeout=float(timeout))


def test_config_takes_the_longest_timeout_the_wait_can_take(fake_prover):
    config = ProverConfig(f"{fake_prover('echo % SZS status Theorem')} {{file}}", timeout=MAX_TIMEOUT)
    assert run_prover(config, "x").verdict.proved


@pytest.mark.parametrize("timeout", TIMEOUTS_THE_WAIT_CANNOT_TAKE)
def test_solve_rejects_a_timeout_the_wait_cannot_take_before_any_prover_starts(
        corpus_dir, fake_prover, tmp_path, capsys, timeout):
    started = tmp_path / "started"
    script = fake_prover(f"touch '{started}'\necho '% SZS status Theorem'")
    assert run(["solve", str(corpus_dir / "list_append.p"), "--prover", f"{script} {{file}}",
                "--timeout", timeout]) == EXIT_SYSTEM
    err = capsys.readouterr().err
    assert err == "dtf: prover timeout must be at most 2147483.647 seconds\n"
    assert not started.exists()


def test_config_argv_substitutes_path():
    config = ProverConfig("prove --mode casc {file}")
    assert config.argv("/tmp/x.p") == ["prove", "--mode", "casc", "/tmp/x.p"]


def test_config_argv_keeps_quoted_arguments():
    config = ProverConfig("prove --opt 'a b' {file}")
    assert config.argv("/tmp/x.p") == ["prove", "--opt", "a b", "/tmp/x.p"]


# -- verdict parsing ----------------------------------------------------------------


def test_parse_szs_basic():
    verdict = parse_szs("% SZS status Theorem for x.p\n")
    assert verdict == SzsVerdict("Theorem", "% SZS status Theorem for x.p")
    assert verdict.proved


@pytest.mark.parametrize("word", [
    "Theorem", "CounterSatisfiable", "Unsatisfiable", "Satisfiable",
    "Timeout", "GaveUp", "Error", "Unknown",
])
def test_parse_szs_known_words(word):
    verdict = parse_szs(f"% SZS status {word}\n")
    assert verdict is not None and verdict.status == word


def test_parse_szs_unknown_word_kept_raw():
    verdict = parse_szs("% SZS status ContradictoryAxioms for x\n")
    assert verdict is not None
    assert verdict.status == "Unknown"
    assert "ContradictoryAxioms" in verdict.raw


def test_parse_szs_first_line_wins():
    out = "% SZS status Theorem\nnoise\n% SZS status Theorem again\n"
    verdict = parse_szs(out)
    assert verdict is not None and verdict.status == "Theorem"


def test_parse_szs_conflicting_statuses_are_an_error():
    out = "% SZS status Theorem\n% SZS status GaveUp\n"
    verdict = parse_szs(out)
    assert verdict is not None and verdict.status == "Error"


def test_parse_szs_missing():
    assert parse_szs("no status here\n") is None


# -- execution ------------------------------------------------------------------------


def test_run_prover_reads_stdout(fake_prover):
    script = fake_prover("cat \"$1\" > /dev/null\necho '% SZS status Theorem'")
    result = run_prover(ProverConfig(f"{script} {{file}}", timeout=10), "thf(a, axiom, $true).")
    assert result.verdict.proved
    assert result.returncode == 0
    assert not result.timed_out


def test_run_prover_pass_problem_file(fake_prover):
    script = fake_prover("grep -q marker_atom \"$1\" && echo '% SZS status Theorem' "
                         "|| echo '% SZS status GaveUp'")
    config = ProverConfig(f"{script} {{file}}", timeout=10)
    assert run_prover(config, "thf(a, axiom, marker_atom).").verdict.proved
    assert not run_prover(config, "thf(a, axiom, other).").verdict.proved


def test_run_prover_timeout(fake_prover):
    script = fake_prover("sleep 5\necho '% SZS status Theorem'")
    result = run_prover(ProverConfig(f"{script} {{file}}", timeout=0.2), "x")
    assert result.timed_out
    assert result.verdict.status == "Timeout"
    assert result.elapsed < 4


def _gone(pid: int) -> bool:
    """Whether pid names no process, or a zombie that only waits to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False


def test_run_prover_kills_its_process_group_when_the_wait_raises(fake_prover, tmp_path,
                                                                 monkeypatch):
    # The prover is a shell that starts a child of its own, so both must go.
    pids = tmp_path / "pids"
    script = fake_prover(f"sleep 30 &\necho $$ $! > '{pids}.tmp'\nmv '{pids}.tmp' '{pids}'\nwait")
    communicate, calls = subprocess.Popen.communicate, []

    def interrupted(proc, *args, **kwargs):
        calls.append(args)
        if len(calls) == 1:  # the wait: once the prover has written its pids, fail
            deadline = time.monotonic() + 10
            while not pids.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("injected")
        return communicate(proc, *args, **kwargs)

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(RuntimeError, match="injected"):
        run_prover(ProverConfig(f"{script} {{file}}", timeout=60), "x")
    started = [int(pid) for pid in pids.read_text().split()]
    assert len(started) == 2
    deadline = time.monotonic() + 5
    while not all(_gone(pid) for pid in started) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(_gone(pid) for pid in started)


def test_run_prover_missing_binary():
    config = ProverConfig("/nonexistent/prover_binary {file}", timeout=5)
    result = run_prover(config, "x")
    assert result.verdict.status == "Error"
    assert result.returncode is None


def test_run_prover_no_status_nonzero_exit(fake_prover):
    script = fake_prover("echo broken >&2\nexit 3")
    result = run_prover(ProverConfig(f"{script} {{file}}", timeout=5), "x")
    assert result.verdict.status == "Error"


def test_run_prover_no_status_clean_exit(fake_prover):
    script = fake_prover("echo done")
    result = run_prover(ProverConfig(f"{script} {{file}}", timeout=5), "x")
    assert result.verdict.status == "Unknown"


def test_run_prover_status_on_stderr(fake_prover):
    script = fake_prover("echo '% SZS status Theorem' >&2")
    result = run_prover(ProverConfig(f"{script} {{file}}", timeout=5), "x")
    assert result.verdict.proved


# -- batches ----------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_discharge_all(fake_prover, jobs):
    script = fake_prover("grep -q good \"$1\" && echo '% SZS status Theorem' "
                         "|| echo '% SZS status GaveUp'")
    config = ProverConfig(f"{script} {{file}}", timeout=10)
    results = discharge_all(config, [("one", "good problem"), ("two", "bad problem")],
                            jobs=jobs)
    assert set(results) == {"one", "two"}
    assert results["one"].verdict.proved
    assert results["two"].verdict.status == "GaveUp"


@pytest.mark.parametrize("jobs", [0, -1, 8])
def test_discharge_all_clamps_the_pool(fake_prover, jobs):
    # Any --jobs value runs every task in a pool of at least one worker.
    config = ProverConfig(f"{fake_prover('echo % SZS status Theorem')} {{file}}", timeout=10)
    assert discharge_all(config, [], jobs=jobs) == {}
    results = discharge_all(config, [("one", "p"), ("two", "q")], jobs=jobs)
    assert list(results) == ["one", "two"]
    assert all(r.verdict.proved for r in results.values())


# -- environment --------------------------------------------------------------------------


def test_config_from_env(monkeypatch):
    monkeypatch.delenv(PROVER_ENV_VAR, raising=False)
    assert config_from_env() is None
    monkeypatch.setenv(PROVER_ENV_VAR, "prove {file}")
    config = config_from_env()
    assert config is not None
    assert config.command == "prove {file}"
    assert config.timeout == DEFAULT_TIMEOUT
    explicit = config_from_env("other {file}", timeout=7)
    assert explicit is not None and explicit.command == "other {file}"
    assert explicit.timeout == 7
