"""External prover invocation and SZS verdict parsing."""

import os
import re
import selectors
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from dtf.cli import EXIT_INTERRUPT, EXIT_OK, EXIT_SYSTEM, run
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

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


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

    class Interrupted(selectors.DefaultSelector):
        def select(self, timeout=None):  # the wait: once the prover has written its pids, fail
            deadline = time.monotonic() + 10
            while not pids.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("injected")

    monkeypatch.setattr(selectors, "DefaultSelector", Interrupted)
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


# -- dispatch: one thread, one text made ahead ------------------------------------------

THEOREM = "echo '% SZS status Theorem'"


class Pairs:
    """An iterator of (label, text) pairs that logs each draw, and raises
    instead of returning pair number `fail_at` (counted from 1)."""

    def __init__(self, n: int, log: list, fail_at: int | None = None):
        self.n, self.log, self.fail_at, self.drawn = n, log, fail_at, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.drawn += 1
        if self.drawn == self.fail_at:
            raise RuntimeError("no text")
        if self.drawn > self.n:
            raise StopIteration
        self.log.append(("make", f"t{self.drawn}"))
        return f"t{self.drawn}", f"text {self.drawn}"


@pytest.fixture
def own_tmpdir(tmp_path, monkeypatch):
    """A fresh directory for every temporary directory made in the test,
    alone in a directory of its own."""
    tmp = tmp_path / "outer" / "tmp"
    tmp.mkdir(parents=True)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


def assert_left_nothing(tmp) -> None:
    assert list(tmp.iterdir()) == []
    assert list(tmp.parent.iterdir()) == [tmp]


class ProverLog(list):
    """Each prover started, as ("start", label), and each reaped, as ("end",
    label); starting the prover of the label `refuse` raises instead."""
    refuse = None


@pytest.fixture
def provers(monkeypatch):
    """The ProverLog of every prover the test runs."""
    log = ProverLog()

    class Logged(subprocess.Popen):
        def __init__(self, argv, *args, **kwargs):
            label = os.path.basename(argv[-1])[:-len(".p")]
            if label == log.refuse:
                raise RuntimeError("prover broke")
            super().__init__(argv, *args, **kwargs)
            self.label = label
            log.append(("start", label))

        def wait(self, timeout=None):
            running = self.returncode is None
            code = super().wait(timeout)
            if running:
                log.append(("end", self.label))
            return code

    monkeypatch.setattr(subprocess, "Popen", Logged)
    return log


def most_running(log: list) -> int:
    running = most = 0
    for event, _ in log:
        running += {"start": 1, "end": -1}.get(event, 0)
        most = max(most, running)
    return most


def assert_all_reaped(log: list) -> None:
    started = [label for event, label in log if event == "start"]
    assert sorted(label for event, label in log if event == "end") == sorted(started)


@pytest.mark.parametrize("jobs", [1, 2])
def test_discharge_all_makes_at_most_one_text_ahead(fake_prover, provers, jobs):
    config = ProverConfig(f"{fake_prover('sleep 0.01; ' + THEOREM)} {{file}}")
    results = discharge_all(config, Pairs(6, provers), jobs=jobs)
    assert list(results) == [f"t{k}" for k in range(1, 7)]
    for k in range(1, 7):
        before = [event for event, _ in provers[:provers.index(("make", f"t{k}"))]]
        assert before.count("start") == k - 1, provers  # every text before it has started
        assert before.count("end") >= k - jobs - 1, provers
    assert most_running(provers) == jobs
    assert_all_reaped(provers)


def test_discharge_all_returns_results_in_task_order(fake_prover, tmp_path):
    finished = tmp_path / "finished"
    script = fake_prover('case "$1" in *slow.p) sleep 0.5;; esac\n'
                         f'basename "$1" >> "{finished}"\nbasename "$1"\n{THEOREM}')
    results = discharge_all(ProverConfig(f"{script} {{file}}"), [("slow", "a"), ("fast", "b")],
                            jobs=2)
    assert finished.read_text().split() == ["fast.p", "slow.p"]
    assert list(results) == ["slow", "fast"]
    assert [r.stdout.split()[0] for r in results.values()] == ["slow.p", "fast.p"]


def test_discharge_all_loses_no_result_over_300_tasks(provers):
    # More provers than cores, each ending almost at once.
    start = time.monotonic()
    results = discharge_all(ProverConfig("cat {file}"), Pairs(300, []), jobs=8)
    assert time.monotonic() - start < 30
    assert list(results) == [f"t{k}" for k in range(1, 301)]
    assert all(r.stdout == f"text {label[1:]}" for label, r in results.items())
    assert sorted(label for event, label in provers if event == "start") == sorted(results)
    assert 1 <= most_running(provers) <= 8
    assert_all_reaped(provers)


def test_discharge_all_runs_no_more_workers_than_tasks(fake_prover, provers):
    config = ProverConfig(f"{fake_prover('sleep 0.05; ' + THEOREM)} {{file}}")
    assert list(discharge_all(config, [("a", "x"), ("b", "y")], jobs=8)) == ["a", "b"]
    assert most_running(provers) == 2


def test_discharge_all_starts_a_prover_per_task_drawn_at_most(fake_prover, provers):
    # A fourth start raises, so a huge `jobs` cannot start more than three
    # provers even when the loop ignores the task count.
    provers.refuse = "d"
    pairs = [("a", "x"), ("b", "y"), ("c", "z")]
    config = ProverConfig(f"{fake_prover(THEOREM)} {{file}}")
    assert list(discharge_all(config, pairs, jobs=2**62)) == ["a", "b", "c"]
    assert [label for event, label in provers if event == "start"] == ["a", "b", "c"]


def test_solve_starts_no_thread(corpus_dir, fake_prover, monkeypatch, capsys):
    def refuse(thread):
        raise AssertionError(f"a thread started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    script = fake_prover(THEOREM)
    assert run(["solve", str(corpus_dir / "list_append.p"), "--prover", f"{script} {{file}}",
                "--jobs", "2"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("% SZS status Theorem for "
                                            f"{corpus_dir / 'list_append.p'}\n")


@pytest.mark.parametrize("jobs", [1, 2])
def test_discharge_all_draws_nothing_after_a_text_fails(fake_prover, provers, jobs):
    pairs = Pairs(6, [], fail_at=3)
    with pytest.raises(RuntimeError, match="no text"):
        discharge_all(ProverConfig(f"{fake_prover(THEOREM)} {{file}}"), pairs, jobs=jobs)
    assert pairs.drawn == 3
    assert sorted(label for event, label in provers if event == "start") == ["t1", "t2"]
    assert_all_reaped(provers)


@pytest.mark.parametrize("jobs", [1, 2])
def test_discharge_all_draws_nothing_after_a_prover_raises(fake_prover, provers, jobs):
    # The start of t<jobs + 1> raises once t1 has ended, with t2 to t<jobs>
    # still running; the pair drawn ahead is the last one drawn.
    provers.refuse = f"t{jobs + 1}"
    pairs = Pairs(6, [])
    with pytest.raises(RuntimeError, match="prover broke"):
        discharge_all(ProverConfig(f"{fake_prover('sleep 0.05; ' + THEOREM)} {{file}}"),
                      pairs, jobs=jobs)
    assert pairs.drawn == jobs + 1
    assert [label for event, label in provers if event == "start"] == \
        [f"t{k}" for k in range(1, jobs + 1)]
    assert_all_reaped(provers)


def test_discharge_all_refuses_a_repeated_label(fake_prover, provers):
    config = ProverConfig(f"{fake_prover(THEOREM)} {{file}}")
    with pytest.raises(ValueError, match="duplicate prover task label 'a'"):
        discharge_all(config, [("a", "x"), ("a", "y")])
    assert_all_reaped(provers)


def _group_left(pgid: int) -> list:
    """The processes of process group pgid, zombies aside."""
    left = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _, group = handle.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(group) == pgid and state != "Z":
            left.append(int(entry))
    return left


def _await_lines(path, n: int, seconds: float = 10) -> list:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if path.exists() and len(lines := path.read_text().split()) >= n:
            return [int(pid) for pid in lines]
        time.sleep(0.01)
    raise AssertionError(f"{path} never had {n} lines")


# Each prover writes its pid, which is its process group, and waits on a child.
SLEEPER = "sleep 20 &\necho $$ >> '{pids}'\nwait"


def test_discharge_all_kills_its_provers_when_interrupted(fake_prover, tmp_path, own_tmpdir,
                                                          monkeypatch):
    pids = tmp_path / "pids"
    select = selectors.DefaultSelector.select

    class Interrupted(selectors.DefaultSelector):
        def select(self, timeout=None):  # Ctrl-C, once both provers run
            _await_lines(pids, 2)
            os.kill(os.getpid(), signal.SIGINT)
            return select(self, timeout)

    monkeypatch.setattr(selectors, "DefaultSelector", Interrupted)
    pairs = Pairs(6, [])
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        discharge_all(ProverConfig(f"{fake_prover(SLEEPER.format(pids=pids))} {{file}}"),
                      pairs, jobs=2)
    assert time.monotonic() - start < 10
    assert pairs.drawn == 3
    assert all(_group_left(pgid) == [] for pgid in _await_lines(pids, 2))
    assert_left_nothing(own_tmpdir)


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_interrupted_solve_kills_its_provers_and_exits_130(corpus_dir, fake_prover, tmp_path,
                                                              jobs):
    pids = tmp_path / "pids"
    script = fake_prover(SLEEPER.format(pids=pids))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dtf", "solve", str(corpus_dir / "list_append.p"),
         "--prover", f"{script} {{file}}", "--jobs", str(jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
    try:
        groups = _await_lines(pids, jobs)
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        _, err = proc.communicate(timeout=10)
        assert time.monotonic() - start < 2
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, err) == (EXIT_INTERRUPT, "dtf: interrupted\n")
    assert all(_group_left(pgid) == [] for pgid in groups)


def test_a_stray_byte_in_the_output_keeps_the_verdict(corpus_dir, fake_prover, capsys):
    script = fake_prover("printf '\\377\\n'\necho \"% SZS status Theorem for $1\"")
    path = corpus_dir / "list_append.p"
    assert run(["solve", str(path), "--prover", f"{script} {{file}}"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f"% SZS status Theorem for {path}\n")
    assert "�" in run_prover(ProverConfig(f"{script} {{file}}"), "x").stdout


@pytest.mark.parametrize("case", ["proved", "error", "timeout", "raise"])
def test_discharge_all_keeps_at_most_jobs_task_files(fake_prover, own_tmpdir, tmp_path,
                                                     monkeypatch, case):
    # Each prover counts the files of its run directory, its own included.
    counts = tmp_path / "counts"
    body = f'ls -A "$(dirname "$1")" | wc -l >> "{counts}"\n'
    body += "sleep 5\n" if case == "timeout" else "sleep 0.02\n"
    config = ProverConfig(f"{fake_prover(body + 'echo % SZS status Theorem')} {{file}}",
                          timeout=0.3 if case == "timeout" else 10)
    if case == "error":
        config = ProverConfig("/nonexistent/prover_binary {file}", timeout=10)
    if case == "raise":
        class Broken(selectors.DefaultSelector):
            def select(self, timeout=None):  # the wait, once something is read
                super().select(timeout)
                raise RuntimeError("wait broke")
        monkeypatch.setattr(selectors, "DefaultSelector", Broken)

    pairs = [(f"t{k}", "thf(a, axiom, $true).") for k in range(5)]
    if case == "raise":
        with pytest.raises(RuntimeError, match="wait broke"):
            discharge_all(config, pairs, jobs=2)
    else:
        results = discharge_all(config, pairs, jobs=2)
        assert list(results) == [label for label, _ in pairs]
        expected = {"proved": "Theorem", "error": "Error", "timeout": "Timeout"}[case]
        assert {r.verdict.status for r in results.values()} == {expected}
    assert_left_nothing(own_tmpdir)
    if case != "error":
        assert 1 <= max(int(n) for n in counts.read_text().split()) <= 2


@pytest.mark.parametrize("label, name", [
    ("ob1", "ob1.p"),
    ("../../up", "..%2F..%2Fup.p"),
    ("a%2Fb", "a%252Fb.p"),
    ("nul\0x", "nul%00x.p"),
    ("a" * 253, "a" * 253 + ".p"),  # 255 bytes, the longest name kept whole
])
def test_task_files_are_named_by_their_escaped_labels(fake_prover, tmp_path, own_tmpdir,
                                                      label, name):
    seen = tmp_path / "seen"
    script = fake_prover(f"basename \"$1\" > '{seen}'\necho '% SZS status Theorem'")
    results = discharge_all(ProverConfig(f"{script} {{file}}"), [(label, "x")])
    assert results[label].verdict.proved
    assert seen.read_text().strip() == name
    assert_left_nothing(own_tmpdir)


# Each label escapes to a stem of more than 253 bytes of UTF-8.
@pytest.mark.parametrize("label", ["a" * 300, "/" * 100, "\u00e9" * 200],
                         ids=["300_chars", "100_slashes", "200_e_acute"])
def test_solve_runs_a_conjecture_whose_label_is_too_long_for_a_file_name(
        fake_prover, tmp_path, own_tmpdir, capsys, label):
    path = tmp_path / "long.p"
    path.write_text(f"thf(a_type, type, a: $o).\nthf('{label}', conjecture, a => a).\n",
                    encoding="utf-8")
    script = fake_prover("test -f \"$1\" && echo '% SZS status Theorem'")
    assert run(["solve", "--prover", f"{script} {{file}}", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"{label}: Theorem (")
    assert out.endswith(f"% SZS status Theorem for {path}\n")
    assert_left_nothing(own_tmpdir)


def test_long_labels_with_a_common_prefix_get_distinct_short_names(fake_prover, tmp_path,
                                                                   own_tmpdir):
    seen = tmp_path / "seen"
    script = fake_prover(f"basename \"$1\" >> '{seen}'\necho '% SZS status Theorem'")
    labels = ["x" * 250 + "a" * 50, "x" * 250 + "b" * 50, "a" * 254]
    results = discharge_all(ProverConfig(f"{script} {{file}}"), [(label, "x") for label in labels])
    assert all(results[label].verdict.proved for label in labels)
    names = seen.read_text(encoding="utf-8").split()
    assert len(set(names)) == 3
    for name in names:
        assert len(name.encode("utf-8")) <= 255
        assert re.fullmatch(r"[xab]+%H[0-9a-f]{64}\.p", name)
    assert_left_nothing(own_tmpdir)


def test_run_prover_alone_cleans_up_its_directory(fake_prover, own_tmpdir):
    script = fake_prover("echo '% SZS status Theorem'")
    assert run_prover(ProverConfig(f"{script} {{file}}"), "x", "../../up").verdict.proved
    assert_left_nothing(own_tmpdir)


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
