"""Client for an external HOL (TH0) prover.

The prover is an arbitrary command template containing a single `{file}`
placeholder.  Results are classified by the first `SZS status` line of the
prover's output; anything else degrades to Unknown or Error rather than
guessing.

`discharge_all` runs many tasks as a pipeline: on at most `jobs` plain
threads, each worker draws the next (label, text) pair only when its prover
has ended, so a generator of pairs makes each text while earlier provers
run.  All task files of one call go in one temporary run directory, each
named by its escaped label and removed when its prover has ended.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from typing import NamedTuple

from .core import Record, in_own_chunk

DEFAULT_TIMEOUT = 30.0
#: The longest timeout the wait can take: poll() counts 2**31 - 1 milliseconds.
MAX_TIMEOUT = (2**31 - 1) / 1000
PROVER_ENV_VAR = "DTF_PROVER"

#: Status words reported as-is; everything else becomes Unknown.
KNOWN_STATUSES = frozenset({
    "Theorem", "CounterSatisfiable", "Unsatisfiable", "Satisfiable",
    "Timeout", "GaveUp", "Error", "Unknown",
})


class ProverConfig(Record):
    __slots__ = _fields = ("command", "timeout")

    def __init__(self, command: str, timeout: float = DEFAULT_TIMEOUT):
        if command.count("{file}") != 1:
            raise ValueError(
                "prover command must contain exactly one '{file}' placeholder")
        if timeout <= 0:
            raise ValueError("prover timeout must be positive")
        if not timeout <= MAX_TIMEOUT:  # NaN too
            raise ValueError(f"prover timeout must be at most {MAX_TIMEOUT} seconds")
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "timeout", timeout)

    def argv(self, path: str) -> list:
        return [part.replace("{file}", path) for part in shlex.split(self.command)]


class SzsVerdict(NamedTuple):
    status: str                # canonical word (member of KNOWN_STATUSES)
    raw: str | None = None     # the exact status line, when one was seen

    @property
    def proved(self) -> bool:
        return self.status == "Theorem"


class ProverResult(NamedTuple):
    verdict: SzsVerdict
    stdout: str
    stderr: str
    returncode: int | None
    elapsed: float
    timed_out: bool = False


def parse_szs(output: str) -> SzsVerdict | None:
    """Extract the SZS verdict from prover output.

    Uses the first status line; later lines reporting a different status
    turn the verdict into Error (the output is inconsistent).
    """
    statuses: list = []
    for line in output.splitlines():
        idx = line.find("SZS status")
        if idx < 0:
            continue
        rest = line[idx + len("SZS status"):].strip()
        word = rest.split()[0] if rest.split() else ""
        if word:
            statuses.append((word, line.strip()))
    if not statuses:
        return None
    first_word, first_line = statuses[0]
    if any(word != first_word for word, _ in statuses[1:]):
        return SzsVerdict("Error", first_line)
    if first_word in KNOWN_STATUSES:
        return SzsVerdict(first_word, first_line)
    return SzsVerdict("Unknown", first_line)


def _task_file(directory: str, stem: str) -> str:
    """The problem file of the task `stem` in `directory`.  The stem is
    escaped (`%`, `/` and NUL as `%25`, `%2F` and `%00`), so that the file
    lies in `directory` whatever the label, and distinct stems name distinct
    files.  A name past the 255 bytes a file name may take keeps a prefix and
    ends in `%H` and a digest of the whole escaped stem; no escaped stem holds
    `%H`, so it names no other task's file."""
    name = stem.replace("%", "%25").replace("/", "%2F").replace("\0", "%00")
    encoded = name.encode("utf-8")
    if len(encoded) + len(".p") > 255:
        import hashlib
        digest = hashlib.sha256(encoded).hexdigest()
        keep = 255 - len(".p") - len("%H") - len(digest)
        name = encoded[:keep].decode("utf-8", "ignore") + "%H" + digest
    return os.path.join(directory, f"{name}.p")


def run_prover(config: ProverConfig, problem_text: str, stem: str = "problem",
               directory: str | None = None) -> ProverResult:
    """Run the prover on a TH0 problem given as text.  The text is written to
    the file of `stem` in `directory`, which is removed once the prover has
    ended; without a directory, in a temporary directory of its own."""
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="dtf_prover_") as tmp:
            return _run_in(config, problem_text, _task_file(tmp, stem))
    return _run_in(config, problem_text, _task_file(directory, stem))


def _run_in(config: ProverConfig, problem_text: str, path: str) -> ProverResult:
    start = time.monotonic()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(problem_text)
    try:
        try:
            proc = subprocess.Popen(
                config.argv(path),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as exc:
            return ProverResult(
                SzsVerdict("Error", None), "", str(exc), None,
                time.monotonic() - start)
        try:
            stdout, stderr = proc.communicate(timeout=config.timeout)
        except BaseException as exc:
            # Kill the prover's process group and reap the prover, however
            # the wait ended, so that nothing it started outlives dtf.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            stdout, stderr = proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return ProverResult(
                SzsVerdict("Timeout", None), stdout or "", stderr or "",
                proc.returncode, time.monotonic() - start, timed_out=True)
    finally:
        # The prover has ended; it may have removed its input itself.
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    elapsed = time.monotonic() - start
    verdict = parse_szs(stdout) or parse_szs(stderr)
    if verdict is None:
        verdict = SzsVerdict("Unknown" if proc.returncode == 0 else "Error", None)
    return ProverResult(verdict, stdout, stderr, proc.returncode, elapsed)


def discharge_all(config: ProverConfig, problems, jobs: int = 1) -> dict:
    """Prove (label, problem_text) pairs; returns label -> ProverResult, in
    the order of the pairs.

    At most `jobs` workers (at least one) run the prover, each on a thread
    started when a pair is drawn for it.  A worker draws the next pair only
    when its prover has ended, so when `problems` is a generator each text
    is made only once a worker is free to prove it.  Every task file goes in
    one temporary run directory.  Once drawing a pair or running a prover
    raises, no further pair is drawn: the provers already started are
    reaped, and the first exception is raised again.  Labels must be
    distinct, as they key the results and name the task files.
    """
    tasks = iter(problems)
    results: dict = {}
    errors: list = []
    lock = threading.Lock()  # guards all three; a generator runs in one thread at a time

    def fail(exc: BaseException) -> None:
        with lock:
            errors.append(exc)

    def draw():
        with lock:
            if errors:
                return None
            try:
                label, text = next(tasks)
                if label in results:
                    raise ValueError(f"duplicate prover task label {label!r}")
            except StopIteration:
                return None
            except BaseException as exc:
                errors.append(exc)
                return None
            results[label] = None  # holds the label's place in task order
            return label, text

    def work(task, run_dir: str) -> None:
        while task is not None:
            label, text = task
            try:
                result = run_prover(config, text, label, run_dir)
            except BaseException as exc:
                fail(exc)
                return
            with lock:
                results[label] = result
            task = draw()

    with tempfile.TemporaryDirectory(prefix="dtf_prover_") as run_dir:
        threads: list = []
        try:
            while len(threads) < max(1, jobs) and (task := draw()) is not None:
                thread = threading.Thread(target=in_own_chunk, args=(work, task, run_dir))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        except BaseException as exc:  # an interrupt, or a thread that would not start
            fail(exc)
            for thread in threads:
                thread.join()
    if errors:
        raise errors[0]
    return results


def config_from_env(command: str | None = None,
                    timeout: float | None = None) -> ProverConfig | None:
    """Build a config from an explicit command or the DTF_PROVER variable;
    no timeout means DEFAULT_TIMEOUT."""
    command = command or os.environ.get(PROVER_ENV_VAR)
    if not command:
        return None
    return ProverConfig(command, DEFAULT_TIMEOUT if timeout is None else timeout)
