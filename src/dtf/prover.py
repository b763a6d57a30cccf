"""Client for an external HOL (TH0) prover.

The prover is an arbitrary command template containing a single `{file}`
placeholder.  Results are classified by the first `SZS status` line of the
prover's output; anything else degrades to Unknown or Error rather than
guessing.

`discharge_all` runs many tasks as a pipeline on one thread: while at most
`jobs` provers run, it makes the next task's text.  An error or an interrupt
kills every running prover's process group, and no task file outlives the run.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import shlex
import signal
import subprocess
import tempfile
import time
from typing import NamedTuple

from .core import Record

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
        _, found, rest = line.partition("SZS status")
        if found and rest.split():
            statuses.append((rest.split()[0], line.strip()))
    if not statuses:
        return None
    first_word, first_line = statuses[0]
    if any(word != first_word for word, _ in statuses[1:]):
        return SzsVerdict("Error", first_line)
    return SzsVerdict(first_word if first_word in KNOWN_STATUSES else "Unknown", first_line)


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
    """Run the prover on a TH0 problem given as text, the one task of a
    `discharge_all` run.  The text goes in the file of `stem` in `directory`,
    removed once the prover has ended; by default, in a run directory of its own."""
    if directory is None:
        return discharge_all(config, [(stem, problem_text)])[stem]
    return _prove(config, [(stem, problem_text)], 1, directory)[stem]


def discharge_all(config: ProverConfig, problems, jobs: int = 1) -> dict:
    """Prove (label, problem_text) pairs; returns label -> ProverResult, in
    the order of the pairs.

    At most `jobs` provers (at least one) run at once, and while they run
    the next pair is drawn, so that a generator makes each text while earlier
    provers run.  Once drawing a pair or starting a prover raises, or the
    wait is interrupted, no further pair is drawn: every running prover's
    process group is killed and reaped, and the exception is raised again.
    Labels must be distinct: they key the results and name the task files."""
    with tempfile.TemporaryDirectory(prefix="dtf_prover_") as run_dir:
        return _prove(config, problems, max(1, jobs), run_dir)


class _Running:
    """A started prover, and the bytes read so far from each of its pipes."""
    __slots__ = ("label", "path", "proc", "begun", "killed", "chunks")


def _prove(config: ProverConfig, problems, jobs: int, directory: str) -> dict:
    """`discharge_all`'s loop: one selector reads every running prover's pipes
    until the nearest deadline, and the pair drawn ahead replaces each prover
    that is reaped once both its pipes have ended."""
    tasks, results, running = iter(problems), {}, []
    selector = selectors.DefaultSelector()

    def draw():
        pair = next(tasks, None)
        if pair is not None:
            if pair[0] in results:
                raise ValueError(f"duplicate prover task label {pair[0]!r}")
            results[pair[0]] = None  # holds the label's place in task order
        return pair

    def start(label, text) -> None:
        run = _Running()
        run.label, run.path, run.killed = label, _task_file(directory, label), False
        run.begun = time.monotonic()
        with open(run.path, "w", encoding="utf-8") as handle:
            handle.write(text)
        try:
            run.proc = subprocess.Popen(config.argv(run.path), stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, start_new_session=True)
        except OSError as exc:
            _remove(run.path)
            results[label] = ProverResult(
                SzsVerdict("Error", None), "", str(exc), None, time.monotonic() - run.begun)
            return
        run.chunks = {run.proc.stdout: [], run.proc.stderr: []}
        running.append(run)
        for pipe in run.chunks:
            selector.register(pipe, selectors.EVENT_READ, run)

    def finish(run: _Running) -> None:
        # Both pipes have ended: the prover has ended, or has closed them.
        if not run.killed:
            try:
                run.proc.wait(max(0.0, run.begun + config.timeout - time.monotonic()))
            except subprocess.TimeoutExpired:
                _kill(run)
        returncode = run.proc.wait()
        _remove(run.path)
        running.remove(run)
        # In UTF-8 whatever the locale, with line ends as a text-mode pipe reads them.
        out, err = (b"".join(chunks).decode("utf-8", "replace").replace("\r\n", "\n")
                    .replace("\r", "\n") for chunks in run.chunks.values())
        verdict = SzsVerdict("Timeout", None) if run.killed else (
            parse_szs(out) or parse_szs(err)
            or SzsVerdict("Unknown" if returncode == 0 else "Error", None))
        results[run.label] = ProverResult(verdict, out, err, returncode,
                                          time.monotonic() - run.begun, run.killed)

    try:
        ahead = draw()
        while ahead is not None or running:
            if ahead is not None and len(running) < jobs:
                start(*ahead)
                ahead = draw()
                continue
            deadlines = [run.begun + config.timeout for run in running if not run.killed]
            timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            for key, _ in selector.select(timeout):
                if data := os.read(key.fd, 32768):
                    key.data.chunks[key.fileobj].append(data)
                    continue
                selector.unregister(key.fileobj)
                key.fileobj.close()
                if all(pipe.closed for pipe in key.data.chunks):
                    finish(key.data)
            now = time.monotonic()
            for run in running:
                if not run.killed and run.begun + config.timeout <= now:
                    _kill(run)  # its pipes end soon after, and finish reaps it
    except BaseException:
        for run in running:
            _kill(run)
            for pipe in run.chunks:
                pipe.close()
            run.proc.wait()
            _remove(run.path)
        raise
    finally:
        selector.close()
    return results


def _kill(run: _Running) -> None:
    """Kill the prover's process group, so that nothing it started outlives it."""
    run.killed = True
    try:
        os.killpg(run.proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        run.proc.kill()


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):  # the prover may have removed it
        os.remove(path)


def config_from_env(command: str | None = None,
                    timeout: float | None = None) -> ProverConfig | None:
    """Build a config from an explicit command or the DTF_PROVER variable;
    no timeout means DEFAULT_TIMEOUT."""
    command = command or os.environ.get(PROVER_ENV_VAR)
    if not command:
        return None
    return ProverConfig(command, DEFAULT_TIMEOUT if timeout is None else timeout)
