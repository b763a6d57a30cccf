"""Client for an external HOL (TH0) prover.

The prover is an arbitrary command template containing a single `{file}`
placeholder.  Results are classified by the first `SZS status` line of the
prover's output; anything else degrades to Unknown or Error rather than
guessing.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

DEFAULT_TIMEOUT = 30.0
PROVER_ENV_VAR = "DTF_PROVER"

#: Status words reported as-is; everything else becomes Unknown.
KNOWN_STATUSES = frozenset({
    "Theorem", "CounterSatisfiable", "Unsatisfiable", "Satisfiable",
    "Timeout", "GaveUp", "Error", "Unknown",
})


@dataclass(frozen=True)
class ProverConfig:
    command: str
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        if self.command.count("{file}") != 1:
            raise ValueError(
                "prover command must contain exactly one '{file}' placeholder")
        if self.timeout <= 0:
            raise ValueError("prover timeout must be positive")

    def argv(self, path: str) -> list:
        return [part.replace("{file}", path) for part in shlex.split(self.command)]


@dataclass(frozen=True)
class SzsVerdict:
    status: str                # canonical word (member of KNOWN_STATUSES)
    raw: str | None = None     # the exact status line, when one was seen

    @property
    def proved(self) -> bool:
        return self.status == "Theorem"


@dataclass(frozen=True)
class ProverResult:
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


def run_prover(config: ProverConfig, problem_text: str,
               stem: str = "problem") -> ProverResult:
    """Run the prover on a TH0 problem given as text."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="dtf_prover_") as tmp:
        path = os.path.join(tmp, f"{stem}.p")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(problem_text)
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
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            stdout, stderr = proc.communicate()
            return ProverResult(
                SzsVerdict("Timeout", None), stdout or "", stderr or "",
                proc.returncode, time.monotonic() - start, timed_out=True)
    elapsed = time.monotonic() - start
    verdict = parse_szs(stdout) or parse_szs(stderr)
    if verdict is None:
        verdict = SzsVerdict("Unknown" if proc.returncode == 0 else "Error", None)
    return ProverResult(verdict, stdout, stderr, proc.returncode, elapsed)


def discharge_all(config: ProverConfig, problems, jobs: int = 1) -> dict:
    """Prove many (label, problem_text) pairs; returns label -> ProverResult."""
    items = list(problems)
    with ThreadPoolExecutor(max_workers=max(1, min(jobs, len(items)))) as pool:
        futures = {label: pool.submit(run_prover, config, text, label)
                   for label, text in items}
    return {label: future.result() for label, future in futures.items()}


def config_from_env(command: str | None = None,
                    timeout: float | None = None) -> ProverConfig | None:
    """Build a config from an explicit command or the DTF_PROVER variable;
    no timeout means DEFAULT_TIMEOUT."""
    command = command or os.environ.get(PROVER_ENV_VAR)
    if not command:
        return None
    return ProverConfig(command, DEFAULT_TIMEOUT if timeout is None else timeout)
