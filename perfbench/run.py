"""Benchmark for the dtf command line tool: time to verdict, layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

`--workload all` runs every workload untraced and traced and prints every
metric.

Workloads (each a closed loop with one client: one `dtf` process after
another, the next started when the previous one has exited):

- axioms:    many axioms, short index terms; `check --deep` and
             `translate --assume-obligations`.  The deep check's assumption
             scan dominates.
- terms:     a few axioms with long index terms plus the corpus; `parse`,
             `check` and `stats` on several files per invocation, and `check`
             on the negative corpus.  The tokenizer and parser dominate and
             the deep check never runs.
- discharge: a mid-size problem with mostly residual obligations;
             `obligations --out-dir` and `solve` with the fake prover in
             this directory and `--jobs` set to the number of usable CPUs.

With `--trace 0` the workload's commands run as real CLI processes, untraced,
for `--seconds` seconds after a short warm-up; the end-to-end metrics
come from these runs.  Times to verdict are reported relative to a fixed
reference program timed in the same run (see `timed_run`), with absolute
times printed beside them.  With `--trace 1` the same argument lists run
through `dtf.cli.run` in process, alternating untraced and traced
repetitions, and the per-layer metrics come from the spans of the traced
ones.  Every output is checked against answers the generator derives from
its construction.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A results file with the Python version,
the CPU count, the seed and the commit goes to `.perfbench/` in the
repository root, next to the spans of the last traced repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("axioms", "terms", "discharge")
DOUBLING_PAIRS = 7       # n and n/2 deep checks per traced run
EMPTY_PER_ROUND = 3      # empty-problem runs per traced round, for cli.overhead_s
COMMAND_TIMEOUT = 150.0  # seconds before a hung dtf process is killed

# The reference program: process start, interpreter start and about as much
# dict, string and regex work as the empty-problem run, from the standard
# library only.  Runs as `python -I -c REFERENCE`.
REFERENCE = (
    "import json, re\n"
    "table = {}\n"
    "for i in range(40000):\n"
    "    table[f'k{i}'] = (i, re.escape(str(i)), [i] * 3)\n"
    "json.dumps(sorted(table)[:1000])\n"
)
# Median wall time of the reference program on an idle 2-core x86-64 machine
# with Python 3.11.  `setup_s` is the set-up time relative to the reference,
# scaled back to seconds by this constant.
REFERENCE_S = 0.15

# name -> (unit, better, layer, what it should move).  End-to-end metrics come
# from untraced CLI processes; the others from the traced in-process run.
END_TO_END = {
    "setup_s": ("s", "lower", "cli", "wall time of `dtf check` on an empty problem "
                "(interpreter start plus imports), sampled once per repetition right "
                "after the fixed reference program: the median of set-up over reference "
                "per pair, times REFERENCE_S"),
    "verdict_rel": ("ref", "lower", "all", "time to verdict of one repetition of the command "
                    "sequence relative to the fixed reference program, sampled before every "
                    "timed command: the sum over commands of the median of wall time over "
                    "the latest reference sample"),
    "peak_rss_mb": ("MB", "lower", "all", "largest ru_maxrss of the workload's dtf processes"),
}
PER_LAYER = {
    "syntax.tokenize_s": ("s", "syntax", "parse_s, check_s, stats_s, verdict_rel on terms; "
                          "about a quarter of check_deep_s on axioms"),
    "syntax.parse_self_s": ("s", "syntax", "time in parse_file not spent in tokenize; "
                            "same as syntax.tokenize_s"),
    "syntax.tokens": ("count", "syntax", "work count behind syntax.tokenize_s"),
    "syntax.tokens_per_s": ("1/s", "syntax", "tokenizer throughput; verdict_rel on terms"),
    "syntax.input_kb": ("kB", "syntax", "bytes handed to parse_file; work count"),
    "shallow.check_s": ("s", "shallow", "check_s on terms, where it is a small share"),
    "deep.check_s": ("s", "deep", "check_deep_s, translate_s, verdict_rel on axioms; part of "
                     "obligations_s and solve_s on discharge; 0 on terms"),
    "deep.self_s": ("s", "deep", "deep.check_s minus the wrapped core calls; as deep.check_s"),
    "deep.emit_calls": ("count", "deep", "obligations emitted; as deep.check_s"),
    "deep.emit_s": ("s", "deep", "DeepChecker.emit, including the assumption lookup; "
                    "as deep.check_s"),
    "deep.residual": ("count", "deep", "obligations left residual; as deep.check_s"),
    "deep.discharged": ("count", "deep", "obligations discharged; as deep.check_s"),
    "deep.doubling_ratio": ("ratio", "deep", "check_problem time at n axioms over n/2 "
                            "on axioms (0 elsewhere); check_deep_s on axioms"),
    "core.normalize_calls": ("count", "core", "beta_eta_normalize calls from deep; "
                             "as deep.check_s, mainly on axioms"),
    "core.normalize_s": ("s", "core", "as deep.check_s, mainly on axioms"),
    "core.alpha_calls": ("count", "core", "alpha_equal calls from deep; as deep.check_s"),
    "core.alpha_s": ("s", "core", "as deep.check_s, mainly on axioms"),
    "core.alpha_hit_ratio": ("ratio", "core", "alpha_equal calls returning True over calls; "
                             "useful share of the lookup's comparisons"),
    "deep.obligation_problem_s": ("s", "deep", "obligations_s and solve_s on discharge"),
    "deep.export_s": ("s", "deep", "obligations_s on discharge"),
    "erasure.calls": ("count", "erasure", "erase_problem calls; work count"),
    "erasure.erase_s": ("s", "erasure", "solve_s on discharge, translate_s on axioms"),
    "printer.print_th0_s": ("s", "printer", "solve_s on discharge, translate_s on axioms"),
    "printer.print_problem_s": ("s", "printer", "obligations_s on discharge (print_problem "
                                "outside print_th0)"),
    "printer.out_kb": ("kB", "printer", "characters printed by print_th0 and print_problem"),
    "prover.tasks": ("count", "prover", "run_prover calls; solve_s on discharge"),
    "prover.discharge_s": ("s", "prover", "discharge_all span; solve_s on discharge"),
    "prover.busy_s": ("s", "prover", "sum of run_prover durations; solve_s on discharge"),
    "prover.queue_wait_s": ("s", "prover", "sum over tasks of start of run_prover minus "
                            "start of discharge_all; solve_s on discharge"),
    "prover.failed": ("count", "prover", "verdicts other than Theorem"),
    "cli.run_s": ("s", "cli", "in-process cli.run time per repetition, traced"),
    "cli.overhead_s": ("s", "cli", "fastest CLI process wall time on the empty problem minus "
                       "the fastest in-process cli.run on it; setup_s everywhere, most on "
                       "terms, where small corpus files are dominated by it"),
    "trace.slowdown": ("ratio", "trace", "fastest traced over fastest untraced in-process "
                       "repetition time (tracing overhead)"),
}


# ---------------------------------------------------------------------------
# Workloads: argument lists with known answers


@dataclass
class Invocation:
    name: str                   # command metric without the _s suffix, or a label
    argv: list                  # arguments after `dtf`
    inputs: list                # files the command reads
    verify: object              # (code, out, err) -> list of mismatch messages
    prepare: object = None      # called before every run (clears output directories)
    timed: bool = True          # reported as <name>_s

    @property
    def input_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.inputs)


@dataclass
class Workload:
    invocations: list
    empty: str
    half: tuple = ()            # (n-axiom problem, n/2-axiom problem) for the doubling ratio
    notes: dict = field(default_factory=dict)


def _mismatch(label: str, expected, got) -> list:
    return [] if expected == got else [f"{label}: expected {expected!r}, got {got!r}"]


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _corpus_roles(path: str) -> dict:
    """Role counts of a corpus file, read from its `thf(name, role,` headers."""
    text = re.sub(r"%[^\n]*", "", Path(path).read_text(encoding="utf-8"))
    counts: dict = {}
    for role in re.findall(r"\bthf\(\s*\w+\s*,\s*(\w+)\s*,", text):
        counts[role] = counts.get(role, 0) + 1
    return counts


def _documented_exit(path: str) -> int:
    """A negative corpus file documents its exit code as `(exit N)` in its header."""
    match = re.search(r"\(exit (\d)\)", Path(path).read_text(encoding="utf-8"))
    if match is None:
        raise SystemExit(f"perfbench: {path} documents no exit code")
    return int(match.group(1))


def _roles_summary(counts: dict) -> str:
    return ", ".join(f"{r}: {n}" for r, n in sorted(counts.items()))


def _check_deep_verifier(expected):
    def verify(code, out, err):
        lines = out.splitlines()
        residual = [m.group(1) for m in map(re.compile(r"(ob\d+) \[residual\]").match, lines) if m]
        discharged = {m.group(1): m.group(2) for m in
                      map(re.compile(r"(ob\d+) \[discharged by (.+?)\]:").match, lines) if m}
        return (_mismatch("exit code", 0, code) + _mismatch("stderr", "", err)
                + _mismatch("residual labels", list(expected.residual), residual)
                + _mismatch("discharged", expected.discharged_by, discharged)
                + _mismatch("summary", expected.check_summary(), lines[-1] if lines else None))
    return verify


def _translate_verifier(expected, dtf):
    verified: dict = {}   # sha256 of output -> mismatches; outputs repeat every run

    def verify(code, out, err):
        problems = _mismatch("exit code", 0, code) + _mismatch("stderr", "", err)
        key = hashlib.sha256(out.encode()).hexdigest()
        if key not in verified:
            found = []
            assumed = re.findall(r"^thf\((\w+)_assumed,", out, re.M)
            found += _mismatch("assumed obligations", list(expected.residual), assumed)
            problem = dtf.syntax.parse_problem(out, "translated.p")
            if isinstance(problem, list):
                found.append(f"translate output does not re-parse: {problem[0].format()}")
            else:
                found += [f"translate output fails check_shallow: {d.format()}"
                          for d in dtf.shallow.check_shallow(problem)]
            verified[key] = found
        return problems + verified[key]
    return verify


def _parse_verifier(expected_lines):
    def verify(code, out, err):
        return (_mismatch("exit code", 0, code) + _mismatch("stderr", "", err)
                + _mismatch("parse lines", expected_lines, out.splitlines()))
    return verify


def _silent_verifier(code, out, err):
    return (_mismatch("exit code", 0, code) + _mismatch("stdout", "", out)
            + _mismatch("stderr", "", err))


def _stats_verifier(generated: str, expected, corpus: list):
    def verify(code, out, err):
        blocks = [b.splitlines() for b in out.split("\n\n")]
        problems = _mismatch("exit code", 0, code) + _mismatch("stderr", "", err)
        problems += _mismatch("stats blocks", 1 + len(corpus), len(blocks))
        if blocks:
            problems += _mismatch("stats of generated file", expected.stats_block(generated),
                                  blocks[0])
        for path, block in zip(corpus, blocks[1:]):
            roles = _corpus_roles(path)
            head = [f"file: {path}",
                    f"formulae: {sum(roles.values())} ({_roles_summary(roles)})"]
            problems += _mismatch(f"stats of {path}", head, block[:2])
            problems += _mismatch(f"stats lines of {path}", 9, len(block))
        return problems
    return verify


def _negative_verifier(paths, code_expected):
    def verify(code, out, err):
        problems = _mismatch("exit code", code_expected, code) + _mismatch("stdout", "", out)
        for path in paths:
            if not any(line.startswith(f"{path}:") and ": error: " in line
                       for line in err.splitlines()):
                problems.append(f"no error diagnostic for {path}")
        return problems
    return verify


def _obligations_verifier(out_dir: str, stem: str, expected):
    names = [f"{stem}__ob{k}.p" for k in range(1, len(expected.residual) + 1)]

    def verify(code, out, err):
        problems = _mismatch("exit code", 0, code) + _mismatch("stderr", "", err)
        problems += _mismatch("printed paths", [os.path.join(out_dir, n) for n in names],
                              out.splitlines())
        written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        problems += _mismatch("files written", sorted(names), written)
        for name, label in zip(names, expected.residual):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    head = handle.readline()
                if not head.startswith(f"% {label}: "):
                    problems.append(f"{name} holds {head.strip()!r}, not {label}")
        return problems
    return verify


def _solve_verifier(path: str, expected):
    labels = list(expected.residual) + [expected.conjecture]
    task = re.compile(r"(\S+): Theorem \(\d+\.\d\ds\)$")

    def verify(code, out, err):
        lines = out.splitlines()
        got = [m.group(1) if (m := task.match(line)) else line for line in lines[:-1]]
        return (_mismatch("exit code", 0, code) + _mismatch("stderr", "", err)
                + _mismatch("task lines", labels, got)
                + _mismatch("verdict", f"% SZS status Theorem for {path}",
                            lines[-1] if lines else None))
    return verify


def _clear(path: str):
    def prepare():
        shutil.rmtree(path, ignore_errors=True)
    return prepare


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_workload(name: str, seed: int, work: Path, dtf) -> Workload:
    """Generate the workload's inputs into `work` and attach known answers."""
    (work / "tmp").mkdir()   # the prover harness's temporary files go here
    empty = _write(work, "empty.p", "")
    text, expected = generate.family(name, seed)
    problem = _write(work, f"{expected.path_stem}.p", text)
    half = ()
    if name == "axioms":
        half_text, half_expected = generate.family(name, seed, scale=0.5)
        half = (problem, _write(work, f"{half_expected.path_stem}.p", half_text))
    notes = {"problem": os.path.basename(problem), "problem_kb": len(text) / 1000,
             "residual": len(expected.residual), "discharged": len(expected.discharged_by)}

    if name == "axioms":
        invocations = [
            Invocation("check_deep", ["check", "--deep", "--verbose", problem], [problem],
                       _check_deep_verifier(expected)),
            Invocation("translate", ["translate", "--assume-obligations", problem], [problem],
                       _translate_verifier(expected, dtf)),
        ]
    elif name == "terms":
        corpus = sorted(str(p) for p in CORPUS.glob("*.p"))
        negative = sorted(str(p) for p in (CORPUS / "negative").glob("*.p"))
        files = [problem] + corpus
        parse_lines = [expected.parse_line(problem, many=True)] + [
            f"{p}: parsed {sum(r.values())} formulae ({_roles_summary(r)})"
            for p, r in ((p, _corpus_roles(p)) for p in corpus)]
        invocations = [
            Invocation("parse", ["parse", *files], files, _parse_verifier(parse_lines)),
            Invocation("check", ["check", *files], files, _silent_verifier),
            Invocation("stats", ["stats", *files], files,
                       _stats_verifier(problem, expected, corpus)),
        ]
        by_code: dict = {}
        for path in negative:
            by_code.setdefault(_documented_exit(path), []).append(path)
        # Exit 1 is the worst code of its batch only if no file exits 2, and
        # every file must report an error; exit-2 files each run alone.
        batches = [("exit1", 1, by_code.pop(1, []))] + [
            (Path(p).stem, code, [p]) for code, paths in sorted(by_code.items()) for p in paths]
        for label, code, paths in batches:
            if paths:
                invocations.append(Invocation(
                    f"check_{label}", ["check", *paths], paths,
                    _negative_verifier(paths, code), timed=False))
        notes["corpus_files"] = len(corpus)
        notes["negative_files"] = len(negative)
    elif name == "discharge":
        out_dir = str(work / "obligations")
        stem = expected.path_stem
        prover_cmd = f"sh {shlex.quote(str(HERE / 'fake_prover.sh'))} {{file}}"
        jobs = usable_cpus()
        invocations = [
            Invocation("obligations", ["obligations", problem, "--out-dir", out_dir],
                       [problem], _obligations_verifier(out_dir, stem, expected),
                       prepare=_clear(out_dir)),
            Invocation("solve", ["solve", problem, "--prover", prover_cmd,
                                 "--jobs", str(jobs)], [problem],
                       _solve_verifier(problem, expected)),
        ]
        notes["jobs"] = jobs
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(invocations, empty, half, notes)


# ---------------------------------------------------------------------------
# Running dtf


class Tally:
    """Invocations attempted and failed, with the first mismatches kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)[:500]}")


def spawn(argv: list, work: Path, python_args: tuple = ("-m", "dtf")) -> tuple:
    """Run `python <python_args> <argv>` as a process, by default the dtf CLI.

    Returns (exit code, stdout, stderr, wall seconds, ru_maxrss in KiB).
    """
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
    env.pop("DTF_PROVER", None)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *python_args, *argv], env,
                         file_actions=actions)
    watchdog = threading.Timer(COMMAND_TIMEOUT, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:   # interrupted or terminated: take the child along
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    out = out_path.read_text(encoding="utf-8", errors="replace")
    err = err_path.read_text(encoding="utf-8", errors="replace")
    return os.waitstatus_to_exitcode(status), out, err, wall, usage.ru_maxrss


def run_inprocess(dtf, argv: list) -> tuple:
    """Call dtf.cli.run in this process; returns (code, out, err, wall)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = dtf.cli.run(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


def summary(values: list) -> dict:
    """Median, minimum and sample count; p90 only with ten samples beyond it."""
    result = {"median": statistics.median(values), "min": min(values), "n": len(values)}
    if len(values) >= 100:
        result["p90"] = statistics.quantiles(values, n=10)[-1]
    return result


def timed_run(workload: Workload, seconds: float, tally: Tally, work: Path) -> dict:
    """Untraced CLI processes; returns end-to-end metrics and per-command figures.

    On a shared machine the speed of every instruction drifts by a third or
    more, over seconds and over minutes, so absolute times of one run say as
    much about the neighbours as about dtf.  Before every timed command the
    loop therefore runs a fixed stdlib-only reference program that no change
    to dtf can affect, and once per repetition, right after it, the empty
    problem (a set-up sample).  Each sample is divided by the latest
    reference sample and the ratios' medians are reported: the two see
    nearly the same machine speed, so the drift cancels.
    """
    setup, setup_rel, reference, rss = [], [], [], []
    walls: dict = {inv.name: [] for inv in workload.invocations}
    rel: dict = {inv.name: [] for inv in workload.invocations}

    def run(label: str, inv: Invocation | None, record: bool) -> None:
        if inv is None:
            code, out, err, wall, maxrss = spawn(["check", workload.empty], work)
            problems = _silent_verifier(code, out, err)
        else:
            if inv.prepare:
                inv.prepare()
            code, out, err, wall, maxrss = spawn(inv.argv, work)
            problems = inv.verify(code, out, err)
        tally.record(label, problems)
        rss.append(maxrss)
        if record:
            (setup if inv is None else walls[inv.name]).append(wall)
            (setup_rel if inv is None else rel[inv.name]).append(wall / reference[-1])

    def run_reference() -> None:
        code, out, err, wall, _ = spawn(["-c", REFERENCE], work, python_args=("-I",))
        if code != 0 or out or err:
            raise RuntimeError(f"reference program failed ({code}): {err.strip()}")
        reference.append(wall)

    # Warm-up: the interpreter's and dtf's files into the page cache; the
    # inputs were just written.  Verified, not timed.
    run("warm-up setup", None, record=False)
    run_reference()
    reference.clear()
    reps = 0
    deadline = time.monotonic() + seconds
    while not reps or time.monotonic() < deadline:
        reps += 1
        for i, inv in enumerate(workload.invocations):
            if inv.timed:
                run_reference()
            if i == 0:
                run(f"rep {reps} setup", None, record=True)
            run(f"rep {reps} {inv.name}", inv, record=True)

    medians = {name: statistics.median(values) for name, values in walls.items()}
    medians_rel = {name: statistics.median(values) for name, values in rel.items()}
    verdict_s = sum(medians.values())
    input_kb = sum(inv.input_bytes for inv in workload.invocations) / 1000
    return {
        "metrics": {
            "setup_s": REFERENCE_S * statistics.median(setup_rel),
            "verdict_rel": sum(medians_rel.values()),
            "peak_rss_mb": max(rss) / 1024,
        },
        "detail": {
            "repetitions": reps,
            "input_kb_per_repetition": input_kb,
            "verdict_s": verdict_s,
            "kb_per_s": input_kb / verdict_s,
            "reference_s": summary(reference),
            "setup_s": summary(setup),
            "commands": {f"{inv.name}_s": summary(walls[inv.name])
                         for inv in workload.invocations if inv.timed},
            "commands_rel": {f"{inv.name}_rel": medians_rel[inv.name]
                             for inv in workload.invocations if inv.timed},
            "samples": {"setup_s": setup, "reference_s": reference, **walls},
        },
    }


def doubling_ratio(dtf, pair: tuple) -> tuple:
    """Untraced check_problem time at n axioms over n/2: the median over
    back-to-back pairs, which see the same machine speed."""
    full, half = (dtf.syntax.parse_file(p) for p in pair)
    times: dict = {0: [], 1: []}
    for _ in range(DOUBLING_PAIRS):
        for i, problem in enumerate((full, half)):
            start = time.perf_counter()
            dtf.deep.check_problem(problem)
            times[i].append(time.perf_counter() - start)
    ratio = statistics.median(f / h for f, h in zip(times[0], times[1]))
    return ratio, {"n_s": times[0], "half_n_s": times[1]}


def traced_run(workload: Workload, seconds: float, tally: Tally, work: Path, dtf,
               spans_path: Path) -> dict:
    """Per-layer metrics from in-process runs.

    Each round runs the command sequence in process untraced, then traced,
    then the empty problem both as a CLI process and in process.  Layer
    figures are medians over the traced repetitions.  The tracing overhead
    and the CLI overhead compare the fastest runs of each kind, which the
    machine's slow phases disturb least; the CLI overhead is taken on the
    empty problem because on real inputs it is a small difference of two
    large, noisy times.  On axioms the doubling ratio is measured before the
    rounds, within the run's `seconds`.
    """
    tracer = Tracer()
    invocations = workload.invocations
    walls: dict = {"untraced": [], "traced": []}
    empty: dict = {"process": [], "in_process": []}
    layers = []

    def repetition(rep: int, kind: str) -> None:
        times = {}
        for inv in invocations:
            if inv.prepare:
                inv.prepare()
            tracer.request = f"rep{rep}/{inv.name}"
            if kind == "traced":
                with tracer.installed(dtf), tracer.span("cli.run"):
                    code, out, err, wall = run_inprocess(dtf, inv.argv)
            else:
                code, out, err, wall = run_inprocess(dtf, inv.argv)
            tally.record(f"{kind} rep {rep} {inv.name}", inv.verify(code, out, err))
            times[inv.name] = wall
        if rep:
            walls[kind].append(times)

    def empty_runs(rep: int) -> None:
        for _ in range(EMPTY_PER_ROUND):
            code, out, err, wall, _ = spawn(["check", workload.empty], work)
            tally.record(f"process rep {rep} empty", _silent_verifier(code, out, err))
            empty["process"].append(wall)
            code, out, err, wall = run_inprocess(dtf, ["check", workload.empty])
            tally.record(f"in-process rep {rep} empty", _silent_verifier(code, out, err))
            empty["in_process"].append(wall)

    repetition(0, "untraced")   # warm-up
    deadline = time.monotonic() + seconds
    doubling: dict = {}
    ratio = 0.0
    if workload.half:
        ratio, doubling = doubling_ratio(dtf, workload.half)
    rounds = 0
    while not rounds or time.monotonic() < deadline:
        rounds += 1
        empty_runs(rounds)
        repetition(rounds, "untraced")
        # Only the current repetition's spans are kept, so memory stays flat.
        tracer.spans.clear()
        repetition(rounds, "traced")
        layers.append(layer_metrics(tracer.spans))
    tracer.write(str(spans_path))

    def fastest(kind: str, name: str) -> float:
        return min(times[name] for times in walls[kind])

    names = [inv.name for inv in invocations]
    metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
    metrics["syntax.input_kb"] = sum(inv.input_bytes for inv in invocations) / 1000
    metrics["trace.slowdown"] = (sum(fastest("traced", n) for n in names)
                                 / sum(fastest("untraced", n) for n in names))
    metrics["cli.overhead_s"] = min(empty["process"]) - min(empty["in_process"])
    metrics["deep.doubling_ratio"] = ratio
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "detail": {
            "rounds": rounds,
            "doubling": doubling,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_written": len(tracer.spans),
            "samples": {**walls, "empty": empty},
        },
    }


# ---------------------------------------------------------------------------
# Reporting


def commit_id() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dtf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def units(trace: bool) -> dict:
    return {name: spec[0] for name, spec in (PER_LAYER if trace else END_TO_END).items()}


def print_report(workload: str, trace: bool, result: dict, tally: Tally) -> None:
    mode = "traced in-process" if trace else "untraced CLI processes"
    print(f"== {workload} ({mode})")
    for name, unit in units(trace).items():
        print(f"  {name:28s} {result['metrics'][name]:14.6f} {unit}")
    detail = result["detail"]
    for name, stats in detail.get("commands", {}).items():
        extra = f", p90 {stats['p90']:.6f}" if "p90" in stats else ""
        print(f"  {name:28s} {stats['median']:14.6f} s  (median of {stats['n']}; "
              f"min {stats['min']:.6f}{extra})")
    for name, value in detail.get("commands_rel", {}).items():
        print(f"  {name:28s} {value:14.6f} ref")
    if "setup_s" in detail:
        print(f"  {'setup_abs_s':28s} {detail['setup_s']['median']:14.6f} s  "
              f"(median of {detail['setup_s']['n']}, not relative to the reference)")
        print(f"  {'verdict_s':28s} {detail['verdict_s']:14.6f} s  (sum of command medians)")
        print(f"  {'kb_per_s':28s} {detail['kb_per_s']:14.6f} kB/s")
        print(f"  {'reference_s':28s} {detail['reference_s']['median']:14.6f} s  "
              f"(median of {detail['reference_s']['n']})")
        print(f"  setup samples {detail['setup_s']['n']}, repetitions {detail['repetitions']}")
    fail_rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  fail_rate {fail_rate:.4f} ({tally.failed} of {tally.attempted} invocations)")
    for message in tally.messages:
        print(f"  MISMATCH {message}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, dtf) -> tuple:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    tally = Tally()
    tempfile.tempdir = str(work / "tmp")   # for in-process runs of the prover harness
    try:
        spec = build_workload(workload, seed, work, dtf)
        if trace:
            spans = OUT / f"{workload}-seed{seed}-spans.jsonl.gz"
            result = traced_run(spec, seconds, tally, work, dtf, spans)
        else:
            result = timed_run(spec, seconds, tally, work)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": usable_cpus(),
        "commit": commit_id(), "source_digest": source_digest(),
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_rate": tally.failed / tally.attempted, "mismatches": tally.messages,
        "inputs": spec.notes,
        "metrics": {name: {"value": value, "unit": units(trace)[name]}
                    for name, value in result["metrics"].items()},
        "detail": result["detail"],
        "catalogue": {name: dict(zip(("unit", "better", "layer", "meaning"), spec_))
                      for name, spec_ in END_TO_END.items()} if not trace else
                     {name: dict(zip(("unit", "layer", "moves"), spec_))
                      for name, spec_ in PER_LAYER.items()},
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_report(workload, trace, result, tally)
    print(f"  results: {path.relative_to(ROOT)}")
    return result["metrics"], tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dtf CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(with --workload all both always run)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "dtf" / "cli.py").is_file() or not CORPUS.is_dir():
        print(f"perfbench: no dtf sources under {SRC} or no corpus at {CORPUS}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dtf.cli  # noqa: F401  (imports every layer module)
    import dtf

    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    metrics: dict = {}
    attempted = failed = 0
    for workload, trace in runs:
        values, tally = run_one(workload, args.seed, args.seconds, trace, dtf)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({f"{prefix}{name}": {"value": value, "unit": units(trace)[name]}
                        for name, value in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
