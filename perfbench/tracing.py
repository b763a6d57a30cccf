"""In-memory span tracer that wraps dtf's layer functions from outside.

Each wrapped call records one span: (id, name, start, end, parent id,
request id, note).  `note` is a number taken from the call's result where a
layer has a count to report (tokens returned, obligations left, printed
characters, ...).  Spans stay in memory until `write` is called once at the
end of a run.  Nothing inside the dtf package changes: the tracer replaces
module and class attributes while `installed()` is active and restores them
afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time


def _targets(dtf) -> list:
    """(owner, attribute, span name, note) for every wrapped function.

    The `cli` entries wrap the names `dtf.cli` binds at import; `deep` calls
    `beta_eta_normalize` and `alpha_equal` through its own imports, so only
    calls made from the deep checker are counted as `core.*`.
    """
    cli, deep, erasure, printer, prover, shallow, syntax = (
        dtf.cli, dtf.deep, dtf.erasure, dtf.printer, dtf.prover, dtf.shallow,
        dtf.syntax)
    return [
        (cli, "parse_file", "syntax.parse_file", None),
        (syntax, "tokenize", "syntax.tokenize", len),
        (shallow, "check_shallow", "shallow.check_shallow", None),
        (deep, "check_problem", "deep.check_problem",
         lambda report: len(report.obligations)),
        (deep.DeepChecker, "emit", "deep.emit", None),
        (deep, "beta_eta_normalize", "core.beta_eta_normalize", None),
        (deep, "alpha_equal", "core.alpha_equal", int),
        (deep, "obligation_problem", "deep.obligation_problem", None),
        (deep, "export_obligations", "deep.export_obligations", len),
        (erasure, "erase_problem", "erasure.erase_problem", None),
        (cli, "print_th0", "printer.print_th0", len),
        (cli, "print_problem", "printer.print_problem", len),
        # export_obligations imports print_problem from the module at call time.
        (printer, "print_problem", "printer.print_problem", len),
        (prover, "discharge_all", "prover.discharge_all", None),
        (prover, "run_prover", "prover.run_prover",
         lambda result: 0 if result.verdict.proved else 1),
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        # A worker thread (the prover pool) starts with an empty stack; its
        # spans belong under whatever the main thread is waiting in.
        return self._main[-1] if self._main and stack is not self._main else None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block the benchmark runs itself."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request, None))

    def wrap(self, name: str, fn, note=None):
        # Same bookkeeping as span(), inlined: this runs on every core call
        # the deep checker makes, tens of thousands per repetition.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.request,
                                   note(result) if note and result is not None else None))

        return traced

    @contextlib.contextmanager
    def installed(self, dtf):
        """Wrap every target while the block runs; restore them afterwards."""
        saved = []
        wrappers: dict = {}
        try:
            for owner, attr, name, note in _targets(dtf):
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, note)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, name, start, end, parent, request, note in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "note": note}) + "\n")


def layer_metrics(spans: list) -> dict:
    """Per-layer totals from the spans of one repetition of a workload."""
    by_id = {s[0]: s for s in spans}
    groups: dict = {}
    for s in spans:
        groups.setdefault(s[1], []).append(s)

    def dur(s) -> float:
        return s[3] - s[2]

    def within(s, name: str) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = by_id.get(parent[4])
        return False

    def named(name: str) -> list:
        return groups.get(name, [])

    def total(name: str) -> float:
        return sum(dur(s) for s in named(name))

    def notes(name: str) -> int:
        return sum(s[6] or 0 for s in named(name))

    tokenize_s = total("syntax.tokenize")
    tokens = notes("syntax.tokenize")
    deep_s = total("deep.check_problem")
    core_in_deep = sum(dur(s) for name in ("core.beta_eta_normalize", "core.alpha_equal")
                       for s in named(name) if within(s, "deep.check_problem"))
    alpha_calls = len(named("core.alpha_equal"))
    top_print_problem = [s for s in named("printer.print_problem")
                         if not within(s, "printer.print_th0")]
    run_prover = named("prover.run_prover")
    queue_wait = sum(s[2] - by_id[s[4]][2] for s in run_prover
                     if s[4] in by_id and by_id[s[4]][1] == "prover.discharge_all")
    return {
        "syntax.tokenize_s": tokenize_s,
        "syntax.parse_self_s": total("syntax.parse_file") - sum(
            dur(s) for s in named("syntax.tokenize") if within(s, "syntax.parse_file")),
        "syntax.tokens": tokens,
        "syntax.tokens_per_s": tokens / tokenize_s if tokenize_s > 0 else 0.0,
        "shallow.check_s": total("shallow.check_shallow"),
        "deep.check_s": deep_s,
        "deep.self_s": deep_s - core_in_deep,
        "deep.emit_calls": len(named("deep.emit")),
        "deep.emit_s": total("deep.emit"),
        "deep.residual": notes("deep.check_problem"),
        "deep.discharged": len(named("deep.emit")) - notes("deep.check_problem"),
        "core.normalize_calls": len(named("core.beta_eta_normalize")),
        "core.normalize_s": total("core.beta_eta_normalize"),
        "core.alpha_calls": alpha_calls,
        "core.alpha_s": total("core.alpha_equal"),
        "core.alpha_hit_ratio": (notes("core.alpha_equal") / alpha_calls
                                 if alpha_calls else 0.0),
        "deep.obligation_problem_s": total("deep.obligation_problem"),
        "deep.export_s": total("deep.export_obligations"),
        "erasure.calls": len(named("erasure.erase_problem")),
        "erasure.erase_s": total("erasure.erase_problem"),
        "printer.print_th0_s": total("printer.print_th0"),
        "printer.print_problem_s": sum(dur(s) for s in top_print_problem),
        "printer.out_kb": (notes("printer.print_th0")
                           + sum(s[6] or 0 for s in top_print_problem)) / 1000,
        "prover.tasks": len(run_prover),
        "prover.discharge_s": total("prover.discharge_all"),
        "prover.busy_s": sum(dur(s) for s in run_prover),
        "prover.queue_wait_s": queue_wait,
        "prover.failed": notes("prover.run_prover"),
        "cli.run_s": total("cli.run"),
    }
