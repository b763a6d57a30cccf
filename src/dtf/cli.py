"""Command line interface.

Subcommands: parse, check, obligations, translate, stats, solve.

Exit codes: 0 success (solve: proved), 1 check failure or unproved goal,
2 parse or usage error, 3 prover or system error, 141 (128 + SIGPIPE) when
the reader of stdout closed it early, as `| head` does.

Only what every subcommand needs is imported at the top: `deep`, `erasure`
and `prover` are imported by the subcommands that call them, so `parse`,
`check` and `stats` load none of them and only `solve` loads the process
and thread stack.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import shallow
from .core import Axiom, ConstDecl, TypeDecl, VarDecl, term_size
from .printer import format_term, format_type, print_problem, print_th0
from .syntax import Problem, parse_file

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_SYSTEM = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a process the signal ended


def _emit_diagnostics(diagnostics) -> None:
    for d in diagnostics:
        print(d.format(), file=sys.stderr)


def _load(path: str):
    """Parse a problem file; on failure print diagnostics and return None.

    Everything alive after the parse, the problem included, is moved out of
    the cyclic collector's generations (`gc.freeze`), so that no later
    collection walks the theory again.  Frozen objects are still freed by
    reference counting, which is all the acyclic trees of a problem need.
    """
    result = parse_file(path)
    gc.freeze()
    if isinstance(result, Problem):
        _emit_diagnostics(result.warnings)
        return result
    _emit_diagnostics(result)
    return None


def _run_checks(problem: Problem, deep: bool = True):
    """Shallow then, with deep, deep check; returns (exit_code, report | None).

    The report is None when a check failed, after printing its diagnostics,
    and when deep is false.
    """
    diags = shallow.check_shallow(problem)
    if diags:
        _emit_diagnostics(diags)
        return EXIT_CHECK, None
    if not deep:
        return EXIT_OK, None
    from .deep import check_problem

    report = check_problem(problem)
    if report.diagnostics:
        _emit_diagnostics(report.diagnostics)
        return EXIT_CHECK, None
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# Subcommands


def _each_problem(paths, one) -> int:
    """Call one(path, problem) on each file that loads; returns the worst exit code.

    Only one file's problem is alive at a time: it, and all that one made of
    it, is freed before the next file is parsed.
    """
    worst = EXIT_OK
    for path in paths:
        problem = _load(path)
        worst = max(worst, EXIT_PARSE if problem is None else one(path, problem))
        del problem
    return worst


def cmd_parse(args) -> int:
    many = len(args.files) > 1

    def one(path, problem) -> int:
        if args.print:
            if many:
                print(f"% {path}")
            sys.stdout.write(print_problem(problem))
        else:
            counts = problem.role_counts()
            summary = ", ".join(f"{role}: {n}" for role, n in sorted(counts.items()))
            prefix = f"{path}: " if many else ""
            print(f"{prefix}parsed {sum(counts.values())} formulae ({summary})")
        return EXIT_OK

    return _each_problem(args.files, one)


def cmd_check(args) -> int:
    many = len(args.files) > 1

    def one(path, problem) -> int:
        code, report = _run_checks(problem, deep=args.deep)
        if report is None:
            return code  # a failure, or a silent shallow success
        if many:
            print(f"% {path}")
        shown = list(report.obligations)
        if args.verbose:
            shown += report.discharged
        for ob in shown:
            _print_obligation(ob)
        print(f"obligations: {len(report.obligations)} residual, "
              f"{len(report.discharged)} discharged")
        return code

    return _each_problem(args.files, one)


def _print_obligation(ob) -> None:
    status = f"discharged by {ob.discharged_by}" if ob.discharged_by else "residual"
    print(f"{ob.label} [{status}]: {ob.origin}")
    parts = []
    for entry in ob.context.entries:
        if isinstance(entry, VarDecl):
            parts.append(f"{entry.name.text}: {format_type(entry.ty)}")
        elif entry.label is None:
            parts.append(f"assume {format_term(entry.formula)}")
        # labeled assumptions are theory axioms, not local context
    print(f"  context: {', '.join(parts) if parts else 'none'}")
    print(f"  goal: {format_term(ob.goal)}")


def cmd_obligations(args) -> int:
    from . import deep

    problem = _load(args.file)
    if problem is None:
        return EXIT_PARSE
    code, report = _run_checks(problem)
    if report is None:
        return code
    selected = list(report.obligations)
    if args.all:
        selected += report.discharged
    paths = deep.export_obligations(problem, selected, args.out_dir)
    for path in paths:
        print(path)
    if not paths:
        print("no obligations to export", file=sys.stderr)
    return EXIT_OK


def cmd_translate(args) -> int:
    from . import erasure

    problem = _load(args.file)
    if problem is None:
        return EXIT_PARSE
    code, report = _run_checks(problem)
    if report is None:
        return code
    assumed = ()
    if report.obligations:
        if not args.assume_obligations:
            print(f"translate: {len(report.obligations)} unproved obligation(s); "
                  "discharge them or pass --assume-obligations", file=sys.stderr)
            return EXIT_CHECK
        assumed = tuple(report.obligations)
    text = print_th0(erasure.erase_problem(problem, assume_obligations=assumed))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    shown = []  # the files summarized so far

    def one(path, problem) -> int:
        if shown:
            print()
        shown.append(path)
        counts = problem.role_counts()
        type_decls = [d for d in problem.theory.decls if isinstance(d, TypeDecl)]
        consts = sum(1 for d in problem.theory.decls if isinstance(d, ConstDecl))
        axioms = [d for d in problem.theory.decls if isinstance(d, Axiom)]
        dependent = sum(1 for d in type_decls if d.telescope)
        max_arity = max((len(d.telescope) for d in type_decls), default=0)
        size = sum(term_size(d.formula) for d in problem.decls() if isinstance(d, Axiom))
        print(f"file: {path}")
        print(f"formulae: {sum(counts.values())} "
              f"({', '.join(f'{r}: {n}' for r, n in sorted(counts.items()))})")
        print(f"type symbols: {len(type_decls)} ({dependent} with term arguments)")
        print(f"constants: {consts}")
        print(f"max type-argument arity: {max_arity}")
        print(f"axiom-like formulae: {len(axioms)}")
        print(f"term size: {size}")
        print(f"conjecture: {problem.conjecture_name or 'none'}")
        print(f"polymorphic: {'yes' if problem.polymorphic else 'no'}")
        return EXIT_OK

    return _each_problem(args.files, one)


def cmd_solve(args) -> int:
    from . import deep, erasure, prover

    config = prover.config_from_env(args.prover, args.timeout)
    if config is None:
        print(f"solve: no prover configured; pass --prover or set "
              f"{prover.PROVER_ENV_VAR}", file=sys.stderr)
        return EXIT_SYSTEM
    problem = _load(args.file)
    if problem is None:
        return EXIT_PARSE
    code, report = _run_checks(problem)
    if report is None:
        return code

    th0 = erasure.TH0Printer(problem)
    obligations = () if args.conjecture_only else report.obligations
    tasks = [(ob.label, th0.print(deep.obligation_problem(problem, ob))) for ob in obligations]
    conjecture_label = None
    if not args.obligations_only and problem.goal is not None:
        goal_label = problem.goal.label
        while goal_label in {label for label, _ in tasks}:
            goal_label += "_goal"
        conjecture_label = goal_label
        tasks.append((goal_label, th0.print(problem, tuple(report.obligations))))

    if not tasks:
        if args.obligations_only:
            print("nothing to prove: no residual obligations")
        elif args.conjecture_only:
            print("nothing to prove: no conjecture")
        else:
            print("nothing to prove: no residual obligations and no conjecture")
        print(f"% SZS status Theorem for {args.file}")
        return EXIT_OK

    results = prover.discharge_all(config, tasks, jobs=args.jobs)
    any_error = False
    all_proved = True
    for label, _ in tasks:
        res = results[label]
        print(f"{label}: {res.verdict.status} ({res.elapsed:.2f}s)")
        if res.verdict.status == "Error":
            any_error = True
        if not res.verdict.proved:
            all_proved = False

    if any_error:
        print(f"% SZS status Error for {args.file}")
        return EXIT_SYSTEM
    if all_proved:
        print(f"% SZS status Theorem for {args.file}")
        return EXIT_OK
    status = "GaveUp"
    if conjecture_label is not None:
        others_ok = all(
            results[label].verdict.proved
            for label, _ in tasks if label != conjecture_label)
        if others_ok:
            status = results[conjecture_label].verdict.status
    print(f"% SZS status {status} for {args.file}")
    return EXIT_CHECK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtf",
        description="Check dependently typed TPTP problems and translate them to HOL.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse problems and report their shape")
    p.add_argument("files", nargs="+", metavar="file")
    p.add_argument("--print", action="store_true",
                   help="print the canonical form instead of a summary")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="type-check (shallow by default)")
    p.add_argument("files", nargs="+", metavar="file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--shallow", action="store_true",
                      help="decidable skeleton check only (the default)")
    mode.add_argument("--deep", action="store_true",
                      help="also run the obligation-generating deep check")
    p.add_argument("--verbose", action="store_true",
                   help="with --deep, also list discharged obligations")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("obligations", help="export proof obligations as .p files")
    p.add_argument("file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--all", action="store_true",
                   help="also export obligations discharged by assumption")
    p.set_defaults(func=cmd_obligations)

    p = sub.add_parser("translate", help="erase to plain HOL (TH0)")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--assume-obligations", action="store_true",
                   help="append residual obligations as axioms instead of refusing")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("stats", help="summarize problems")
    p.add_argument("files", nargs="+", metavar="file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("solve", help="discharge obligations and the conjecture "
                                     "with an external HOL prover")
    p.add_argument("file")
    p.add_argument("--prover", help="command template with a {file} placeholder "
                                    "(default: $DTF_PROVER)")
    p.add_argument("--timeout", type=float,
                   help="per-task timeout in seconds")
    p.add_argument("--jobs", type=int, default=1, help="parallel prover runs")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--obligations-only", action="store_true",
                      help="discharge residual obligations, skip the conjecture")
    only.add_argument("--conjecture-only", action="store_true",
                      help="prove only the erased conjecture, with residual "
                           "obligations assumed")
    p.set_defaults(func=cmd_solve)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The recipe of the "Note on SIGPIPE" in the `signal` docs: end quietly,
        # with fd 1 on devnull so that the flush at exit cannot fail again.
        # Restoring SIG_DFL instead would kill solve before it reaps its provers.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"dtf: {exc}", file=sys.stderr)
        return EXIT_SYSTEM
    except Exception as exc:  # last resort: one line, never a traceback
        print(f"dtf: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SYSTEM


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
