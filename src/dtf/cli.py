"""Command line interface.

Subcommands: parse, check, obligations, translate, stats, solve.  Each runs
its files through one driver, `_each_problem`, which parses, checks as far
as the subcommand asks (`parse` and `stats`: not at all; `check`: shallow,
or deep with `--deep`; the rest: deep) and hands on the problems that pass.

Exit codes: 0 success (solve: proved), 1 check failure or unproved goal,
2 parse or usage error, 3 prover or system error, 141 (128 + SIGPIPE) when
the reader of stdout closed it early, as `| head` does.

Only what every subcommand needs is imported at the top: `deep`, `erasure`
and `prover` are imported where they are called, so `parse`, `check` and
`stats` load none of them and only `solve` loads the process and thread
stack.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import shallow
from .core import Axiom, ConstDecl, TypeDecl, VarDecl, in_own_chunk, term_size
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


def _each_problem(paths, one, check=None) -> int:
    """Parse each file and check it (check: None, "shallow" or "deep"); call
    one(path, problem, report) on each that passes, report being the deep
    check's or None.  A failed stage prints its diagnostics and gives 2
    (parse) or 1 (check).  Returns the worst exit code.

    Everything alive after a parse is moved out of the cyclic collector's
    generations (`gc.freeze`), so that no later collection walks the theory
    again.  Frozen objects are still freed by reference counting, which is
    all the acyclic trees of a problem need: a problem, and all that was
    made of it, is freed before the next file is parsed.
    """
    worst = EXIT_OK
    for path in paths:
        problem = parse_file(path)
        gc.freeze()
        report = None
        if isinstance(problem, Problem):
            _emit_diagnostics(problem.warnings)
            diagnostics = shallow.check_shallow(problem) if check else ()
            if check == "deep" and not diagnostics:
                from . import deep

                report = deep.check_problem(problem)
                diagnostics = report.diagnostics
            _emit_diagnostics(diagnostics)
            code = EXIT_CHECK if diagnostics else one(path, problem, report)
        else:
            _emit_diagnostics(problem)  # the parse diagnostics
            code = EXIT_PARSE
        worst = max(worst, code)
        del problem, report
    return worst


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args) -> int:
    many = len(args.files) > 1

    def one(path, problem, report) -> int:
        if args.print:
            if many:
                print(f"% {path}")
            # In lines, as one large write into a closed pipe can seem to succeed.
            sys.stdout.writelines(print_problem(problem).splitlines(keepends=True))
        else:
            counts = problem.role_counts()
            summary = ", ".join(f"{role}: {n}" for role, n in sorted(counts.items()))
            prefix = f"{path}: " if many else ""
            print(f"{prefix}parsed {sum(counts.values())} formulae ({summary})")
        return EXIT_OK

    return _each_problem(args.files, one)


def cmd_check(args) -> int:
    many = len(args.files) > 1

    def one(path, problem, report) -> int:
        if report is None:
            return EXIT_OK  # the shallow check is silent on success
        if many:
            print(f"% {path}")
        shown = list(report.obligations)
        if args.verbose:
            shown += report.discharged
        for ob in shown:
            _print_obligation(ob)
        print(f"obligations: {len(report.obligations)} residual, "
              f"{len(report.discharged)} discharged")
        return EXIT_OK

    return _each_problem(args.files, one, "deep" if args.deep else "shallow")


def _print_obligation(ob) -> None:
    status = f"discharged by {ob.discharged_by}" if ob.discharged_by else "residual"
    print(f"{ob.label} [{status}]: {ob.origin}")
    parts = []
    for entry in ob.context.entries:
        if isinstance(entry, VarDecl):
            parts.append(f"{entry.name.text}: {format_type(entry.ty)}")
        else:
            parts.append(f"assume {format_term(entry.formula)}")
    print(f"  context: {', '.join(parts) if parts else 'none'}")
    print(f"  goal: {format_term(ob.goal)}")


def cmd_obligations(args) -> int:
    from . import deep

    def one(path, problem, report) -> int:
        selected = list(report.obligations)
        if args.all:
            selected += report.discharged
        paths = deep.export_obligations(problem, selected, args.out_dir)
        for exported in paths:
            print(exported)
        if not paths:
            print("no obligations to export", file=sys.stderr)
        return EXIT_OK

    return _each_problem([args.file], one, "deep")


def cmd_translate(args) -> int:
    from . import erasure

    def one(path, problem, report) -> int:
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
            sys.stdout.writelines(text.splitlines(keepends=True))  # as in cmd_parse
        return EXIT_OK

    return _each_problem([args.file], one, "deep")


def cmd_stats(args) -> int:
    shown = []  # the files summarized so far

    def one(path, problem, report) -> int:
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

    def one(path, problem, report) -> int:
        th0 = erasure.TH0Printer(problem)
        obligations = () if args.conjecture_only else report.obligations
        labels = [ob.label for ob in obligations]
        goal_label = None
        if not args.obligations_only and problem.goal is not None:
            goal_label = problem.goal.label
            while goal_label in labels:
                goal_label += "_goal"
            labels.append(goal_label)

        def tasks():
            # Each text is made only when a prover is free to take it.
            for ob in obligations:
                yield ob.label, th0.print(deep.obligation_problem(problem, ob))
            if goal_label is not None:
                yield goal_label, th0.print(problem, tuple(report.obligations))

        if not labels:
            if args.obligations_only:
                print("nothing to prove: no residual obligations")
            elif args.conjecture_only:
                print("nothing to prove: no conjecture")
            else:
                print("nothing to prove: no residual obligations and no conjecture")
            print(f"% SZS status Theorem for {path}")
            return EXIT_OK

        results = prover.discharge_all(config, tasks(), jobs=args.jobs)
        any_error = False
        all_proved = True
        for label in labels:
            res = results[label]
            print(f"{label}: {res.verdict.status} ({res.elapsed:.2f}s)")
            if res.verdict.status == "Error":
                any_error = True
            if not res.verdict.proved:
                all_proved = False

        if any_error:
            print(f"% SZS status Error for {path}")
            return EXIT_SYSTEM
        if all_proved:
            print(f"% SZS status Theorem for {path}")
            return EXIT_OK
        status = "GaveUp"
        if goal_label is not None:
            others_ok = all(
                results[label].verdict.proved for label in labels if label != goal_label)
            if others_ok:
                status = results[goal_label].verdict.status
        print(f"% SZS status {status} for {path}")
        return EXIT_CHECK

    return _each_problem([args.file], one, "deep")


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
    """`dtf ARGV`; returns the exit code.  Every frame that the run calls
    shares one frame-stack chunk (`core.in_own_chunk`)."""
    return in_own_chunk(_run, argv)


def _run(argv) -> int:
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
