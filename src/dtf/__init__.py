"""Toolchain for dependently typed higher-order TPTP problems.

Pipeline: parse (syntax) -> shallow skeleton check (shallow) -> deep check
with proof obligations (deep) -> erasure to plain HOL (erasure) -> external
prover (prover).  The cli module ties these together.

Every name in `__all__` and every submodule is imported on first use
(PEP 562), so a process loads only the modules it runs.
"""

from importlib import import_module

_HOMES = {
    "core": ("Axiom", "BaseApp", "BoolType", "ConstDecl", "Context", "Pi", "Theory",
             "TypeDecl", "alpha_equal", "beta_eta_normalize", "term_size"),
    "deep": ("CheckReport", "DeepChecker", "Obligation", "check_problem",
             "export_obligations"),
    "diagnostics": ("Diagnostic", "Span"),
    "erasure": ("erase_problem", "erase_type"),
    "printer": ("format_term", "format_type", "print_problem", "print_th0"),
    "prover": ("ProverConfig", "ProverResult", "SzsVerdict", "run_prover"),
    "shallow": ("check_shallow", "skeletonize"),
    "syntax": ("Problem", "parse_file", "parse_problem"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = [name for names in _HOMES.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
