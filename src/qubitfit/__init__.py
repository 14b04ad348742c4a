"""Two-qubit product circuit as a trainable least-squares function approximator.

The package splits into five layers: exact statevector simulation
(:mod:`.circuit`), closed-form and cubic Maclaurin analysis (:mod:`.analytic`),
the sampled least-squares objective (:mod:`.objective`), a derivative-free
chemotaxis optimizer (:mod:`.chemotaxis`), and the file/CLI surface
(:mod:`.fileio` with the parameter, record and SVG plot formats,
:mod:`.verify`, :mod:`.reproduce`, :mod:`.cli`).

``import qubitfit`` loads no submodule and no numpy: each public name
imports its module on first use (PEP 562), so the CLI runs code before
numpy loads.
"""

from importlib import import_module

# module -> the public names it defines; __all__, __dir__ and __getattr__ all read it
_EXPORTS = {
    "circuit": ("CircuitParams", "prepare_state", "circuit_expectation", "circuit_expectation_grid"),
    "analytic": ("CubicPoly", "closed_form_expectation", "cubic_coefficients", "cubic_remainder"),
    "objective": ("TargetFunction", "get_target", "polynomial_target", "make_grid", "performance_index",
                  "max_pointwise_error"),
    "chemotaxis": ("OptimizerConfig", "FitResult", "optimize"),
    "fileio": ("ParamsFileError", "parse_params", "format_params", "read_params_file", "write_params_file"),
    "verify": ("SuiteResult", "run_suites"),
    "reproduce": ("ReproductionReport", "published_params", "run_reproduction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
