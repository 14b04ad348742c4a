"""Two-qubit product circuit as a trainable least-squares function approximator.

The package splits into five layers: exact statevector simulation
(:mod:`.circuit`), closed-form and cubic Maclaurin analysis (:mod:`.analytic`),
the sampled least-squares objective (:mod:`.objective`), a derivative-free
chemotaxis optimizer (:mod:`.chemotaxis`), and the file/CLI surface
(:mod:`.fileio` with the parameter, record and SVG plot formats,
:mod:`.verify`, :mod:`.reproduce`, :mod:`.cli`).
"""

from .analytic import (
    CubicPoly,
    closed_form_expectation,
    cubic_coefficients,
    cubic_remainder,
)
from .chemotaxis import FitResult, OptimizerConfig, optimize
from .circuit import (
    CircuitParams,
    circuit_expectation,
    circuit_expectation_grid,
    prepare_state,
)
from .fileio import (
    ParamsFileError,
    format_params,
    parse_params,
    read_params_file,
    write_params_file,
)
from .objective import (
    TargetFunction,
    get_target,
    make_grid,
    max_pointwise_error,
    performance_index,
    polynomial_target,
)
from .reproduce import ReproductionReport, published_params, run_reproduction
from .verify import SuiteResult, run_suites

__all__ = [
    "CircuitParams",
    "prepare_state",
    "circuit_expectation",
    "circuit_expectation_grid",
    "CubicPoly",
    "closed_form_expectation",
    "cubic_coefficients",
    "cubic_remainder",
    "TargetFunction",
    "get_target",
    "polynomial_target",
    "make_grid",
    "performance_index",
    "max_pointwise_error",
    "OptimizerConfig",
    "FitResult",
    "optimize",
    "ParamsFileError",
    "parse_params",
    "format_params",
    "read_params_file",
    "write_params_file",
    "SuiteResult",
    "run_suites",
    "ReproductionReport",
    "published_params",
    "run_reproduction",
]

__version__ = "0.1.0"
