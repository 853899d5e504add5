"""Fuzzy bits and MV-semiring gates, next to the circuit models they mirror.

The package is organized bottom-up: exact unit-interval scalars and semiring
instances (`algebra`), generic linear algebra over any instance (`linalg`),
the four circuit models (`models`), a line-oriented circuit language
(`circuit`), an independent brute-force law checker (`verify`) and a CLI
(`cli`).
"""

from .algebra import (
    BOOLEAN,
    COMPLEX,
    COMPLEX_TOL,
    FUZZ_MV,
    MAX_MIN,
    ONE,
    PROBABILITY,
    VITERBI,
    ZERO,
    SemiringInstance,
    UnitScalar,
    grid_values,
    make_instance,
    neg,
    odot,
    oplus,
    vee,
    wedge,
)
from .circuit import (
    CircuitProgram,
    SimulationTrace,
    ValidatedCircuit,
    composed_operator,
    lift_gate,
    parse_circuit,
    reversible_circuit_text,
    serialize_circuit,
    simulate,
    validate,
)
from .errors import (
    FuzzbitError,
    InternalCheckError,
    MembershipError,
    ParseError,
    ValidationError,
)
from .linalg import (
    SMatrix,
    SVector,
    as_vector,
    identity,
    kron_mat,
    kron_vec,
    mat_mul,
    mat_vec,
    parse_matrix_text,
    serialize_matrix,
)
from .models import (
    MODEL_NAMES,
    MODELS,
    GateDescriptor,
    builtin_gate,
    gate_violation,
    state_violation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "UnitScalar", "ZERO", "ONE", "oplus", "wedge", "vee", "odot", "neg",
    "SemiringInstance", "FUZZ_MV", "MAX_MIN", "VITERBI", "BOOLEAN",
    "PROBABILITY", "COMPLEX", "COMPLEX_TOL", "make_instance",
    # linalg
    "SVector", "SMatrix", "mat_mul", "mat_vec", "kron_mat", "kron_vec",
    "identity", "as_vector", "parse_matrix_text", "serialize_matrix",
    # models
    "MODEL_NAMES", "MODELS", "GateDescriptor", "builtin_gate",
    "gate_violation", "state_violation",
    # circuit
    "CircuitProgram", "ValidatedCircuit", "SimulationTrace", "parse_circuit",
    "serialize_circuit", "validate", "simulate", "lift_gate",
    "composed_operator", "reversible_circuit_text",
    # verify
    "CheckReport", "grid_values", "run_all",
    # errors
    "FuzzbitError", "ParseError", "MembershipError", "ValidationError",
    "InternalCheckError",
]


def __getattr__(name: str):
    # `verify` is loaded on first use, so that importing the package or the
    # CLI for any other command does not compile and load it
    if name in ("CheckReport", "run_all"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
