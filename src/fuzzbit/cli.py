"""Command-line front door.

Subcommands: check, apply, kron, simulate, sample, synth, verify.  Any file
argument may be `-` for standard input.  Exit codes are a stable contract:
0 success, 1 domain/membership failure, 2 parse error, 3 internal invariant
breach.  Quantum scalars print with 12 significant digits; every other model
prints exact rationals.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from pathlib import Path

from .circuit import (
    MAX_DENSE_WIRES,
    SimulationTrace,
    parse_circuit,
    read_utf8,
    reversible_circuit_text,
    serialize_circuit,
    simulate,
    utf8_text,
    validate,
)
from .algebra import GRID_NAMES
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
    format_row,
    kron_mat,
    kron_vec,
    mat_vec,
    parse_matrix_text,
    serialize_matrix,
)
from .models import MODEL_NAMES, MODELS, gate_violation, state_violation
from .models.classical import ClassicalState, TruthTable, synthesize_circuit
from .models.quantum import checked_seed

__all__ = ["main", "entry"]

# The self-check runs the emitted program on all 2^n inputs.  A seeded table
# of 8 inputs gives about 5,600 lines (94 KB) and takes about 0.12 s on a
# shared 2-vCPU host; raising the limit would change exit codes.
MAX_SYNTH_INPUTS = 8


def _read_input(path: str) -> str:
    """The text of the file at `path`, or of standard input for `-`."""
    try:
        return utf8_text(sys.stdin.buffer.read()) if path == "-" else read_utf8(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _read_matrix(path: str) -> SMatrix:
    return parse_matrix_text(_read_input(path))


def _read_operand(path: str) -> SMatrix | SVector:
    """A single row or column reads as a state vector, anything else as a gate."""
    m = _read_matrix(path)
    return as_vector(m) if m.rows == 1 or m.cols == 1 else m


def _render_vector(v: SVector) -> str:
    return format_row(v.instance.display, v.numerators, v.scale)


def _render_state(state) -> str:
    """A classical index past the int-string digit limit is a FuzzbitError
    (exit 1), as `algebra.format_ratio` makes a scalar past it."""
    if isinstance(state, ClassicalState):
        try:
            return f"index {state.basis_index} ket {state.ket()}"
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise FuzzbitError(f"basis index has more than {sys.get_int_max_str_digits()} "
                               "digits") from None
    return _render_vector(state.vector)


def _violation(model: str, x: SMatrix | SVector) -> str | None:
    """The model's verdict on `x`: a vector as a state, a matrix as a gate."""
    return (state_violation if isinstance(x, SVector) else gate_violation)(model, x)


def _print_checked(model: str, what: str, operation, *operands: SMatrix | SVector) -> int:
    """Print `operation(*operands)`: a non-member operand exits 1, a non-member
    result 3, or 1 where the row finds it `compounded` from the operands."""
    for reason in [_violation(model, x) for x in operands]:  # all checked, first reported
        if reason is not None:
            raise MembershipError(reason)
    result = operation(*operands)
    is_state = isinstance(result, SVector)
    reason = _violation(model, result)
    if reason is not None:
        left = f"{what} left the {'state' if is_state else 'gate'} set"
        if MODELS[model].compounded(result, operands):
            raise MembershipError(f"{left} within its operands' accepted deviations: {reason}")
        raise InternalCheckError(f"{left}: {reason}")
    if is_state:
        print(_render_vector(result))
    else:
        sys.stdout.write(serialize_matrix(result, result.instance.display))
    return 0


def cmd_check(args) -> int:
    reason = _violation(args.model, _read_operand(args.file))
    print("ok" if reason is None else f"fail {reason}")
    return 0 if reason is None else 1


def _act(gate: SMatrix, state: SVector) -> SVector:
    if gate.cols != len(state):
        raise ValidationError(
            f"a {gate.rows}x{gate.cols} gate cannot act on a state of length {len(state)}")
    return mat_vec(gate, state)


def cmd_apply(args) -> int:
    gate = _read_matrix(args.gate)
    state = _read_operand(args.state)
    if not isinstance(state, SVector):
        raise ValidationError(f"{state.rows}x{state.cols} matrix is not a vector")
    return _print_checked(args.model, "result", _act, gate, state)


def _tensor(a: SMatrix | SVector, b: SMatrix | SVector) -> SMatrix | SVector:
    # the product has |a| * |b| entries: bound it by the dense-state ceiling
    vectors = isinstance(a, SVector)
    size = len(a) * len(b) if vectors else a.rows * a.cols * b.rows * b.cols
    if size > 1 << MAX_DENSE_WIRES:
        raise ValidationError(
            f"kron results take at most {1 << MAX_DENSE_WIRES} entries, got {size}")
    return (kron_vec if vectors else kron_mat)(a, b)


def cmd_kron(args) -> int:
    a = _read_operand(args.a)
    b = _read_operand(args.b)
    if isinstance(a, SVector) != isinstance(b, SVector):
        raise ValidationError("kron arguments must be two states or two gates")
    return _print_checked(args.model, "tensor", _tensor, a, b)


def _print_trace(program, trace: SimulationTrace, lines: list[str]) -> None:
    """Print `lines`, the step lines of `--trace` or none, and the run's summary, at once."""
    lines.append(f"model {program.model}")
    lines.append(f"wires {program.wire_count}")
    lines.append(f"final {_render_state(trace.final)}")
    if trace.measured is not None:
        lines.append(f"measured {trace.measured}")
    print("\n".join(lines))


def cmd_simulate(args, force_measure: bool = False) -> int:
    program = parse_circuit(_read_input(args.circuit))
    if MODELS[program.model].measure is None:
        if args.seed is not None:
            raise ValidationError("--seed applies to quantum circuits only")
        if force_measure:
            raise ValidationError("sample requires a quantum circuit")
    vc = validate(program, base_dir=Path(args.circuit).parent)  # `-` resolves from "."
    seed = args.seed
    if seed is None and force_measure:
        seed = program.measure_seed or 0  # the program's seed, else 0
    lines: list[str] = []  # the step lines, rendered as the run checks each state
    labels = ["init"] + [step.gate for step in program.steps]

    def step_line(state) -> None:
        lines.append(f"step {len(lines)} {labels[len(lines)]} {_render_state(state)}")
    trace = simulate(vc, seed, step_line if getattr(args, "trace", False) else None)
    _print_trace(program, trace, lines)
    return 0


def cmd_sample(args) -> int:
    return cmd_simulate(args, force_measure=True)


def cmd_synth(args) -> int:
    tokens = _read_input(args.table).split()
    if not tokens or any(t not in ("0", "1") for t in tokens):
        raise ParseError("truth table file must contain only 0/1 entries")
    size = len(tokens)
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ParseError(f"table length {size} is not a power of two (at least 2)")
    if n > MAX_SYNTH_INPUTS:
        raise ValidationError(
            f"synth takes tables of at most {MAX_SYNTH_INPUTS} inputs "
            f"({1 << MAX_SYNTH_INPUTS} entries), got {n}")
    bits = tuple(int(t) for t in tokens)
    program = reversible_circuit_text(synthesize_circuit(TruthTable(n, 1, bits)))
    vc = validate(program)
    for x in range(size):
        final = simulate(dataclasses.replace(
            vc, initial=ClassicalState(program.wire_count, x))).final
        if final.basis_index & 1 != bits[x]:
            raise InternalCheckError(
                f"synthesized circuit disagrees with the table at input {x}")
    # the text of exactly the program checked above
    sys.stdout.write(f"# synthesized circuit: inputs on wires 0..{n - 1}, result on wire 0\n"
                     + serialize_circuit(program))
    return 0


def cmd_verify(args) -> int:
    from .verify import count_all  # loaded for this command only

    failures = 0
    for name, cases, failed in count_all(args.grid):
        print(f"{name} cases {cases} failures {failed}")
        failures += failed
    return 0 if failures == 0 else 1


def _seed_arg(text: str) -> int:
    # ASCII digits, as `measure seed` takes; int() alone reads '٣', '1_0' and ' 7'
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(text)
    value = int(text)
    try:
        return checked_seed(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_TRACE = {"action": "store_true", "help": "print every intermediate state"}
# Each command: its function, its help line, its positionals as (name, choices
# or None) and its options as `add_argument` takes them.  `_build_parser` and
# `_read_argv` are both built from this table.
COMMANDS = {
    "check": (cmd_check, "membership verdict for a gate or state file",
              (("model", MODEL_NAMES), ("file", None)), {}),
    "apply": (cmd_apply, "apply a gate file to a state file",
              (("model", MODEL_NAMES), ("gate", None), ("state", None)), {}),
    "kron": (cmd_kron, "Kronecker product of two states or two gates",
             (("model", MODEL_NAMES), ("a", None), ("b", None)), {}),
    "simulate": (cmd_simulate, "run a .circ program", (("circuit", None),), {
        "--trace": _TRACE,
        "--seed": {"type": _seed_arg, "help": "measurement seed override (quantum)"}}),
    "sample": (cmd_sample, "simulate with a terminal measurement", (("circuit", None),), {
        "--trace": _TRACE,
        "--seed": {"type": _seed_arg, "help": "measurement seed (default 0)"}}),
    "synth": (cmd_synth, "synthesize a classical circuit from a truth table",
              (("table", None),), {}),
    "verify": (cmd_verify, "run the brute-force law checks", (),
               {"--grid": {"choices": GRID_NAMES, "default": "standard"}}),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, and only for an argv `_read_argv` declines:
    # parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="fuzzbit",
        description="Fuzzy, classical, stochastic and quantum circuit toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (func, summary, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest, choices in positionals:
            p.add_argument(dest, choices=choices)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace `_build_parser().parse_args(argv)` returns, where argv
    names a command and then holds only that command's exact option strings,
    each value option followed by a value its type and choices accept, and
    the right number of positionals, none starting with `-` but `-` itself,
    each in its choices.  None for every other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positionals, options = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    for flag, spec in options.items():
        values[flag[2:]] = spec.get("default", False if "action" in spec else None)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        spec = options.get(token)
        if spec is None:
            if token.startswith("-") and token != "-":
                return None
            given.append(token)
        elif "action" in spec:  # store_true
            values[token[2:]] = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                value = spec.get("type", str)(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            values[token[2:]] = value
    if len(given) != len(positionals):
        return None
    for (name, choices), token in zip(positionals, given):
        if choices is not None and token not in choices:
            return None
        values[name] = token
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run one request and return its exit code.

    `_read_argv` accepts only an argv that argparse reads in one way, and
    gives the namespace argparse would; every other argv goes to argparse
    unchanged, so each usage, help and error line is argparse's own."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except FuzzbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
