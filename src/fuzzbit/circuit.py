"""Line-oriented circuit programs over the four models.

Grammar, in order, one directive per line ('#' starts a comment):

    model <classical|stochastic|quantum|fuzzy>
    wires <n>
    init ket <bits>            (leftmost bit is the highest wire)
    init vec <scalars...>      (full state vector, length 2^n)
    gate <NAME|@file> <w...>   (repeated)
    measure seed <int>         (quantum only, optional; below 2^64)

Wire 0 is the least significant bit of basis indices.  A gate's wire list
binds the gate's roles left to right, most significant first: `gate CNOT c t` puts the
control on wire c and the target on wire t, whatever their order, and the
listed wires must form a contiguous block.  Simulation applies each
step's bound matrix to its block of the state directly; lifting, which
tensors the bound matrix with the model's own identity on both sides, is
the reference route for composed operators.

`simulate` has two routes, and the model row, never a model name, picks
one.  A row that is not `dense` (classical) tracks one basis index: a step's
plan is (base, mask, perm), the block's lowest wire, the window mask 2^k - 1
and the permutation of the step's bound matrix, and the run rewrites the
window bits of that index.  Every dense row runs its own vectors: one
generic block kernel applies each step's bound matrix to the state on
their numerators (ints for stochastic and fuzzy, the complex entries at
scale 1 for quantum).  A step that grows the scale then divides the
numerators and the scale by their gcd, so the scale stays the least
common denominator of the state.  Each intermediate state is the kernel's
own vector, which builds no scalar, and passes the row's state predicate.
One generator runs both routes and holds one state at a time; the trace
keeps the last, and a caller that wants every state passes `simulate` a
per-state consumer, `each`.

Stochastic and fuzzy requests build no rational scalar from the literal to
the printed line: `init vec` literals and `@file` matrices parse to integer
numerators over a common scale (`linalg.literal_matrix`), builtins and
basis kets are numerators at scale 1, the row's predicates read gates and
states as numerators, plans are bound numerator matrices, and each run
state keeps its numerators for the CLI to print.  Each is an `SVector` or
`SMatrix` held over its numerators, whose rationals are built only when
the public API reads its `entries`.  An error inside an `@file` gate is
raised at the step's line and names the file.
`simulate(vc, seed)` measures where the row measures, with the program's
`measure seed` when `seed` is None, and rejects a seed outside [0, 2^64);
to start elsewhere, replace `vc.initial`.

Validation resolves, checks and plans each distinct (gate, wires) pair of
a program once; a repeated step reuses the first occurrence's descriptor
and plan.  Synthesized programs are built as `CircuitProgram`s directly,
one `GateStep` per distinct (gate, wires), and never go through text.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence, Union

from .algebra import _UINT_RE, _uint
from .errors import InternalCheckError, MembershipError, ParseError, ValidationError
from .linalg import (
    SMatrix,
    SVector,
    as_vector,
    basis_vector,
    format_row,
    identity,
    kron_mat,
    literal_matrix,
    mat_mul,
    mat_vec,  # noqa: F401  unused here; perfbench's tracer test patches circuit.mat_vec
    mat_vec_block,
    parse_matrix_text,
)
from .models import (
    MODEL_NAMES,
    MODELS,
    GateDescriptor,
    VectorState,
    _model,
    builtin_gate,
    gate_violation,
)
from .models.classical import ClassicalState, SynthCircuit, permutation_from_matrix
from .models.quantum import checked_seed

__all__ = [
    "GateStep",
    "CircuitProgram",
    "ValidatedCircuit",
    "SimulationTrace",
    "parse_circuit",
    "serialize_circuit",
    "validate",
    "utf8_text",
    "read_utf8",
    "lift_gate",
    "composed_operator",
    "simulate",
    "reversible_circuit_text",
]

ModelState = Union[ClassicalState, VectorState]
# The bound matrix (held as numerators over a scale), or for a classical step
# (base, mask, perm): the block's lowest wire, 2^k - 1, and the permutation of
# the block's window values.
StepPlan = Union[SMatrix, tuple[int, int, tuple[int, ...]]]

# A dense state holds 2^n entries, 65,536 at this limit.  Classical programs
# track one basis index and take any wire count.
MAX_DENSE_WIRES = 16


@dataclass(frozen=True)
class GateStep:
    gate: str  # builtin name, or @path for a matrix file
    wires: tuple[int, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CircuitProgram:
    model: str
    wire_count: int
    init_kind: str  # "ket" | "vec"
    init_values: tuple | SVector  # bits for ket, the state vector for vec
    steps: tuple[GateStep, ...]
    measure_seed: int | None = None
    init_line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ValidatedCircuit:
    """A program whose gates passed their model's membership check.

    plans[k] is what step k applies to its wire block: the bound matrix
    (held as numerators over a scale: integers for stochastic and fuzzy,
    the complex entries at scale 1 for quantum), or for classical programs
    (base, mask, perm), the permutation of the window values
    (index >> base) & mask.  Steps with the same (gate, wires) share one
    descriptor and one plan.
    """

    program: CircuitProgram
    gates: tuple[GateDescriptor, ...]
    initial: ModelState
    plans: tuple[StepPlan, ...]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """The final state of a run of `vc`, and its measurement seed.

    `measured` is what the row's `measure` draws from `final` with `seed`,
    or None.  The trace keeps no other state: a caller that wants each one
    passes `simulate` its `each` consumer.
    """

    vc: ValidatedCircuit
    final: ModelState
    seed: int | None = None

    @cached_property
    def measured(self) -> int | None:
        measure = MODELS[self.vc.program.model].measure
        return None if measure is None or self.seed is None else measure(self.final, self.seed)


# --- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def _column(line: str, k: int) -> int:
    """The 1-based column of token k of `line`, cut at its comment.
    `str.split()` and `\\S+` split at the same whitespace."""
    return next(itertools.islice(_TOKEN_RE.finditer(line), k, None)).start() + 1


def parse_circuit(text: str) -> CircuitProgram:
    """Build the program AST; lengths, ranges and memberships wait for validate.

    Each line, cut at '#', is split with `str.split()`; a token's column is
    found only for an error raised at it.
    """
    model: str | None = None
    wires: int | None = None
    init: tuple[str, tuple, int] | None = None
    steps: list[GateStep] = []
    seed: int | None = None

    def error(message: str, k: int = 0) -> ParseError:
        # at token k of the line being read; 0 is its directive
        return ParseError(message, line_no, _column(line, k))

    def uint(k: int) -> int:
        try:
            return _uint(tokens[k])
        except ParseError as exc:  # too long
            raise error(str(exc), k) from None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        word, n = tokens[0], len(tokens)
        if word == "model":
            if model is not None:
                raise error("duplicate model directive")
            if n != 2:
                raise error("expected: model <tag>")
            if tokens[1] not in MODEL_NAMES:
                raise error(f"unknown model {tokens[1]!r}", 1)
            model = tokens[1]
        elif word == "wires":
            if model is None:
                raise error("model must come first")
            if wires is not None:
                raise error("duplicate wires directive")
            if n != 2 or not _UINT_RE.fullmatch(tokens[1]):
                raise error("expected: wires <positive integer>")
            wires = uint(1)
            if wires < 1:
                raise error("wire count must be positive", 1)
        elif word == "init":
            if model is None or wires is None:
                raise error("model and wires must come before init")
            if init is not None:  # also an init after a gate, which needs one before it
                raise error("duplicate init directive")
            if n == 1:
                raise error("expected: init ket <bits> | init vec <scalars>")
            kind = tokens[1]
            if kind == "ket":
                if n != 3 or not re.fullmatch(r"[01]+", tokens[2]):
                    raise error("expected: init ket <bits>")
                bits = tuple(int(c) for c in tokens[2])
                init = ("ket", bits, line_no)
            elif kind == "vec":
                if n < 3:
                    raise error("init vec needs at least one scalar")
                instance = MODELS[model].instance
                values = []
                for k in range(2, n):
                    try:
                        values.append(instance.parse(tokens[k]))
                    except ParseError as exc:
                        raise error(str(exc), k) from None
                init = ("vec", as_vector(literal_matrix(instance, [values], line_no)), line_no)
            else:
                raise error(f"unknown init kind {kind!r}", 1)
        elif word == "gate":
            if model is None or wires is None or init is None:
                raise error("model, wires and init must come before gates")
            if seed is not None:
                raise error("measure must be the final directive")
            if n < 3:
                raise error("expected: gate <name|@file> <wires...>")
            targets = []
            for k in range(2, n):
                if not _UINT_RE.fullmatch(tokens[k]):
                    raise error(f"wire index {tokens[k]!r} is not a non-negative integer", k)
                targets.append(uint(k))
            steps.append(GateStep(tokens[1], tuple(targets), line=line_no))
        elif word == "measure":
            if model is None or wires is None or init is None:
                raise error("measure must follow a complete program")
            if seed is not None:
                raise error("duplicate measure directive")
            if n != 3 or tokens[1] != "seed" or not _UINT_RE.fullmatch(tokens[2]):
                raise error("expected: measure seed <non-negative integer>")
            try:
                seed = checked_seed(uint(2))
            except ValueError as exc:
                raise error(str(exc), 2) from None
        else:
            raise error(f"unknown directive {word!r}")

    if model is None:
        raise ParseError("missing model directive")
    if wires is None:
        raise ParseError("missing wires directive")
    if init is None:
        raise ParseError("missing init directive")
    kind, values, init_line = init
    return CircuitProgram(model, wires, kind, values, tuple(steps), seed,
                          init_line=init_line)


def serialize_circuit(program: CircuitProgram) -> str:
    """Canonical text; parse(serialize(p)) == p."""
    lines = [f"model {program.model}", f"wires {program.wire_count}"]
    if program.init_kind == "ket":
        lines.append("init ket " + "".join(str(b) for b in program.init_values))
    else:
        fmt, v = _model(program.model).instance.format, program.init_values
        lines.append("init vec " + format_row(fmt, v.numerators, v.scale))
    for step in program.steps:
        lines.append(f"gate {step.gate} " + " ".join(map(str, step.wires)))
    if program.measure_seed is not None:
        lines.append(f"measure seed {program.measure_seed}")
    return "\n".join(lines) + "\n"


# --- validation ---------------------------------------------------------------

def utf8_text(data: bytes) -> str:
    """`data` decoded as UTF-8, its CRLF and lone CR line ends read as LF.
    The bytes are decoded whole, so a UnicodeDecodeError's `start` is its
    offset in `data`."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def read_utf8(path: str | Path) -> str:
    """The `utf8_text` of the file at `path`: what pathlib's UTF-8 text read
    returns.  The path is opened as given and, only where that fails, as
    pathlib normalizes it (`a.mat/` as `a.mat`, `""` as `.`), so an error
    names the file as pathlib does.  A NUL byte in the path, which `open`
    rejects with ValueError, raises OSError with the same message: the file
    cannot be read, like any other."""
    try:
        file = open(path, "rb")
    except OSError:
        file = open(Path(path), "rb")
    except ValueError as exc:
        raise OSError(str(exc)) from None
    with file:
        return utf8_text(file.read())


def _resolve_gate(program: CircuitProgram, step: GateStep, base_dir: Path) -> GateDescriptor:
    if step.gate.startswith("@"):
        try:
            matrix = parse_matrix_text(read_utf8(base_dir / step.gate[1:]))
        except OSError as exc:
            raise ValidationError(f"cannot read gate file {step.gate[1:]!r}: {exc}",
                                  step.line) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"gate file {step.gate[1:]!r} is not UTF-8: {exc.reason} "
                             f"at byte {exc.start}", step.line) from None
        except (ParseError, ValidationError) as exc:  # each keeps its exit code
            raise type(exc)(f"gate file {step.gate[1:]!r}: {exc}", step.line) from None
        instance = MODELS[program.model].instance
        if matrix.instance != instance:
            raise ValidationError(
                f"gate file {step.gate[1:]!r} uses instance {matrix.instance.name}, "
                f"model {program.model} needs {instance.name}", step.line)
        try:
            return GateDescriptor(program.model, step.gate, matrix)
        except MembershipError as exc:
            raise ValidationError(str(exc), step.line) from None
    try:
        return builtin_gate(program.model, step.gate)
    except ValueError:
        raise ValidationError(
            f"unknown gate {step.gate!r} for model {program.model}", step.line) from None


def _initial_state(program: CircuitProgram) -> ModelState:
    n = program.wire_count  # 1 << n only on the dense route: a classical n has no bound
    row = MODELS[program.model]
    if program.init_kind == "ket":
        bits = program.init_values
        if len(bits) != n:
            raise ValidationError(
                f"init ket has {len(bits)} bits, program has {n} wires",
                program.init_line)
        index = int("".join(str(b) for b in bits), 2)
        if not row.dense:
            return ClassicalState(n, index)
        vector = basis_vector(row.instance, 1 << n, index)
    else:
        if not row.dense:
            raise ValidationError("classical programs take ket initial states",
                                  program.init_line)
        vector = program.init_values
        if len(vector) != 1 << n:
            raise ValidationError(
                f"init vec has {len(vector)} entries, expected {1 << n}", program.init_line)
    try:
        return VectorState(program.model, vector)
    except MembershipError as exc:
        raise ValidationError(f"initial state rejected: {exc}", program.init_line) from None


def _checked_step(program: CircuitProgram, step: GateStep,
                  base_dir: Path) -> tuple[GateDescriptor, StepPlan]:
    """The step's checked gate and its plan; errors carry the step's line."""
    descriptor = _resolve_gate(program, step, base_dir)
    reason = _wire_block_violation(step.gate, step.wires, descriptor.arity,
                                   program.wire_count)
    if reason is not None:
        raise ValidationError(reason, step.line)
    return descriptor, _step_plan(descriptor, step.wires)


def validate(program: CircuitProgram, base_dir: str | Path = ".") -> ValidatedCircuit:
    """Resolve gates, check memberships, wire ranges and the initial state.

    Each distinct (gate, wires) pair is checked and planned once, at its
    first step, so an error names the first failing step's line.
    """
    if program.wire_count < 1:
        raise ValidationError("wire count must be positive")
    row = _model(program.model)  # ValueError for a name no row has
    if row.dense and program.wire_count > MAX_DENSE_WIRES:
        raise ValidationError(
            f"{program.model} programs take at most {MAX_DENSE_WIRES} wires "
            f"(2^{MAX_DENSE_WIRES} state entries), got {program.wire_count}")
    base = Path(base_dir)
    checked: dict[tuple[str, tuple[int, ...]], tuple[GateDescriptor, StepPlan]] = {}
    gates, plans = [], []
    for step in program.steps:
        key = (step.gate, step.wires)
        entry = checked.get(key)
        if entry is None:
            entry = checked[key] = _checked_step(program, step, base)
        gates.append(entry[0])
        plans.append(entry[1])
    if program.measure_seed is not None and row.measure is None:
        raise ValidationError("measure is only defined for quantum programs")
    initial = _initial_state(program)
    return ValidatedCircuit(program, tuple(gates), initial, tuple(plans))


# --- lifting and simulation -----------------------------------------------------

def _wire_block_violation(gate: str, wires: Sequence[int], arity: int, n: int) -> str | None:
    """Why `wires` cannot carry an `arity`-wire gate on n wires, or None."""
    if len(wires) != arity:
        return f"gate {gate} expects {arity} wires, got {len(wires)}"
    if len(set(wires)) != arity:
        return f"gate {gate} lists a wire twice"
    low, high = min(wires), max(wires)
    if high >= n or low < 0:
        return f"wire {high if high >= n else low} out of range for {n} wires"
    if high - low + 1 != arity:
        return f"gate {gate} wires {tuple(wires)} must form a contiguous block"
    return None


def _bound_matrix(gate: GateDescriptor, targets: Sequence[int]) -> SMatrix:
    """The gate matrix re-indexed so window bit (w - base) carries wire w,
    on its numerators over its scale."""
    # rho[x] is the gate's own index of window value x, built one window bit at a time
    rho, k = [0], len(targets)
    for w in sorted(targets):
        bit = 1 << (k - 1 - targets.index(w))
        rho += [g | bit for g in rho]
    m = gate.matrix
    if rho == sorted(rho):
        return m
    pick = itemgetter(*rho)  # pick(seq) is (seq[rho[0]], seq[rho[1]], ...)
    return SMatrix.over(m.instance, map(pick, pick(m.numerators)), m.scale)


def lift_gate(gate: GateDescriptor, targets: Sequence[int], n: int) -> SMatrix:
    """Embed a gate on a contiguous wire block into the full n-wire operator."""
    reason = _wire_block_violation(gate.name, targets, gate.arity, n)
    if reason is not None:
        raise ValueError(reason)
    k = gate.arity
    base = min(targets)
    instance = gate.matrix.instance
    op = _bound_matrix(gate, targets)
    high = n - base - k
    if high:
        op = kron_mat(identity(instance, 1 << high), op)
    if base:
        op = kron_mat(op, identity(instance, 1 << base))
    violation = gate_violation(gate.model, op)
    if violation is not None:
        raise InternalCheckError(f"lifted gate left the model: {violation}")
    return op


def composed_operator(vc: ValidatedCircuit) -> SMatrix:
    """Product of all lifted steps, later gates applied on the left."""
    n = vc.program.wire_count
    total = identity(MODELS[vc.program.model].instance, 1 << n)
    for step, gate in zip(vc.program.steps, vc.gates):
        total = mat_mul(lift_gate(gate, step.wires, n), total)
    return total


def _step_plan(gate: GateDescriptor, targets: Sequence[int]) -> StepPlan:
    """The bound matrix; for classical gates, (base, mask, perm) of the window.

    The bound matrix re-indexes a member gate, and each model's gates are
    closed under re-indexing and under Kronecker products with the
    identity, so the bound and lifted operators are members too, checked
    once by `GateDescriptor`: simulate re-checks states only, never operators.
    A classical plan's perm is the permutation of the bound matrix, base is
    the block's lowest wire and mask 2^k - 1 selects its k window bits.
    """
    bound = _bound_matrix(gate, targets)
    if MODELS[gate.model].dense:
        return bound
    return min(targets), bound.rows - 1, permutation_from_matrix(bound)


def _run(vc: ValidatedCircuit) -> Iterator[int | SVector]:
    """The unchecked value after each step: a basis index, or a dense row's vector.

    A step that grows the scale divides the numerators and the scale by
    their gcd, so a scale that grows by each gate's denominator (or to the
    lcm with it) stays the state's least common denominator.
    """
    if not MODELS[vc.program.model].dense:
        index = vc.initial.basis_index
        for base, mask, perm in vc.plans:
            window = (index >> base) & mask
            index ^= (window ^ perm[window]) << base  # rewrite only the window bits
            yield index
        return
    vector = vc.initial.vector
    for step, plan in zip(vc.program.steps, vc.plans):
        before = vector
        vector = mat_vec_block(plan, min(step.wires), before)
        if vector.scale > before.scale:
            g = math.gcd(vector.scale, *vector.numerators)
            if g > 1:
                vector = SVector.over(vector.instance, (x // g for x in vector.numerators),
                                      vector.scale // g)
        yield vector


def _state(vc: ValidatedCircuit, value: int | SVector) -> ModelState:
    """The state of a value `_run` yields; a vector is not checked a second time."""
    program = vc.program
    if not MODELS[program.model].dense:
        return ClassicalState(program.wire_count, value)
    return VectorState.known_member(program.model, value)


def simulate(vc: ValidatedCircuit, seed: int | None = None,
             each: Callable[[ModelState], None] | None = None) -> SimulationTrace:
    """Run the program from `vc.initial`, holding and checking one state at a time.

    `seed` measures the final state where the row measures; None takes the
    program's `measure seed`.  Where the row measures, a seed outside
    [0, 2^64) is a ValueError here, before the run.  `each`, if given, is
    called with every state in order, `vc.initial` first, once it is checked;
    the trace's `final` is then the last state it received.
    """
    program = vc.program
    row = MODELS[program.model]
    seed = program.measure_seed if seed is None else seed
    if row.measure is not None and seed is not None:
        checked_seed(seed)
    value = state = None  # `state`: the last one `each` received
    if each is not None:
        each(vc.initial)
    if not row.dense:
        for value in _run(vc):
            if each is not None:
                each(state := _state(vc, value))
    else:
        before = vc.initial.vector
        for k, (step, plan, value) in enumerate(zip(program.steps, vc.plans, _run(vc)), 1):
            reason = row.state_violation(value)
            if reason is not None:
                if row.compounded(value, (plan, before)):
                    raise ValidationError(f"step {k} ({step.gate}) left the state set within "
                                          f"its operands' accepted deviations: {reason}",
                                          step.line)
                raise InternalCheckError(f"intermediate state failed membership: {reason}")
            before = value
            if each is not None:
                each(state := _state(vc, value))
    if state is None:
        state = vc.initial if value is None else _state(vc, value)
    return SimulationTrace(vc, state, seed)


# --- reversible emission of synthesized circuits --------------------------------

def reversible_circuit_text(circ: SynthCircuit) -> CircuitProgram:
    """A straight-line synthesis as a classical circuit program.

    Every assignment becomes its reversible embedding on a zero wire.  A
    wire that no assignment has taken still holds 0, so the lowest free wire
    stands for the fresh target: relabelling it costs no gate.  No wire is
    ever freed, and SWAPs move values only among taken wires, so the free
    wires are always the top ones and every operand lies below the target.
    SWAPs carry the operands to the wires just below it, nearest first; a
    gate's wires need only form a contiguous set, in any order.  The target
    stays where it stands, so results and the values they read gather where
    the free wires begin, and values no step reads again are left behind.
    The function value moves to wire 0 once, at the end; inputs are wires
    0..n-1 of the initial ket.  Steps with the same (gate, wires) share one
    `GateStep`; the program's text is `serialize_circuit` of it.
    """
    total = circ.n_wires
    # at[wire] = the value on it, None while it is free; pos[value] = its wire
    at: list[int | None] = [*range(circ.n_inputs), *[None] * (total - circ.n_inputs)]
    pos = list(range(total))
    steps: list[GateStep] = []
    gate_step = cache(GateStep)  # one object per distinct (gate, wires)

    def move(value: int, target: int) -> None:
        """SWAP `value` wire by wire to `target`; the wires it passes shift one back."""
        wire = pos[value]
        if wire < target:
            at[wire:target + 1] = at[wire + 1:target + 1] + [value]
            steps.extend(gate_step("SWAP", (w, w + 1)) for w in range(wire, target))
        else:
            at[target:wire + 1] = [value] + at[target:wire]
            steps.extend(gate_step("SWAP", (w - 1, w)) for w in range(wire, target, -1))
        for w in range(min(wire, target), max(wire, target) + 1):  # every one taken
            pos[at[w]] = w

    for step in circ.steps:
        target = below = at.index(None)  # the lowest free wire, and the block gathered below it
        at[target] = step.target
        pos[step.target] = target
        for a in sorted(step.args, key=lambda a: abs(pos[a] - target)):
            below -= 1
            move(a, below)
        wires = tuple(pos[a] for a in step.args) + (target,)
        if step.op == "CONST":
            if step.value:
                steps.append(gate_step("NOT", wires))
        elif step.op == "NOT":
            steps.append(gate_step("FANOUT", wires))
            steps.append(gate_step("NOT", (target,)))
        else:
            steps.append(gate_step(step.op, wires))
    move(circ.output_wire, 0)
    return CircuitProgram("classical", total, "ket", (0,) * total, tuple(steps))
