"""Seeded inputs for the three workloads.

A deck is one cycle of operations.  The benchmark runs whole decks, in the
same order, until the run's time is up, so every cycle does identical work
and the exact work counts repeat.  The composition of a deck (how many
programs of each model, wire count and length) is fixed; the seed chooses
the gates, wire bindings, initial states, matrices and truth tables.  The
program under test sees only the files written here.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path, PurePosixPath
from typing import Callable

import reference as ref

WORKLOADS = ("sim-dense", "verify-standard", "cli-mix")

# The percentile op_tail_ms reports, fixed by the deck so that a change of
# speed, which changes the number of cycles in a run, cannot change it.
# sim-dense: 4 of 80 programs lie beyond p95; cli-mix: 4-5 of 475 requests
# lie beyond p99; verify-standard has one request, so its tail is the max.
TAIL_PERCENTILE = {"sim-dense": 95.0, "verify-standard": 100.0, "cli-mix": 99.0}

# (model, wires, gate steps, programs per deck).  Most programs have at most
# six wires; the seven-wire ones are few and short because the dense path
# costs O(8^n) per quantum step and O(4^n) per rational step.
# The counts put the median latency inside the quantum 4-wire class and the
# p95 tail inside the quantum 6-wire / fuzzy 7-wire group, whose costs depend
# on wires and steps rather than on the seed's choices.
SIM_DENSE_PROGRAMS = (
    ("quantum", 3, 10, 10), ("quantum", 4, 10, 16), ("quantum", 5, 8, 3),
    ("quantum", 6, 6, 2), ("quantum", 7, 2, 1),
    ("stochastic", 3, 10, 10), ("stochastic", 4, 10, 8), ("stochastic", 5, 8, 3),
    ("stochastic", 6, 6, 2), ("stochastic", 7, 3, 1),
    ("fuzzy", 3, 10, 10), ("fuzzy", 4, 10, 8), ("fuzzy", 5, 8, 3),
    ("fuzzy", 6, 6, 2), ("fuzzy", 7, 2, 1),
)

# `synth` tables per deck: every 2-input table, plus seeded ones of these sizes.
SYNTH_SEEDED_INPUTS = (3,) * 8 + (4,)
CLI_VARIANTS = 8  # copies of the small-request block, each with its own files

# Case counts `verify --grid standard` reported at the commit that defined
# this benchmark; a change to the checks' coverage shows as a failure.
VERIFY_STANDARD_CASES = {
    "semiring-axioms-fuzz-mv": 1449,
    "semiring-axioms-max-min": 1449,
    "semiring-axioms-viterbi": 1449,
    "semiring-axioms-boolean": 44,
    "mv-gate-laws-2": 9855241,
    "mv-gate-laws-4": 197801,
    "action-laws-2": 440301,
    "action-laws-4": 300000,
    "tensor-laws": 24672,
    "stochastic-semigroup": 2404,
    "oracle-agreement": 10000,
}

GRID = tuple(Fraction(x) for x in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"))
BUILTINS = {
    "classical": (("NOT", 1), ("CNOT", 2), ("SWAP", 2)),
    "stochastic": (("NOT", 1), ("CNOT", 2), ("SWAP", 2)),
    "quantum": (("H", 1), ("X", 1), ("Z", 1), ("CNOT", 2), ("SWAP", 2)),
    "fuzzy": (("FID", 1), ("FNOT", 1), ("FSWAP", 2)),
}


@dataclass
class Op:
    """One operation: a `fuzzbit` command line and what it must produce.

    `check` receives (exit code, stdout, stderr) and returns None or the
    reason the output is wrong.  Path arguments are relative to the deck's
    directory until `Deck.argv` resolves them.
    """

    kind: str
    argv: list
    check: Callable[[int, str, str], str | None]
    entries: int = 0  # state-vector entries produced: sum of 2^n over gate steps
    cases: int = 0  # law cases the operation checks


@dataclass
class Deck:
    ops: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # relative path -> bytes
    laws_per_op: int = 1  # verify-standard: one request runs every check
    scalars: dict = field(default_factory=dict)  # model -> scalars from input states
    programs: list = field(default_factory=list)  # sim-dense: their final states are sampled

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        for op in self.ops:
            h.update(("\0".join(str(a) for a in op.argv) + "\n").encode())
        return h.hexdigest()

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            path = directory / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)

    def argv(self, op: Op, directory: Path) -> list:
        return [str(directory / a) if isinstance(a, PurePosixPath) else a for a in op.argv]


# --- literal formatting (the file grammar of the package's README) ----------------

def _fmt(model: str, x) -> str:
    if model != "quantum":
        return str(Fraction(x))
    re_, im = x.real + 0.0, x.imag + 0.0  # + 0.0 turns -0.0 into 0.0
    if im == 0.0:
        return repr(re_)
    if re_ == 0.0:
        return repr(im) + "i"
    return f"{re_!r}{'' if im < 0 else '+'}{im!r}i"


def matrix_text(model: str, rows: list) -> str:
    head = f"instance {ref.RINGS[model].name} {len(rows)} {len(rows[0])}"
    return "\n".join([head] + [" ".join(_fmt(model, x) for x in row) for row in rows]) + "\n"


def vector_text(model: str, v: list, column: bool = False) -> str:
    return matrix_text(model, [[x] for x in v] if column else [list(v)])


# --- random members and non-members of each model -----------------------------------

def random_gate(rng: random.Random, model: str, arity: int) -> list:
    size = 1 << arity
    r = ref.RINGS[model]
    if model == "classical":
        perm = list(range(size))
        rng.shuffle(perm)
        return ref.perm_matrix(perm, r.zero, r.one)
    if model == "stochastic":
        cols = []
        for _ in range(size):
            cuts = sorted(rng.randrange(5) for _ in range(size - 1))
            bounds = [0] + cuts + [4]
            cols.append([Fraction(bounds[i + 1] - bounds[i], 4) for i in range(size)])
        return [[cols[j][i] for j in range(size)] for i in range(size)]
    if model == "fuzzy":
        cols = []
        for _ in range(size):
            col = [rng.choice(GRID) for _ in range(size)]
            col[rng.randrange(size)] = Fraction(0)
            cols.append(col)
        return [[cols[j][i] for j in range(size)] for i in range(size)]
    if arity == 1:
        theta = 2 * math.pi * rng.randrange(1, 24) / 24
        phase = cmath.exp(1j * 2 * math.pi * rng.randrange(8) / 8)
        c, s = math.cos(theta), math.sin(theta)
        return [[complex(c), -s * phase], [complex(s), c * phase]]
    diag = [cmath.exp(1j * 2 * math.pi * rng.randrange(8) / 8) for _ in range(size)]
    return [[diag[i] if i == j else 0j for j in range(size)] for i in range(size)]


def random_state(rng: random.Random, model: str, size: int) -> list:
    r = ref.RINGS[model]
    if model == "classical":
        index = rng.randrange(size)
        return [r.one if i == index else r.zero for i in range(size)]
    if model == "stochastic":
        total = 2 * size  # a fixed denominator keeps the Fraction sizes, and costs, alike
        cuts = [0] + sorted(rng.randrange(total + 1) for _ in range(size - 1)) + [total]
        return [Fraction(cuts[i + 1] - cuts[i], total) for i in range(size)]
    if model == "fuzzy":
        v = [rng.choice(GRID) for _ in range(size)]
        v[rng.randrange(size)] = Fraction(0)
        return v
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(size)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def bad_gate(rng: random.Random, model: str) -> list:
    """A 2x2 matrix of the model's carrier that is not one of its gates."""
    if model == "classical":
        return [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    if model == "stochastic":
        p = rng.choice((Fraction(1, 4), Fraction(3, 4)))  # column 0 sums to p + 1/2
        return [[p, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    if model == "fuzzy":
        return [[rng.choice(GRID[1:]), Fraction(0)], [rng.choice(GRID[1:6]), Fraction(1)]]
    return [[1 + 0j, complex(rng.choice((1, 2)))], [0j, 1 + 0j]]


def bad_state(rng: random.Random, model: str) -> list:
    if model == "classical":
        return [Fraction(1), Fraction(1)]
    if model == "stochastic":
        return [Fraction(1, 2), rng.choice((Fraction(1, 4), Fraction(3, 4)))]
    if model == "fuzzy":
        return [rng.choice(GRID[1:]), rng.choice(GRID[1:6])]
    return [1 + 0j, complex(rng.choice((1, 2)))]


# --- circuit programs ---------------------------------------------------------------

def _bind(rng: random.Random, wires: int, arity: int) -> tuple:
    base = rng.randrange(wires - arity + 1)
    targets = list(range(base, base + arity))
    rng.shuffle(targets)  # reversed binds such as `CNOT 1 0` are part of the language
    return tuple(targets)


def random_program(rng: random.Random, model: str, wires: int, steps: int, stem: str,
                   files: dict, vec_init: bool = False, file_gate_every: int = 0,
                   measure_seed: int | None = None) -> tuple[ref.Program, str]:
    """A program and its text; @file gates are added to `files`.

    Which steps read an @file gate, and whether the initial state is a full
    vector, are fixed by the arguments, so programs of one shape cost alike.
    """
    builtin = ref.builtin_gates(model)
    lines = [f"model {model}", f"wires {wires}"]
    if model == "classical" or not vec_init:
        bits = "".join(rng.choice("01") for _ in range(wires))
        init = ("ket", bits)
        lines.append(f"init ket {bits}")
    else:
        values = random_state(rng, model, 1 << wires)
        init = ("vec", values)
        lines.append("init vec " + " ".join(_fmt(model, x) for x in values))
    choices = list(BUILTINS[model])
    if model == "classical" and wires >= 3:
        choices += [("AND", 3), ("XOR", 3)]
    program_steps = []
    for k in range(steps):
        if model != "classical" and file_gate_every and k % file_gate_every == file_gate_every - 1:
            arity = rng.choice((1, 2))
            matrix = random_gate(rng, model, arity)
            label = f"@{stem}-g{k}.mat"
            files[f"{stem}-g{k}.mat"] = matrix_text(model, matrix).encode()
        else:
            label, arity = rng.choice(choices)
            matrix = builtin[label]
        targets = _bind(rng, wires, arity)
        program_steps.append((label, matrix, targets))
        lines.append(f"gate {label} " + " ".join(str(w) for w in targets))
    if measure_seed is not None:
        lines.append(f"measure seed {measure_seed}")
    program = ref.Program(model, wires, init, program_steps, measure_seed)
    return program, "\n".join(lines) + "\n"


def _expect_ok(check: Callable[[str], str | None]):
    def run(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0 ({err.strip()[:120]})"
        return check(out)
    return run


def _expect_exit(expected: int, stdout_prefix: str | None = None):
    """A rejection: the exit code, plus a verdict line or an error message."""
    def run(code: int, out: str, err: str) -> str | None:
        if code != expected:
            return f"exit {code}, expected {expected}"
        if stdout_prefix is not None:
            return None if out.startswith(stdout_prefix) else f"stdout {out[:60]!r}"
        if out or not err.strip():
            return "expected an error on stderr and nothing on stdout"
        return None
    return run


def _sim_op(kind: str, program: ref.Program, path: PurePosixPath, argv_tail: list,
            traced: bool, measure_seed: int | None) -> Op:
    argv = [argv_tail[0], path] + argv_tail[1:]
    entries = len(program.steps) << program.wires
    return Op(kind, argv, _expect_ok(
        lambda out: ref.check_simulation(program, out, traced, measure_seed)), entries=entries)


def _file(deck: Deck, name: str, text: str) -> PurePosixPath:
    deck.files[name] = text.encode()
    return PurePosixPath(name)


def _add_scalars(deck: Deck, model: str, values) -> None:
    deck.scalars.setdefault(model, []).extend(values)


def sim_dense(seed: int) -> Deck:
    rng = random.Random(f"sim-dense/{seed}")
    deck = Deck()
    for model, wires, steps, count in SIM_DENSE_PROGRAMS:
        for i in range(count):
            stem = f"{model}{wires}-{i}"
            mode, measure_seed = "simulate", None
            if model == "quantum":
                mode = ("simulate", "measure", "sample")[i % 3]
                measure_seed = rng.randrange(1 << 32) if mode != "simulate" else None
            program, text = random_program(
                rng, model, wires, steps, stem, deck.files, vec_init=i % 2 == 1,
                file_gate_every=5, measure_seed=measure_seed if mode == "measure" else None)
            path = _file(deck, f"{stem}.circ", text)
            tail = ["sample", "--seed", str(measure_seed)] if mode == "sample" else ["simulate"]
            deck.ops.append(_sim_op(model, program, path, tail, False, measure_seed))
            deck.programs.append(program)
    rng.shuffle(deck.ops)
    return deck


def verify_standard(seed: int) -> Deck:
    """The standard grid is built into `verify`; the seed has nothing to vary."""
    deck = Deck(laws_per_op=len(VERIFY_STANDARD_CASES))
    deck.ops.append(Op("verify", ["verify", "--grid", "standard"], _expect_ok(
        lambda out: ref.check_verify_output(out, VERIFY_STANDARD_CASES)),
        cases=sum(VERIFY_STANDARD_CASES.values())))
    _add_scalars(deck, "fuzzy", GRID)
    _add_scalars(deck, "stochastic", GRID)
    _add_scalars(deck, "quantum", [complex(x, y) for x in GRID for y in GRID])
    return deck


def cli_mix(seed: int) -> Deck:
    rng = random.Random(f"cli-mix/{seed}")
    deck = Deck()
    ops = deck.ops
    for variant in range(CLI_VARIANTS):
        for model in ("classical", "stochastic", "quantum", "fuzzy"):
            ring = ref.RINGS[model]
            p = f"{model}-{variant}"
            g2, g4 = random_gate(rng, model, 1), random_gate(rng, model, 2)
            s2, s4 = random_state(rng, model, 2), random_state(rng, model, 4)
            g2f = _file(deck, f"{p}-g2.mat", matrix_text(model, g2))
            g4f = _file(deck, f"{p}-g4.mat", matrix_text(model, g4))
            s2f = _file(deck, f"{p}-s2.vec", vector_text(model, s2))
            s4f = _file(deck, f"{p}-s4.vec", vector_text(model, s4, column=True))
            badg = _file(deck, f"{p}-bad.mat", matrix_text(model, bad_gate(rng, model)))
            bads = _file(deck, f"{p}-bad.vec", vector_text(model, bad_state(rng, model)))
            ok = _expect_ok(lambda out: None if out == "ok\n" else f"verdict {out!r}")
            ops += [
                Op("check", ["check", model, g4f], ok),
                Op("check", ["check", model, s2f], ok),
                Op("check-reject", ["check", model, badg], _expect_exit(1, "fail ")),
                Op("check-reject", ["check", model, bads], _expect_exit(1, "fail ")),
                Op("apply", ["apply", model, g2f, s2f], _expect_ok(
                    lambda out, m=model, r=ring, a=g2, b=s2:
                    ref.check_vector_output(m, out, ref.mat_vec(r, a, b)))),
                Op("apply", ["apply", model, g4f, s4f], _expect_ok(
                    lambda out, m=model, r=ring, a=g4, b=s4:
                    ref.check_vector_output(m, out, ref.mat_vec(r, a, b)))),
                Op("apply-reject", ["apply", model, badg, s2f], _expect_exit(1)),
                Op("kron", ["kron", model, s2f, s4f], _expect_ok(
                    lambda out, m=model, r=ring, a=s2, b=s4:
                    ref.check_vector_output(m, out, ref.kron_vec(r, a, b)))),
                Op("kron", ["kron", model, g2f, g2f], _expect_ok(
                    lambda out, m=model, r=ring, a=g2:
                    ref.check_matrix_output(m, out, ref.kron_mat(r, a, a)))),
                Op("kron-reject", ["kron", model, g2f, s2f], _expect_exit(1)),
            ]
            for scalars in (s2, s4):
                _add_scalars(deck, model, scalars)
            for i in range(3):
                stem = f"{p}-prog{i}"
                program, text = random_program(rng, model, 3, 4, stem, deck.files,
                                               vec_init=i % 2 == 1, file_gate_every=4)
                path = _file(deck, f"{stem}.circ", text)
                ops.append(_sim_op("simulate", program, path, ["simulate", "--trace"],
                                   True, None))
                if model == "quantum":
                    s = rng.randrange(1 << 32)
                    ops.append(_sim_op("sample", program, path, ["sample", "--seed", str(s)],
                                       False, s))
    ops += _cli_rejections(rng, deck)
    tables = [tuple((t >> x) & 1 for x in range(4)) for t in range(16)]
    tables += [cofactor_table(rng, n) for n in SYNTH_SEEDED_INPUTS]
    for table in tables:
        n = len(table).bit_length() - 1
        path = _file(deck, f"table{len(ops)}.txt", " ".join(map(str, table)) + "\n")
        ops.append(Op(f"synth-{n}", ["synth", path], _expect_ok(
            lambda out, t=table: ref.check_synth_output(t, out))))
    rng.shuffle(ops)
    return deck


def cofactor_table(rng: random.Random, inputs: int) -> tuple:
    """A table on 3 or more inputs whose row pairs (f(2j), f(2j+1)) are
    00, 01, 10 and 11 equally often, in seeded order.

    `synth` builds one base case per row pair, so all such tables give
    circuits of nearly one size: 276-281 gates at 3 inputs and 1130-1140 at
    4 over 300 draws, where uniformly random tables range over 168-354 and
    823-1435.  The deck's cost then does not depend on the seed.
    """
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)] * (1 << (inputs - 3))
    rng.shuffle(pairs)
    return tuple(bit for pair in pairs for bit in pair)


def _cli_rejections(rng: random.Random, deck: Deck) -> list:
    """Well-formed requests that must fail: exit 2 for parse errors, 1 for domain errors."""
    bad_scalar = rng.choice(("abc", "1/0", "0.5.5", "--1"))
    fuzzy = _file(deck, "rej-fuzzy.circ",
                  random_program(rng, "fuzzy", 2, 3, "rej-fuzzy", deck.files)[1])
    stoch = _file(deck, "rej-stoch.circ",
                  random_program(rng, "stochastic", 2, 3, "rej-stoch", deck.files)[1])
    _file(deck, "rej-bad.mat", matrix_text("fuzzy", bad_gate(rng, "fuzzy")))
    cases = [
        (2, ["check", "fuzzy", _file(deck, "rej-header.mat", "instance fuzz-mv 2\n0 1\n1 0\n")]),
        (2, ["check", "stochastic", _file(
            deck, "rej-scalar.mat", f"instance probability 2 2\n1/2 {bad_scalar}\n1/2 1/2\n")]),
        (2, ["simulate", _file(deck, "rej-directive.circ",
                               "model fuzzy\nwires 2\ninit ket 01\nflip 0\n")]),
        (2, ["simulate", _file(deck, "rej-wire.circ",
                               "model quantum\nwires 2\ninit ket 00\ngate H a\n")]),
        (2, ["synth", _file(deck, "rej-table.txt", "0 1 1\n")]),
        (2, ["sample", "--seed", "-1", fuzzy]),
        (1, ["simulate", _file(deck, "rej-gate.circ",
                               "model fuzzy\nwires 2\ninit ket 10\ngate @rej-bad.mat 0\n")]),
        (1, ["simulate", _file(deck, "rej-init.circ",
                               "model stochastic\nwires 1\ninit vec 1/2 1/4\ngate NOT 0\n")]),
        (1, ["sample", fuzzy]),
        (1, ["simulate", "--seed", str(rng.randrange(100)), stoch]),
    ]
    return [Op("reject", argv, _expect_exit(code)) for code, argv in cases]


def build(workload: str, seed: int) -> Deck:
    return {"sim-dense": sim_dense, "verify-standard": verify_standard,
            "cli-mix": cli_mix}[workload](seed)
