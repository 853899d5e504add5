"""Spans around the public functions of each fuzzbit module, from outside.

`Tracer.install` replaces each target function with a timing wrapper in
every loaded fuzzbit module that holds a reference to it (the defining
module and every module that imported the name), so calls made inside the
package are seen too.  A span is (id, parent id, request id, name, start ns,
end ns, work), kept in memory; self time is a span's duration minus the
time its child spans cover.  A target the package no longer defines is
skipped, and its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _rows_cols(m) -> int:
    return m.rows * m.cols


# Work per call, from argument shapes: multiplications plus additions.
def _mat_vec_ops(args, result):
    a = args[0]
    return a.rows * (2 * a.cols - 1)


def _mat_mul_ops(args, result):
    a, b = args[0], args[1]
    return a.rows * b.cols * (2 * a.cols - 1)


def _kron_mat_ops(args, result):
    return _rows_cols(args[0]) * _rows_cols(args[1])


LINALG_COUNTED = ("mat_vec", "mat_mul", "kron_mat")
LINALG_PLAIN = ("kron_vec", "identity", "parse_matrix_text", "serialize_matrix")
MODEL_FUNCTIONS = (
    ("models", "gate_violation"),
    ("models.classical", "permutation_violation"),
    ("models.stochastic", "stochastic_violation"),
    ("models.quantum", "unitary_violation"),
    ("models.fuzzy", "fuzzy_gate_violation"),
    ("models.stochastic", "distribution_violation"),
    ("models.quantum", "state_norm_violation"),
    ("models.fuzzy", "fuzzy_state_violation"),
    ("models.classical", "permutation_from_matrix"),
    ("models.quantum", "measure"),
    ("models.classical", "synthesize_circuit"),
)
GATE_PREDICATES = frozenset((
    "models.classical.permutation_violation", "models.stochastic.stochastic_violation",
    "models.quantum.unitary_violation", "models.fuzzy.fuzzy_gate_violation"))
CIRCUIT_FUNCTIONS = ("parse_circuit", "validate", "lift_gate", "reversible_circuit_text")
MODELS = ("classical", "stochastic", "quantum", "fuzzy")
VERIFY_CHECKS = (
    "check_semiring_axioms", "check_mv_gate_laws", "check_action_laws",
    "check_tensor_laws", "check_stochastic_semigroup", "check_oracle_agreement")
CLI_COMMANDS = ("simulate", "sample", "synth", "check", "apply", "kron", "verify")
ALGEBRA_OPS = ("oplus", "wedge", "fraction_add", "fraction_mul", "complex_mul")


def _targets():
    """(module, attribute, span name or namer(args, result), work(args, result) or None)."""
    out = [("fuzzbit.linalg", name, f"linalg.{name}", work)
           for name, work in zip(LINALG_COUNTED, (_mat_vec_ops, _mat_mul_ops, _kron_mat_ops))]
    out += [("fuzzbit.linalg", name, f"linalg.{name}", None) for name in LINALG_PLAIN]
    out += [(f"fuzzbit.{mod}", name, f"{mod}.{name}", None) for mod, name in MODEL_FUNCTIONS]
    out += [("fuzzbit.circuit", name, f"circuit.{name}",
             (lambda args, r: _rows_cols(r)) if name == "lift_gate" else None)
            for name in CIRCUIT_FUNCTIONS]
    out.append(("fuzzbit.circuit", "simulate",
                lambda args, r: f"circuit.simulate.{args[0].program.model}",
                lambda args, r: len(args[0].program.steps)))
    out += [("fuzzbit.verify", name, lambda args, r: f"verify.{r.name}",
             lambda args, r: r.cases) for name in VERIFY_CHECKS]
    out.append(("fuzzbit.cli", "main", lambda args, r: f"cli.main.{args[0][0]}", None))
    return out


def layer_metrics(check_names) -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    m = [(f"algebra.{op}.ns_per_call", "ns", "lower") for op in ALGEBRA_OPS]
    for name in LINALG_COUNTED:
        m += [(f"linalg.{name}.calls", "count", "lower"), (f"linalg.{name}.self_s", "s", "lower"),
              (f"linalg.{name}.scalar_ops", "count", "lower")]
    for name in LINALG_PLAIN:
        m += [(f"linalg.{name}.calls", "count", "lower"), (f"linalg.{name}.self_s", "s", "lower")]
    for mod, name in MODEL_FUNCTIONS:
        m += [(f"{mod}.{name}.calls", "count", "lower"), (f"{mod}.{name}.self_s", "s", "lower")]
    m.append(("models.builtin_gate.hit_ratio", "ratio", "higher"))
    for name in CIRCUIT_FUNCTIONS:
        m += [(f"circuit.{name}.calls", "count", "lower"),
              (f"circuit.{name}.self_s", "s", "lower")]
    m += [(f"circuit.simulate.{model}.self_s", "s", "lower") for model in MODELS]
    m += [("circuit.gate_checks_per_step", "count/step", "lower"),
          ("circuit.lifted_entries_per_step", "count/step", "lower")]
    for name in check_names:
        m += [(f"verify.{name}.self_s", "s", "lower"), (f"verify.{name}.cases", "count", "higher")]
    for name in CLI_COMMANDS:
        m += [(f"cli.main.{name}.calls", "count", "lower"),
              (f"cli.main.{name}.self_s", "s", "lower")]
    m += [("trace.overhead_ratio", "ratio", "lower"), ("work.ops", "count", "higher"),
          ("work.entries", "count", "higher"), ("work.cases", "count", "higher")]
    return m


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack = [0]
        self._next_id = 1
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, fn, name, work):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = name if isinstance(name, str) else name(args, result)
                amount = work(args, result) if work is not None and result is not None else 0
                self.spans.append((sid, parent, self.request, label, start, end, amount))

        return traced

    def install(self) -> None:
        loaded = [m for key, m in sorted(sys.modules.items())
                  if m is not None and (key == "fuzzbit" or key.startswith("fuzzbit."))]
        for module_name, attribute, name, work in _targets():
            original = getattr(sys.modules.get(module_name), attribute, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, work)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _self_ns(spans: list) -> dict:
    """Span id -> duration less the time its child spans cover."""
    covered = defaultdict(int)
    for s in spans:
        covered[s[1]] += s[5] - s[4]
    return {s[0]: s[5] - s[4] - covered[s[0]] for s in spans}


def self_by_group(spans: list, group_of_request) -> dict:
    """Self ns per span name, summed over the requests of each group."""
    own = _self_ns(spans)
    groups = defaultdict(lambda: defaultdict(int))
    for s in spans:
        groups[group_of_request(s[2])][s[3]] += own[s[0]]
    return groups


def aggregate(spans: list) -> dict:
    """Per-name [calls, self ns, work], plus the waste counts under simulate."""
    by_id = {s[0]: s for s in spans}
    own = _self_ns(spans)
    stats = defaultdict(lambda: [0, 0, 0])
    steps = checks = lifted = 0

    def under_simulate(span) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3].startswith("circuit.simulate."):
                return True
            parent = by_id.get(parent[1])
        return False

    for s in spans:
        entry = stats[s[3]]
        entry[0] += 1
        entry[1] += own[s[0]]
        entry[2] += s[6]
        if s[3].startswith("circuit.simulate."):
            steps += s[6]
        elif s[3] in GATE_PREDICATES and under_simulate(s):
            checks += 1
        elif s[3] == "circuit.lift_gate" and under_simulate(s):
            lifted += s[6]
    return {"stats": dict(stats), "steps": steps, "gate_checks": checks, "lifted": lifted}


def exact_counts(agg: dict) -> dict:
    """The parts of an aggregate that must repeat exactly from cycle to cycle."""
    counts = {name: (v[0], v[2]) for name, v in agg["stats"].items()}
    counts["circuit.simulate:steps,checks,lifted"] = (agg["steps"], agg["gate_checks"],
                                                      agg["lifted"])
    return counts


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for s in spans:
            f.write(json.dumps({"id": s[0], "parent": s[1], "request": s[2], "name": s[3],
                                "start_ns": s[4], "end_ns": s[5], "work": s[6]}) + "\n")
