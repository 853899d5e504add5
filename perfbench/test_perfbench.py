"""Self-tests of the benchmark: its references catch corrupted outputs, its
inputs are deterministic, and its exact work counts repeat.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path, PurePosixPath

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import decks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fuzzbit import cli  # noqa: E402


def fuzzbit(argv, directory=None):
    """Run one request in-process; returns (exit code, stdout, stderr)."""
    if directory is not None:
        argv = [str(directory / a) if isinstance(a, PurePosixPath) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def corrupt(out: str, prefix: str, model: str) -> str:
    """Change the first state entry on the line that starts with `prefix`."""
    lines = out.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    tokens = lines[k].split()
    first = 1 if prefix == "final" else 3
    if model == "classical":  # "index <i> ket <bits>"
        tokens[first + 1] = str(int(tokens[first + 1]) ^ 1)
    elif model == "quantum":
        tokens[first] = repr(ref.parse_display_complex(tokens[first]).real + 0.5)
    else:
        x = Fraction(tokens[first])
        tokens[first] = str(x / 2 if x else Fraction(1, 2))
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("model", ["quantum", "stochastic", "fuzzy", "classical"])
def test_simulation_reference_flags_corrupted_output(tmp_path, model):
    files = {}
    seed = 5 if model == "quantum" else None
    program, text = decks.random_program(random.Random(model), model, 3, 6, "p", files,
                                         vec_init=True, file_gate_every=2, measure_seed=seed)
    files["p.circ"] = text.encode()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, _ = fuzzbit(["simulate", "--trace", str(tmp_path / "p.circ")])
    assert code == 0
    assert ref.check_simulation(program, out, True, seed) is None
    for prefix in ("final", "step 3"):
        assert ref.check_simulation(program, corrupt(out, prefix, model), True, seed) is not None
    if seed is not None:
        wrong = min(set(range(8)) - ref.measure_outcomes(ref.simulate(program)[-1], seed))
        lines = out.splitlines()[:-1] + [f"measured {wrong}"]
        assert ref.check_simulation(program, "\n".join(lines), True, seed) is not None


def test_quantum_tolerance_is_1e_9():
    program = ref.Program("quantum", 1, ("ket", "0"), [], None)
    exact = "model quantum\nwires 1\nfinal 1 0\n"
    assert ref.check_simulation(program, exact, False, None) is None
    near = "model quantum\nwires 1\nfinal 0.9999999999 0\n"
    far = "model quantum\nwires 1\nfinal 0.999999998 0\n"
    assert ref.check_simulation(program, near, False, None) is None
    assert ref.check_simulation(program, far, False, None) is not None


def test_verify_reference_flags_changed_counts_and_failures():
    cases = decks.VERIFY_STANDARD_CASES
    good = "".join(f"{name} cases {n} failures 0\n" for name, n in cases.items())
    assert ref.check_verify_output(good, cases) is None
    assert ref.check_verify_output(good.replace("cases 44 ", "cases 43 "), cases) is not None
    assert ref.check_verify_output(good.replace("cases 44 failures 0", "cases 44 failures 1"),
                                   cases) is not None
    assert ref.check_verify_output("".join(good.splitlines(True)[:-1]), cases) is not None


def test_synth_reference_flags_a_wrong_circuit(tmp_path):
    table = (0, 1, 1, 0, 1, 0, 0, 1)
    (tmp_path / "t.txt").write_text(" ".join(map(str, table)))
    code, out, _ = fuzzbit(["synth", str(tmp_path / "t.txt")])
    assert code == 0
    assert ref.check_synth_output(table, out) is None
    assert ref.check_synth_output(table, out + "gate NOT 0\n") is not None
    flipped = tuple(1 - b for b in table)
    assert ref.check_synth_output(flipped, out) is not None


def test_cli_mix_references_flag_corrupted_outputs(tmp_path):
    deck = decks.cli_mix(3)
    deck.write(tmp_path)
    seen = set()
    for op in deck.ops:
        code, out, err = fuzzbit(op.argv, tmp_path)
        assert op.check(code, out, err) is None, op.argv
        if op.kind in seen:
            continue
        seen.add(op.kind)
        assert op.check(code ^ 1 if code != 2 else 1, out, err) is not None, op.argv
        if code == 0 and op.kind != "check":
            lines = out.splitlines()
            tokens = lines[-1].split()
            tokens[-1] = "99"  # no state entry, wire, ket or outcome reads 99
            lines[-1] = " ".join(tokens)
            assert op.check(code, "\n".join(lines) + "\n", err) is not None, op.argv
    assert {"apply", "kron", "synth-4", "simulate", "sample", "reject",
            "check-reject"} <= seen


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(workload):
    a, b, c = decks.build(workload, 7), decks.build(workload, 7), decks.build(workload, 8)
    assert a.files == b.files and a.digest() == b.digest()
    if workload != "verify-standard":
        assert a.digest() != c.digest()


def test_tail_interpolates_the_percentile():
    assert run.tail([1.0] * 5, 100.0) == (1.0, 0)
    value, beyond = run.tail([float(i) for i in range(80)], 95.0)
    assert beyond == 4 and value == pytest.approx(75.05)


@pytest.mark.parametrize("workload", ["sim-dense", "cli-mix"])
def test_latencies_do_not_depend_on_the_cycle_count(workload):
    rng = random.Random(workload)
    requests = len(decks.build(workload, 1).ops)
    deck_ms = [rng.lognormvariate(0, 2) for _ in range(requests)]
    percentile = decks.TAIL_PERCENTILE[workload]
    one, beyond_one = run.timing([deck_ms], requests, percentile)
    five, beyond_five = run.timing([deck_ms] * 5, 5 * requests, percentile)
    assert beyond_one == beyond_five >= 4
    assert five == pytest.approx(one)
    faster, _ = run.timing([[t / 5 for t in deck_ms]] * 25, 25 * requests, percentile)
    assert faster["op_tail_ms"] == pytest.approx(one["op_tail_ms"] / 5)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(decks.WORKLOADS)


def _traced(seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "cli-mix",
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_exact_counts_repeat_between_traced_runs():
    first, second = _traced(4), _traced(4)
    exact = [name for name, unit, _ in run.PER_LAYER
             if unit in ("count", "count/step") or name == "models.builtin_gate.hit_ratio"]
    assert exact and {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["circuit.gate_checks_per_step"]["value"] > 0
    assert first["linalg.mat_vec.scalar_ops"]["value"] > 0


def test_tracer_restores_the_package():
    import fuzzbit.circuit
    import fuzzbit.linalg
    before = fuzzbit.circuit.mat_vec, fuzzbit.linalg.mat_vec
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fuzzbit.circuit.mat_vec is not before[0]
        assert fuzzbit.circuit.mat_vec is fuzzbit.linalg.mat_vec
    finally:
        tracer.uninstall()
    assert (fuzzbit.circuit.mat_vec, fuzzbit.linalg.mat_vec) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fraction_literals_round_trip():
    assert decks._fmt("stochastic", Fraction(3, 4)) == "3/4"
    assert ref.parse_display_complex(decks._fmt("quantum", 0.5 - 0.25j)) == 0.5 - 0.25j
    assert ref.parse_display_complex("-1e-05i") == -1e-05j
