"""End-to-end CLI behaviour: outputs, exit codes, stdin handling."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fuzzbit.circuit
import fuzzbit.cli as cli
import cli_argv_sweep
from cli_corpus import CASE, CASES, PRIMES, Case, Request, failures, matrix, run, stdin_bytes
from fuzzbit.algebra import FUZZ_MV
from fuzzbit.circuit import MAX_DENSE_WIRES, parse_circuit, read_utf8
from fuzzbit.cli import MAX_SYNTH_INPUTS, main
from fuzzbit.linalg import (
    SMatrix,
    SVector,
    identity,
    matrix_from_permutation,
    parse_matrix_text,
    serialize_matrix,
)
from fuzzbit.models import MODEL_NAMES, MODELS, builtin_gate

FID_TEXT = "instance fuzz-mv 2 2\n0 1\n1 0\n"
J_TEXT = "instance fuzz-mv 2 2\n1 0\n0 1\n"
BELL_TEXT = CASE["bell"].files["bell.circ"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def stdin_of(data: bytes) -> io.TextIOWrapper:
    """A standard input that holds `data`, with the byte layer `main` reads."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def call_main(argv, stdin, cwd):
    """`main(argv)` run in `cwd` with `stdin` as standard input: (exit code, stdout, stderr)."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", stdin_of(stdin_bytes(stdin))):
            code = main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def _group(case):
    group, slash, name = case.id.partition("/")
    return (group, name) if slash else ("", group)


_GROUPS_RUN = set()


def corpus_cases(group):
    """Parametrize a test over the corpus cases of `group`, by their names in it."""
    _GROUPS_RUN.add(group)
    chosen = [case for case in CASES if _group(case)[0] == group]
    return pytest.mark.parametrize("case", chosen, ids=[_group(case)[1] for case in chosen])


def corpus_test(group):
    """A test that runs each corpus case of `group` and finds no difference."""
    @corpus_cases(group)
    def test(tmp_path, case):
        assert failures(case, tmp_path, call_main) == []
    return test


# pytest names each test by the module attribute that holds it
test_each_corpus_case = corpus_test("")
test_an_overflowing_quantum_norm_is_a_domain_error = corpus_test("overflowing-norm")
test_a_program_seed_fits_in_64_bits = corpus_test("program-seed")
test_non_ascii_digits_are_parse_errors = corpus_test("non-ascii")
test_oversized_integer_literals_are_parse_errors = corpus_test("long-literal")
test_oversized_result_literals_are_domain_errors = corpus_test("long-result")
test_oversized_sums_in_membership_messages_are_domain_errors = corpus_test("long-sum")
test_each_circuit_parse_error = corpus_test("parse-error")
test_products_of_near_unit_quantum_operands_are_domain_errors = corpus_test("near-unit")
test_each_rejection_prints_what_the_rational_route_printed = corpus_test("rejection")
test_each_path_form_and_line_end_reads_as_pathlib_reads_it = corpus_test("io")
test_each_argv_the_reader_declines_prints_what_argparse_prints = corpus_test("usage")


def test_each_corpus_case_runs_under_one_test():
    assert ({_group(case)[0] for case in CASES}, len(CASE)) == (_GROUPS_RUN, len(CASES))


def test_the_runner_reports_a_one_character_change(tmp_path):
    case = CASE["rejection/check-stochastic-range"]
    [request] = case.requests
    assert failures(case, tmp_path, call_main) == []
    for altered, what in ((dataclasses.replace(request, out="F" + request.out[1:]), "stdout"),
                          (dataclasses.replace(request, err=request.err + "\n"), "stderr"),
                          (dataclasses.replace(request, code=2), "exit code")):
        [found] = failures(dataclasses.replace(case, requests=(altered,)), tmp_path, call_main)
        assert f"fuzzbit check stochastic a.mat: {what}" in found


def test_check_ok_and_fail(tmp_path, capsys):
    good = write(tmp_path, "fid.mat", FID_TEXT)
    assert main(["check", "fuzzy", good]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = write(tmp_path, "bad.mat", "instance probability 2 2\n1/2 1/2\n1/2 0\n")
    assert main(["check", "stochastic", bad]) == 1
    out = capsys.readouterr().out
    assert out.startswith("fail") and "column 1" in out

    vec = write(tmp_path, "q.vec", "instance complex 1 2\n1 0\n")
    assert main(["check", "quantum", vec]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of(FID_TEXT.encode()))
    assert main(["check", "fuzzy", "-"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_apply(tmp_path, capsys):
    j = write(tmp_path, "j.mat", J_TEXT)
    state = write(tmp_path, "s.vec", "instance fuzz-mv 1 2\n0 3/4\n")
    assert main(["apply", "fuzzy", j, state]) == 0
    assert capsys.readouterr().out.strip() == "3/4 0"

    m = write(tmp_path, "m.mat", "instance probability 2 2\n9/10 2/10\n1/10 8/10\n")
    p = write(tmp_path, "p.vec", "instance probability 1 2\n1/2 1/2\n")
    assert main(["apply", "stochastic", m, p]) == 0
    assert capsys.readouterr().out.strip() == "11/20 9/20"

    h = write(tmp_path, "h.mat",
              "instance complex 2 2\n0.7071067811865476 0.7071067811865476\n"
              "0.7071067811865476 -0.7071067811865476\n")
    q0 = write(tmp_path, "q0.vec", "instance complex 1 2\n1 0\n")
    assert main(["apply", "quantum", h, q0]) == 0
    assert capsys.readouterr().out.strip() == "0.707106781187 0.707106781187"


def test_apply_membership_failure(tmp_path, capsys):
    j = write(tmp_path, "j.mat", J_TEXT)
    bad = write(tmp_path, "bad.vec", "instance fuzz-mv 1 2\n1/2 1/2\n")
    assert main(["apply", "fuzzy", j, bad]) == 1
    assert "minimum" in capsys.readouterr().err


def test_apply_shape_mismatch_exits_1(tmp_path, capsys):
    x = write(tmp_path, "x.mat", "instance complex 2 2\n0 1\n1 0\n")
    state = write(tmp_path, "s.vec", "instance complex 1 4\n1 0 0 0\n")
    assert main(["apply", "quantum", x, state]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a 2x2 gate cannot act on a state of length 4\n"


def test_apply_to_a_matrix_exits_1(tmp_path, capsys):
    j = write(tmp_path, "j.mat", J_TEXT)
    assert main(["apply", "fuzzy", j, j]) == 1
    assert capsys.readouterr() == ("", "error: 2x2 matrix is not a vector\n")


def test_kron_vectors_and_matrices(tmp_path, capsys):
    k0 = write(tmp_path, "k0.vec", "instance fuzz-mv 1 2\n0 1\n")
    k1 = write(tmp_path, "k1.vec", "instance fuzz-mv 1 2\n1 0\n")
    assert main(["kron", "fuzzy", k0, k1]) == 0
    assert capsys.readouterr().out.strip() == "1 0 1 1"

    fid = write(tmp_path, "fid.mat", FID_TEXT)
    assert main(["kron", "fuzzy", fid, fid]) == 0
    out = capsys.readouterr().out
    assert parse_matrix_text(out) == identity(FUZZ_MV, 4)

    assert main(["kron", "fuzzy", fid, k0]) == 1  # mixed shapes
    assert capsys.readouterr().err.startswith("error:")


def test_classical_gates_take_only_the_boolean_carrier(tmp_path, capsys):
    p_not = write(tmp_path, "p.mat", "instance probability 2 2\n0 1\n1 0\n")
    b_not = write(tmp_path, "bnot.mat", "instance boolean 2 2\n0 1\n1 0\n")
    b_vec = write(tmp_path, "b.vec", "instance boolean 1 2\n1 0\n")
    reason = "instance probability is not the boolean carrier"
    assert main(["check", "classical", p_not]) == 1
    assert capsys.readouterr().out == f"fail {reason}\n"
    assert main(["apply", "classical", p_not, b_vec]) == 1
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert main(["kron", "classical", p_not, b_not]) == 1
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert main(["apply", "classical", b_not, b_vec]) == 0
    assert capsys.readouterr().out == "0 1\n"


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_each_model_takes_only_its_carrier_and_square_gates(tmp_path, capsys, model):
    own = MODELS[model].instance
    other = next(m.instance for m in MODELS.values() if m.instance != own)
    carrier = f"instance {other.name} is not the {own.name} carrier"

    def files(s, tag):  # a permutation gate and a basis state over `s`
        gate = serialize_matrix(matrix_from_permutation((1, 0), s))
        state = serialize_matrix(SMatrix(s, ((s.one,), (s.zero,))))
        return write(tmp_path, f"{tag}.mat", gate), write(tmp_path, f"{tag}.vec", state)

    gate, state = files(own, "own")
    bad_gate, bad_state = files(other, "other")
    wide = write(tmp_path, "wide.mat", serialize_matrix(
        SMatrix(own, ((own.one, own.zero, own.zero), (own.zero, own.one, own.zero)))))
    for operand, reason, apply_argv, kron_argv in (
            (bad_gate, carrier, [bad_gate, state], [bad_gate, gate]),
            (bad_state, carrier, [gate, bad_state], [state, bad_state]),
            (wide, "not square (2x3)", [wide, state], [gate, wide])):
        assert main(["check", model, operand]) == 1
        assert capsys.readouterr() == (f"fail {reason}\n", "")
        for command, argv in (("apply", apply_argv), ("kron", kron_argv)):
            assert main([command, model, *argv]) == 1
            assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert main(["apply", model, gate, state]) == 0  # the model's own operands pass
    assert capsys.readouterr().err == ""


def test_simulate_summary_and_trace(tmp_path, capsys):
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    assert main(["simulate", bell]) == 0
    summary = capsys.readouterr().out  # pinned by the corpus case `bell`
    assert main(["simulate", bell, "--trace"]) == 0
    assert capsys.readouterr().out == (
        "step 0 init 1 0 0 0\nstep 1 H 0.707106781187 0.707106781187 0 0\n"
        "step 2 CNOT 0.707106781187 0 0 0.707106781187\n" + summary)


@pytest.mark.parametrize("model, init, gate", [
    ("stochastic", "vec 1/2 1/4 1/4 0", "NOT"),
    ("fuzzy", "vec 0 1/2 1 1", "FNOT"),
    ("quantum", "ket 00", "H"),
])
def test_a_traced_run_runs_each_step_once(monkeypatch, tmp_path, capsys, model, init, gate):
    # the step lines come from the run itself: replaying it for them took
    # 2k - 1 block products for k steps
    steps = 5
    circ = write(tmp_path, "p.circ", f"model {model}\nwires 2\ninit {init}\n"
                 + "".join(f"gate {gate} {k % 2}\n" for k in range(steps)))
    real, calls = fuzzbit.circuit.mat_vec_block, []
    monkeypatch.setattr(fuzzbit.circuit, "mat_vec_block",
                        lambda *args: calls.append(None) or real(*args))
    assert main(["simulate", "--trace", circ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == steps
    assert [line.split()[:3] for line in lines[:steps + 1]] == [
        ["step", str(k), "init" if k == 0 else gate] for k in range(steps + 1)]
    assert lines[steps + 1:steps + 3] == [f"model {model}", "wires 2"]


def test_simulate_classical_output(tmp_path, capsys):
    circ = write(tmp_path, "cnot.circ",
                 "model classical\nwires 2\ninit ket 10\ngate CNOT 1 0\n")
    assert main(["simulate", circ]) == 0
    out = capsys.readouterr().out
    assert "final index 3 ket 11" in out


def test_dense_wire_limit(tmp_path, capsys, monkeypatch):
    classical = write(tmp_path, "c.circ",
                      "model classical\nwires 40\ninit ket " + "0" * 40 + "\ngate NOT 39\n")
    assert main(["simulate", classical]) == 0
    assert f"final index {1 << 39} ket 1" + "0" * 39 in capsys.readouterr().out

    def no_dense_state(program):
        raise AssertionError("a 2^40-entry state must not be built")

    monkeypatch.setattr("fuzzbit.circuit._initial_state", no_dense_state)
    fuzzy = write(tmp_path, "f.circ", "model fuzzy\nwires 40\ninit ket " + "0" * 40 + "\n")
    assert main(["simulate", fuzzy]) == 1
    assert f"at most {MAX_DENSE_WIRES} wires" in capsys.readouterr().err


def test_kron_result_limit(tmp_path, capsys, monkeypatch):
    limit = 1 << MAX_DENSE_WIRES
    column = write(tmp_path, "c.mat", "instance probability 256 1\n" + "1/256\n" * 256)
    assert main(["kron", "stochastic", column, column]) == 0  # exactly the limit
    assert capsys.readouterr() == (" ".join(["1/65536"] * limit) + "\n", "")

    def no_product(a, b):
        raise AssertionError("a result past the limit must not be built")

    monkeypatch.setattr("fuzzbit.cli.kron_vec", no_product)
    monkeypatch.setattr("fuzzbit.cli.kron_mat", no_product)
    longer = write(tmp_path, "d.mat", "instance probability 257 1\n" + "1/257\n" * 257)
    assert main(["kron", "stochastic", column, longer]) == 1
    assert capsys.readouterr() == (
        "", f"error: kron results take at most {limit} entries, got {256 * 257}\n")
    gate = write(tmp_path, "g.mat", serialize_matrix(identity(FUZZ_MV, 32), FUZZ_MV.format))
    assert main(["kron", "fuzzy", gate, gate]) == 1
    assert capsys.readouterr() == (
        "", f"error: kron results take at most {limit} entries, got {32 ** 4}\n")


def test_simulate_seed_rules(tmp_path, capsys):
    fuzzy = write(tmp_path, "f.circ", "model fuzzy\nwires 1\ninit ket 0\ngate FNOT 0\n")
    assert main(["simulate", fuzzy, "--seed", "4"]) == 1
    assert "quantum" in capsys.readouterr().err
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    assert main(["simulate", bell, "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "measured 3"


def test_sample_forces_measurement(tmp_path, capsys):
    plus = write(tmp_path, "plus.circ",
                 "model quantum\nwires 1\ninit ket 0\ngate H 0\n")
    assert main(["simulate", plus]) == 0
    assert "measured" not in capsys.readouterr().out
    assert main(["sample", plus, "--seed", "11"]) == 0
    assert "measured" in capsys.readouterr().out


def test_synth_round_trip(tmp_path, capsys):
    table = write(tmp_path, "xor.tbl", "0 1 1 0\n")
    assert main(["synth", table]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("#")
    from fuzzbit.circuit import parse_circuit, simulate, validate
    from fuzzbit.models.classical import ClassicalState
    vc = validate(parse_circuit(text))
    for x in range(4):
        final = simulate(dataclasses.replace(
            vc, initial=ClassicalState(vc.program.wire_count, x))).final
        assert final.basis_index & 1 == (0, 1, 1, 0)[x]

    ident = write(tmp_path, "id.tbl", "0 1\n")
    assert main(["synth", ident]) == 0
    assert "gate" not in capsys.readouterr().out

    bad2 = write(tmp_path, "bad2.tbl", "0 2\n")
    assert main(["synth", bad2]) == 2


# Every table of 2 and 3 inputs, and seeded ones of 4.
SYNTH_TABLES = [bits for n in (2, 3) for bits in itertools.product((0, 1), repeat=1 << n)]
SYNTH_TABLES += [tuple(random.Random(seed).choices((0, 1), k=16)) for seed in range(6)]
# sha256 of the concatenated `synth` output over SYNTH_TABLES
SYNTH_OUTPUT_SHA256 = "32922e7b52b0993fee196e1c0d65f285449afb6eea1324ca20b3dfd6cbfc41a1"


def test_synth_prints_the_program_it_checked(tmp_path, capsys, monkeypatch):
    checked = []
    real = cli.validate
    monkeypatch.setattr("fuzzbit.cli.validate",
                        lambda program: checked.append(program) or real(program))
    digest = hashlib.sha256()
    for i, bits in enumerate(SYNTH_TABLES):
        # a new file each time: rewriting one file costs more than the synthesis
        table = write(tmp_path, f"t{i}.tbl", " ".join(map(str, bits)))
        assert main(["synth", table]) == 0
        out = capsys.readouterr().out
        assert [parse_circuit(out)] == checked
        checked.clear()
        digest.update(out.encode())
    assert digest.hexdigest() == SYNTH_OUTPUT_SHA256


def masks_run(program, n):
    """Wire 0 after `program`, on all 2^n inputs at once: bit x of a wire's
    mask is its value on input x, and inputs start on wires 0..n-1."""
    width = 1 << n
    full = (1 << width) - 1
    masks = [0] * program.wire_count
    for i in range(n):
        masks[i] = sum(1 << x for x in range(width) if x >> i & 1)
    for step in program.steps:
        w = step.wires
        if step.gate == "SWAP":
            masks[w[0]], masks[w[1]] = masks[w[1]], masks[w[0]]
        elif step.gate == "NOT":
            masks[w[0]] ^= full
        elif step.gate == "FANOUT":
            masks[w[1]] ^= masks[w[0]]
        else:
            a, b = masks[w[0]], masks[w[1]]
            masks[w[2]] ^= {"AND": a & b, "OR": a | b, "XOR": a ^ b}[step.gate]
    return masks[0]


def test_synth_output_computes_the_table(tmp_path, capsys):
    # every table of up to 3 inputs, and seeded ones of 4 to 8, each checked
    # on the printed text and without `synth`'s own per-input check
    tables = [bits for n in (1, 2, 3) for bits in itertools.product((0, 1), repeat=1 << n)]
    assert len(tables) == 276
    for n in range(4, MAX_SYNTH_INPUTS + 1):
        tables += [tuple(random.Random(seed).choices((0, 1), k=1 << n)) for seed in range(2)]
    for i, bits in enumerate(tables):
        n = len(bits).bit_length() - 1
        assert main(["synth", write(tmp_path, f"t{i}.tbl", " ".join(map(str, bits)))]) == 0
        program = parse_circuit(capsys.readouterr().out)
        assert (program.model, program.init_kind) == ("classical", "ket")
        assert set(program.init_values) == {0}
        assert masks_run(program, n) == sum(bit << x for x, bit in enumerate(bits))


def test_synth_input_limit(tmp_path, capsys, monkeypatch):
    class Reached(Exception):
        pass

    def no_synthesis(table):
        raise Reached(table.n_inputs)

    monkeypatch.setattr("fuzzbit.cli.synthesize_circuit", no_synthesis)
    widest = write(tmp_path, "widest.tbl", "0 1 " * (1 << (MAX_SYNTH_INPUTS - 1)))
    with pytest.raises(Reached):  # the widest table allowed reaches synthesis
        main(["synth", widest])
    wide = write(tmp_path, "wide.tbl", "0 1 " * (1 << MAX_SYNTH_INPUTS))
    assert main(["synth", wide]) == 1
    assert capsys.readouterr().err == (
        f"error: synth takes tables of at most {MAX_SYNTH_INPUTS} inputs "
        f"({1 << MAX_SYNTH_INPUTS} entries), got {MAX_SYNTH_INPUTS + 1}\n")


def test_only_the_verify_command_loads_verify(tmp_path):
    circ = write(tmp_path, "cnot.circ",
                 "model classical\nwires 2\ninit ket 10\ngate CNOT 1 0\n")
    script = ("import contextlib, io, sys\n"
              "import fuzzbit.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert fuzzbit.cli.main(['simulate', sys.argv[1]]) == 0\n"
              "assert 'fuzzbit.verify' not in sys.modules\n"
              "from fuzzbit import CheckReport, grid_values, run_all\n"
              "assert 'fuzzbit.verify' in sys.modules\n"
              "assert run_all.__module__ == CheckReport.__module__ == 'fuzzbit.verify'\n"
              "assert len(grid_values('coarse')) == 3\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script, circ], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_verify_coarse(capsys):
    assert main(["verify", "--grid", "coarse"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(" cases " in line and line.endswith("failures 0") for line in lines)
    assert lines[0].startswith("semiring-axioms-fuzz-mv")


def test_usage_and_io_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["check", "galaxy", "x.mat"]) == 2
    assert main(["simulate", "x.circ", "--seed", "-1"]) == 2
    assert main(["check", "fuzzy", str(tmp_path / "missing.mat")]) == 2
    capsys.readouterr()
    bad = write(tmp_path, "bad.mat", "instance fuzz-mv 2 2\n0 1\nBAD 0\n")
    assert main(["check", "fuzzy", bad]) == 2
    assert "line 3" in capsys.readouterr().err


def test_parser_reuse_after_usage_error(tmp_path, capsys):
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    fid = write(tmp_path, "fid.mat", FID_TEXT)
    calls = (["simulate", bell, "--trace", "--seed", "3"], ["simulate", bell],
             ["check", "fuzzy", fid])

    def run_all():
        outputs = []
        for argv in calls:
            code = main(argv)
            outputs.append((code, capsys.readouterr()))
        return outputs

    cli._build_parser.cache_clear()
    fresh = run_all()
    assert main(["simulate", bell, "--seed", "nine"]) == 2
    assert main(["check"]) == 2
    capsys.readouterr()
    assert run_all() == fresh
    assert fresh[1][1].out.splitlines()[-1] == "measured 0"  # no --seed carried over


def test_the_argv_reader_agrees_with_argparse_on_every_short_argv():
    tried, accepted, found = cli_argv_sweep.sweep()
    assert found == []
    assert tried == sum(len(cli_argv_sweep.ALPHABET) ** n
                        for n in range(cli_argv_sweep.LENGTH + 1))
    assert set(accepted) == set(cli.COMMANDS)  # each command is read some way


_ARGV_TOKENS = st.sampled_from(cli_argv_sweep.ALPHABET)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_ARGV_TOKENS, min_size=5, max_size=6),
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(cli_argv_sweep.COMMAND_NAMES),
              st.lists(_ARGV_TOKENS, min_size=4, max_size=5))))
def test_the_argv_reader_agrees_with_argparse_on_longer_argv(argv):
    assert cli_argv_sweep.mismatch(argv) is None


def test_a_well_formed_request_builds_no_parser(tmp_path, capsys):
    fid = write(tmp_path, "fid.mat", FID_TEXT)
    ket = write(tmp_path, "ket.mat", "instance fuzz-mv 2 1\n0\n1\n")
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    table = write(tmp_path, "xor.tbl", "0 1 1 0\n")
    cli._build_parser.cache_clear()
    for argv in (["check", "fuzzy", fid], ["apply", "fuzzy", fid, ket],
                 ["kron", "fuzzy", fid, fid], ["simulate", "--trace", bell, "--seed", "3"],
                 ["sample", bell], ["synth", table]):
        assert main(argv) == 0, argv
    assert cli._build_parser.cache_info().misses == 0
    capsys.readouterr()


def test_a_nul_byte_in_a_file_argument_is_an_io_error(capsys):
    assert main(["check", "fuzzy", "a\0b"]) == 2
    assert capsys.readouterr() == ("", "error: embedded null byte\n")


@pytest.mark.parametrize("env", [{"LC_ALL": "C"}, {"LC_ALL": "C", "PYTHONUTF8": "1"},
                                 {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "0"}])
def test_standard_input_is_held_to_the_utf8_rule_in_every_locale(env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import fuzzbit.cli; fuzzbit.cli.entry()", "simulate", "-"],
        input=b"model fuzzy\nwires 1\ninit ket 0\ngate F\xffNOT 0\n", capture_output=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src, **env})
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"error: - is not UTF-8: invalid start byte at byte 37\n")


@pytest.mark.parametrize("seed, message", [
    ("٣", "invalid _seed_arg value: '٣'"),
    ("1_0", "invalid _seed_arg value: '1_0'"),
    (" 7", "invalid _seed_arg value: ' 7'"),
    ("nine", "invalid _seed_arg value: 'nine'"),
    ("-1", "seed must fit in an unsigned 64-bit integer"),
    (str(1 << 64), "seed must fit in an unsigned 64-bit integer"),
])
def test_seed_takes_only_ascii_digits(tmp_path, capsys, seed, message):
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    assert main(["sample", "--seed", seed, bell]) == 2
    assert capsys.readouterr().err.endswith(f"error: argument --seed: {message}\n")


@corpus_cases("past-bound")
def test_an_exact_scale_past_the_bound_is_a_domain_error(tmp_path, monkeypatch, case):
    def multiplied_out(*args):
        pytest.fail("numerators multiplied out past the bound")

    # `over` multiplies the numerators out as it reads them
    monkeypatch.setattr(SMatrix, "over", classmethod(multiplied_out))
    assert failures(case, tmp_path, call_main) == []


def _bound_bits(ratios) -> int:
    """The most bits the common denominator of the (n, d) pairs may take."""
    return 64 * sum(n.bit_length() + d.bit_length() + 1 for n, d in ratios) // len(ratios)


def test_an_exact_scale_just_inside_the_bound_still_works(tmp_path, capsys):
    def state(k):  # a fuzzy state: 0, then 1/p for each of the first k primes
        return ["0"] + [f"1/{p}" for p in PRIMES[:k]]

    def ratios(k):
        return [(0, 1)] + [(1, p) for p in PRIMES[:k]]

    k = next(k for k in range(len(PRIMES))
             if math.prod(PRIMES[:k + 1]).bit_length() > _bound_bits(ratios(k + 1)))
    assert k > 40  # the bound is far from the first few literals
    inside = write(tmp_path, "inside.mat", matrix("fuzz-mv", state(k)))
    assert main(["check", "fuzzy", inside]) == 0
    assert capsys.readouterr() == ("ok\n", "")
    past = write(tmp_path, "past.mat", matrix("fuzz-mv", state(k + 1)))
    assert main(["check", "fuzzy", past]) == 1
    assert capsys.readouterr() == ("", f"error: the common denominator of {k + 2} exact "
                                       f"literals passes {_bound_bits(ratios(k + 1))} "
                                       "bits, 64 times their mean size\n")


def test_non_utf8_input_exits_2(tmp_path, capsys):
    circ = tmp_path / "bad.circ"
    circ.write_bytes(b"model fuzzy\nwires 1\ninit ket 0\ngate FNOT \xff\n")
    assert main(["simulate", str(circ)]) == 2
    assert "not UTF-8" in capsys.readouterr().err

    (tmp_path / "g.mat").write_bytes(b"instance fuzz-mv 2 2\n0 1\n1 0\xff\n")
    uses_gate = write(tmp_path, "uses.circ",
                      "model fuzzy\nwires 1\ninit ket 0\ngate @g.mat 0\n")
    assert main(["simulate", uses_gate]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: gate file 'g.mat' is not UTF-8")


# Past 8 KiB, where a reader that decoded in chunks would count from the chunk
PAST_8_KIB = 8192 + 100
READER_FILES = {
    "lf": b"a\nb\n",
    "crlf": b"a\r\nb\r\n",
    "cr": b"a\rb\r",
    "cr-crlf": b"a\r\r\nb",
    "mixed": b"a\nb\r\nc\rd\r\r\n\n\re",
    "bom": b"\xef\xbb\xbfinstance\r\n",
    "empty": b"",
    "invalid-at-0": b"\xff\nrest\n",
    "invalid-past-8-kib": b"x" * PAST_8_KIB + b"\xff\n",
    "truncated-at-eof": b"a\r\n\xe2\x82",
}


def _read_outcome(read, path):
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)


def test_read_utf8_reads_what_pathlib_reads(tmp_path, monkeypatch):
    # the same text, or the same exception type and message, for each file
    # and path form, relative paths from the files' directory
    monkeypatch.chdir(tmp_path)
    for name, body in READER_FILES.items():
        (tmp_path / name).write_bytes(body)
    (tmp_path / "a.mat").write_text(FID_TEXT)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "a.mat").write_text(FID_TEXT)
    paths = [*READER_FILES, *(str(tmp_path / name) for name in READER_FILES),
             "missing", "./missing", "dir", "", ".", "a.mat/", "a.mat/.", "dir//a.mat",
             "./dir/./a.mat", "a.mat//", "missing/", str(tmp_path / "a.mat") + "/"]
    for path in paths:
        want = _read_outcome(lambda p: Path(p).read_text(encoding="utf-8"), path)
        assert _read_outcome(read_utf8, path) == want, path
    assert read_utf8("mixed") == "a\nb\nc\nd\n\n\n\ne"
    assert _read_outcome(read_utf8, "invalid-past-8-kib") == (
        UnicodeDecodeError,
        f"'utf-8' codec can't decode byte 0xff in position {PAST_8_KIB}: invalid start byte")


def test_a_non_utf8_byte_past_8_kib_is_named_at_its_file_offset(tmp_path, capsys):
    # a long line puts the bad byte past 8 KiB, in a program and in a gate file
    program = b"model fuzzy\nwires 1\n# " + b"x" * PAST_8_KIB + b"\ninit ket 0\n"
    circ = tmp_path / "bad.circ"
    circ.write_bytes(program + b"gate FNOT \xff 0\n")
    assert main(["simulate", str(circ)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {circ} is not UTF-8: invalid start byte at byte {len(program) + 10}\n")

    gate = b"# " + b"x" * PAST_8_KIB + b"\ninstance fuzz-mv 2 2\n0 1\n1 0"
    (tmp_path / "g.mat").write_bytes(gate + b"\xff\n")
    uses_gate = write(tmp_path, "uses.circ", "model fuzzy\nwires 1\ninit ket 0\ngate @g.mat 0\n")
    assert main(["simulate", uses_gate]) == 2
    assert capsys.readouterr() == (
        "", f"error: line 4: gate file 'g.mat' is not UTF-8: invalid start byte "
            f"at byte {len(gate)}\n")


# --- the exit-code contract over generated input -------------------------------

INSTANCE_NAMES = ("boolean", "probability", "complex", "fuzz-mv", "max-min", "viterbi")
TOKENS = ("0", "1", "1/2", "2/3", "-1", "2", "i", "1+i", "0.5", "1e400", "x", "²", "@")
# Complex literals within the quantum tolerance of 1: `check` accepts a gate
# or state of them, and their products can fail that tolerance.
NEAR_UNIT = ("1.0000000004", "0.9999999996")
GATE_NAMES = sorted({name for model in MODELS.values() for name in model.gates})


@st.composite
def matrix_texts(draw, instance="fuzz-mv"):
    """A matrix file over `instance` or any other carrier; one in four is malformed."""
    name = draw(st.sampled_from((instance,) * 6 + INSTANCE_NAMES))
    rows = cols = body_rows = draw(st.sampled_from((1, 2, 4)))
    cols = draw(st.sampled_from((rows, 1, 2, 4)))
    # often a member of some model
    tokens = st.sampled_from(("0", "1") + (NEAR_UNIT if name == "complex" else ()))
    if draw(st.integers(0, 3)) == 0:
        rows, cols, body_rows = (draw(st.integers(0, 5)) for _ in range(3))
        tokens = st.sampled_from(TOKENS)
    lines = [f"instance {name} {rows} {cols}"]
    lines += [" ".join(draw(tokens) for _ in range(cols)) for _ in range(body_rows)]
    return "\n".join(lines) + "\n"


CIRCUIT_LINES = st.one_of(
    st.sampled_from(MODEL_NAMES + ("analog",)).map(lambda m: f"model {m}"),
    st.integers(0, 6).map(lambda n: f"wires {n}"),
    st.text("01", min_size=1, max_size=6).map(lambda bits: f"init ket {bits}"),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8).map(
        lambda tokens: "init vec " + " ".join(tokens)),
    st.tuples(st.sampled_from(GATE_NAMES + ["@g.mat", "@missing.mat", "BOGUS"]),
              st.lists(st.integers(0, 6), max_size=3)).map(
        lambda g: f"gate {g[0]} " + " ".join(map(str, g[1]))),
    st.integers(0, 1 << 64).map(lambda seed: f"measure seed {seed}"),
    st.sampled_from(("", "# note", "wires ²", "gate", "init", "measure seed x", "@")),
)


@st.composite
def circuit_texts(draw, model):
    """A .circ program of at most 6 wires; three in four start well formed."""
    if not draw(st.integers(0, 3)):
        return "\n".join(draw(st.lists(CIRCUIT_LINES, max_size=6))) + "\n"
    n = draw(st.integers(1, 6))
    bits = draw(st.text("01", min_size=n, max_size=n))
    lines = [f"model {model}", f"wires {n}", f"init ket {bits}"]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(("@g.mat",) + tuple(MODELS[model].gates)))
        arity = 1 if name == "@g.mat" else builtin_gate(model, name).arity
        if arity <= n and draw(st.integers(0, 3)):  # a contiguous block, in any order
            base = draw(st.integers(0, n - arity))
            wires = draw(st.permutations(range(base, base + arity)))
        else:
            wires = draw(st.lists(st.integers(0, n), min_size=1, max_size=3))
        lines.append(f"gate {name} " + " ".join(map(str, wires)))
    if not draw(st.integers(0, 3)):
        lines += draw(st.lists(CIRCUIT_LINES, max_size=2))
    return "\n".join(lines) + "\n"


TABLE_TEXTS = st.lists(st.sampled_from(("0", "1", "1", "0", "2", "x")), max_size=16).map(
    " ".join)


def payloads(texts):
    """File contents: four in six structured, the rest arbitrary bytes or text."""
    kinds = {"structured": texts.map(str.encode), "bytes": st.binary(max_size=64),
             "text": st.text(max_size=64).map(str.encode)}
    return st.sampled_from(("structured",) * 4 + ("bytes", "text")).flatmap(kinds.get)


def run_main(directory: str, argv: list[str], files: dict[str, bytes]) -> int:
    [(code, _, err)] = run(Case("generated", files, (Request(" ".join(argv)),)), directory,
                           call_main)
    assert "Traceback" not in err
    return code


# hypothesis rejects function-scoped fixtures such as tmp_path, hence tempfile
_CONTRACT = settings(max_examples=120, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_CONTRACT
@given(command=st.sampled_from(("check", "apply", "kron")),
       model=st.sampled_from(MODEL_NAMES), data=st.data())
def test_matrix_commands_keep_the_exit_code_contract(command, model, data):
    instance = MODELS[model].instance.name
    files = {"a.mat": data.draw(payloads(matrix_texts(instance))),
             "b.mat": data.draw(payloads(matrix_texts(instance)))}
    argv = [command, model, "a.mat"] + ([] if command == "check" else ["b.mat"])
    with tempfile.TemporaryDirectory() as tmp:
        assert run_main(tmp, argv, files) in (0, 1, 2, 3)


@_CONTRACT
@given(command=st.sampled_from(("simulate", "sample", "synth")),
       model=st.sampled_from(MODEL_NAMES),
       flags=st.sampled_from(([], ["--trace"], ["--seed", "3"], ["--seed", "-1"])),
       data=st.data())
def test_program_commands_keep_the_exit_code_contract(command, model, flags, data):
    if command == "synth":
        argv, files = ["synth", "t.txt"], {"t.txt": data.draw(payloads(TABLE_TEXTS))}
    else:
        gate = payloads(matrix_texts(MODELS[model].instance.name))
        argv = [command, "p.circ", *flags]
        files = {"p.circ": data.draw(payloads(circuit_texts(model))), "g.mat": data.draw(gate)}
    with tempfile.TemporaryDirectory() as tmp:
        assert run_main(tmp, argv, files) in (0, 1, 2, 3)


# --- error paths that no generated input is sure to reach ------------------------

@pytest.mark.parametrize("case_id, message", [
    ("rational/fuzzy-one-wire",
     "intermediate state failed membership: entry 1 is 3/2, outside [0, 1]"),
    ("rational/stochastic-one-wire",
     "intermediate state failed membership: entries sum to 1/3, expected exactly 1"),
], ids=["numerator-out-of-range", "stochastic-kernel"])
def test_dense_run_self_checks_exit_3(tmp_path, monkeypatch, case_id, message):
    # numerators 0 and zero + 1 over the state's scale: 3 over the fuzzy
    # scale 2, where zero is 2, and 1 over the stochastic scale 3, a sum that
    # is not the scale
    monkeypatch.setattr("fuzzbit.circuit.mat_vec_block", lambda a, base, v: SVector.over(
        v.instance, (0,) + (v.instance.zero_numerator * v.scale + 1,) * (len(v) - 1),
        v.scale))
    assert run(CASE[case_id], tmp_path, call_main) == [(3, "", f"error: {message}\n")]


def test_synth_self_check_exits_3(tmp_path, capsys, monkeypatch):
    real = cli.validate
    # drop the last step's plan, the SWAP that brings the result to wire 0:
    # wire 0 then holds input bit 0, which differs from x0 XOR x1 first at input 2
    monkeypatch.setattr("fuzzbit.cli.validate", lambda program: dataclasses.replace(
        real(program), plans=real(program).plans[:-1]))
    assert main(["synth", write(tmp_path, "t.tbl", "0 1 1 0\n")]) == 3
    assert capsys.readouterr() == (
        "", "error: synthesized circuit disagrees with the table at input 2\n")


@pytest.mark.parametrize("case_id, kernel, message", [
    ("rational/apply-fuzzy", "mat_vec",
     "result left the state set: minimum entry is 1/2, expected 0 (or all entries 1)"),
    ("rational/kron-gates-fuzzy", "kron_mat",
     "tensor left the gate set: column 0 has minimum 1/2, expected 0"),
], ids=["apply", "kron"])
def test_a_non_member_result_exits_3(tmp_path, monkeypatch, case_id, kernel, message):
    half = FUZZ_MV.from_ratio(1, 2)
    fault = (SVector(FUZZ_MV, (half, half)) if kernel == "mat_vec"
             else SMatrix(FUZZ_MV, ((half, half), (half, half))))
    monkeypatch.setattr(f"fuzzbit.cli.{kernel}", lambda a, b: fault)
    assert run(CASE[case_id], tmp_path, call_main) == [(3, "", f"error: {message}\n")]


def test_a_kernel_fault_on_near_unit_operands_still_exits_3(tmp_path, monkeypatch):
    # the true product, 1e-6 too long: far past what the operands' deviations allow
    real = cli.mat_vec
    monkeypatch.setattr("fuzzbit.cli.mat_vec", lambda g, v: SVector(
        v.instance, [x * (1 + 1e-6) for x in real(g, v).entries]))
    assert run(CASE["near-unit/apply quantum g.mat s.mat"], tmp_path, call_main) == [(
        3, "", "error: result left the state set: "
               "squared norm is 1.0000020016010034, expected 1 within 1e-09\n")]


@corpus_cases("rational")
def test_rational_requests_enter_no_fraction_code(tmp_path, case):
    import fractions

    builtin_gate.cache_clear()  # so that the builtins are built inside the request
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        found = failures(case, tmp_path, call_main)
    finally:
        sys.setprofile(None)
    assert (found, entered) == ([], [])


# --- quantum stdout, pinned ----------------------------------------------------------

def _literal(z):
    # fixed-point parts: every text this writes is in the complex literal grammar
    return f"{z.real:.15f}{z.imag:+.15f}i"


def _unitary_2(rng):
    t, p, q = (rng.uniform(0, 2 * math.pi) for _ in range(3))
    c, s = math.cos(t), math.sin(t)
    a, b = complex(math.cos(p), math.sin(p)), complex(math.cos(q), math.sin(q))
    return [[c, -a * s], [b * s, a * b * c]]


def _gate_text(rows):
    return (f"instance complex {len(rows)} {len(rows)}\n"
            + "".join(" ".join(_literal(complex(x)) for x in row) + "\n" for row in rows))


def quantum_programs(seed=2022):
    """Six seeded quantum programs of 3 to 6 wires, each from `init vec`, with
    builtin, 2x2 and 4x4 `@file` gates; the file texts by name, and the programs' names."""
    rng = random.Random(seed)
    files, names = {}, []
    for k, wires in enumerate((3, 3, 4, 5, 6, 6)):
        amplitudes = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << wires)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes))
        lines = ["model quantum", f"wires {wires}",
                 "init vec " + " ".join(_literal(a / norm) for a in amplitudes)]
        for j in range(8):
            w = rng.randrange(wires - 1)
            pair = (w + 1, w) if rng.random() < 0.5 else (w, w + 1)
            if j % 3 == 1:
                a, b = _unitary_2(rng), _unitary_2(rng)
                rows = [[x * y for x in ra for y in rb] for ra in a for rb in b]
                files[f"g{k}-{j}.mat"] = _gate_text(rows)
                lines.append(f"gate @g{k}-{j}.mat {pair[0]} {pair[1]}")
            elif j % 3 == 2:
                files[f"g{k}-{j}.mat"] = _gate_text(_unitary_2(rng))
                lines.append(f"gate @g{k}-{j}.mat {rng.randrange(wires)}")
            else:
                name = rng.choice(("H", "X", "Z", "CNOT", "SWAP"))
                targets = pair if name in ("CNOT", "SWAP") else (rng.randrange(wires),)
                lines.append(f"gate {name} " + " ".join(map(str, targets)))
        if k % 2:
            lines.append(f"measure seed {rng.randrange(1 << 64)}")
        files[f"q{k}.circ"] = "\n".join(lines) + "\n"
        names.append(f"q{k}.circ")
    return files, names


QUANTUM_COMMANDS = (["simulate"], ["simulate", "--trace"], ["sample", "--seed", "11"])
# sha256 of each stdout, as the entry-by-entry readers and printers wrote it
QUANTUM_STDOUT = {
    "q0.circ simulate":
        "9dba219d65f145e0ce7113be2bdcbb487de94911660ff1ef0588009e72729600",  # 285 bytes
    "q0.circ simulate --trace":
        "e35adade25f5d94e1a4e159cc953408da3466ad6a37ec5555f20099bade1db51",  # 2720 bytes
    "q0.circ sample --seed 11":
        "039df3c841e7b29cb5d47e038a6b606678ce239935fad2a67e677a8cb8447189",  # 296 bytes
    "q1.circ simulate":
        "b0df1ccacef52eaada4cdc4f4f9e7f8e3fee2e7888fea8397b3d13f975ac8621",  # 294 bytes
    "q1.circ simulate --trace":
        "c1b09fc55e68603bd88060056f7a95d25c3ab5d53dc3016000ab250fb6c5c001",  # 2730 bytes
    "q1.circ sample --seed 11":
        "b0df1ccacef52eaada4cdc4f4f9e7f8e3fee2e7888fea8397b3d13f975ac8621",  # 294 bytes
    "q2.circ simulate":
        "5a893037716a4bd542f02eb7695d31e639c48d7c127bd870a8005e5d77dd8a93",  # 545 bytes
    "q2.circ simulate --trace":
        "71981d0808cbcbf319c2243a70a601a3749e675ba2993607e305179a07eb116e",  # 5321 bytes
    "q2.circ sample --seed 11":
        "94610787e7a0202e7b2d308e4e635ff4d3e0eb7e436bb5fd1c3f68f015f08711",  # 556 bytes
    "q3.circ simulate":
        "a3c386c56adef46da723f16208bb5dcf31951d61029b346c47107b8a939ce012",  # 1081 bytes
    "q3.circ simulate --trace":
        "43b7d73e84c4f7086af115eab6dd73e5745f3592dba18d7e726cec004061c0ac",  # 10568 bytes
    "q3.circ sample --seed 11":
        "dd7937bd2d367dd43647f165668b9013d40aa2aa2f2bb65e74b73f80313300d6",  # 1082 bytes
    "q4.circ simulate":
        "cd69eda7f0a1cbf8a1390c9b6b7d22aa4fd562cd8ebac35119bbaf2d883ad196",  # 2140 bytes
    "q4.circ simulate --trace":
        "fb7b550d723415fc83d7e496ca2b98e8f57dbb71bdafddfa4a306af97ca6924d",  # 21226 bytes
    "q4.circ sample --seed 11":
        "6fed75a6570c77c90aa346a2073472aa445d73b8f08a5b02b5974e06d140e9d1",  # 2152 bytes
    "q5.circ simulate":
        "c5a8e1173a712a53a311823791bcf45fe01d5459ea6d48048787f8b749e66414",  # 2147 bytes
    "q5.circ simulate --trace":
        "b2a2b87f998f2d2584da6e3eac4db882ce4347678ff702c11ebd581e09a5ff28",  # 21280 bytes
    "q5.circ sample --seed 11":
        "468316e8cbf8b04bdfd64be027da21aec522b6ee8fa29a30ac960373a51f4bd3",  # 2147 bytes
}


def test_quantum_stdout_is_pinned(tmp_path, capsys):
    files, names = quantum_programs()
    for name, text in files.items():
        write(tmp_path, name, text)
    got = {}
    for name in names:
        for command in QUANTUM_COMMANDS:
            assert main([*command, str(tmp_path / name)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            got[f"{name} {' '.join(command)}"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == QUANTUM_STDOUT
