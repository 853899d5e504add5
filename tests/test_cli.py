"""End-to-end CLI behaviour: outputs, exit codes, stdin handling."""

import io

import pytest

from fuzzbit.algebra import FUZZ_MV
from fuzzbit.circuit import MAX_DENSE_WIRES
from fuzzbit.cli import main
from fuzzbit.linalg import identity, parse_matrix_text

FID_TEXT = "instance fuzz-mv 2 2\n0 1\n1 0\n"
J_TEXT = "instance fuzz-mv 2 2\n1 0\n0 1\n"
BELL_TEXT = ("model quantum\nwires 2\ninit ket 00\n"
             "gate H 0\ngate CNOT 0 1\nmeasure seed 7\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
    monkeypatch.setattr("sys.stdin", io.StringIO(FID_TEXT))
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


def test_simulate_summary_and_trace(tmp_path, capsys):
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    assert main(["simulate", bell]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "model quantum"
    assert out[1] == "wires 2"
    assert out[2].startswith("final 0.707106781187 0 0 0.707106781187")
    assert out[3] in ("measured 0", "measured 3")

    assert main(["simulate", bell, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step 0 init 1 0 0 0")
    assert lines[1].startswith("step 1 H")
    assert lines[2].startswith("step 2 CNOT")


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


def test_simulate_seed_rules(tmp_path, capsys):
    fuzzy = write(tmp_path, "f.circ", "model fuzzy\nwires 1\ninit ket 0\ngate FNOT 0\n")
    assert main(["simulate", fuzzy, "--seed", "4"]) == 1
    assert "quantum" in capsys.readouterr().err
    assert main(["sample", fuzzy]) == 1
    capsys.readouterr()
    bell = write(tmp_path, "bell.circ", BELL_TEXT)
    assert main(["simulate", bell, "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] in ("measured 0", "measured 3")


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
        final = simulate(vc, initial=ClassicalState(vc.program.wire_count, x)).final
        assert final.basis_index & 1 == (0, 1, 1, 0)[x]

    ident = write(tmp_path, "id.tbl", "0 1\n")
    assert main(["synth", ident]) == 0
    assert "gate" not in capsys.readouterr().out

    bad = write(tmp_path, "bad.tbl", "0 1 1\n")
    assert main(["synth", bad]) == 2
    capsys.readouterr()
    bad2 = write(tmp_path, "bad2.tbl", "0 2\n")
    assert main(["synth", bad2]) == 2


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
    from fuzzbit import cli

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


@pytest.mark.parametrize("program", [
    "model quantum\nwires ²\ninit ket 00\n",
    "model quantum\nwires 1\ninit ket 0\ngate H ٠\n",
    "model quantum\nwires 1\ninit ket 0\ngate H 0\nmeasure seed ³\n",
])
def test_non_ascii_digits_are_parse_errors(tmp_path, capsys, program):
    circ = tmp_path / "p.circ"
    circ.write_text(program, encoding="utf-8")
    assert main(["simulate", str(circ)]) == 2
    assert capsys.readouterr().err.startswith("error: line ")


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
