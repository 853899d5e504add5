"""The CLI request corpus: input files, command lines and their exact results.

Tier 1 runs each case in-process through `fuzzbit.cli.main`; as a script,
`python tests/cli_corpus.py`, this runs each through the `fuzzbit` on PATH
and exits non-zero if there is none or a case fails.  A case runs in a new
temporary directory that holds its files and is its requests' working
directory.  A case id `<group>/<name>` runs under the `tests/test_cli.py`
test of its group, a plain id under `test_each_corpus_case`.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 60  # per request through the console script


@dataclasses.dataclass(frozen=True)
class Request:
    """A command line, split on spaces, and its exact exit code, stdout and stderr."""
    argv: str
    code: int = 0
    out: str = ""
    err: str = ""
    stdin: str | bytes | None = None  # text is given as its UTF-8 bytes
    save: str | None = None  # a file that receives stdout, for a later request to read
    size_below: int | None = None  # in place of `out`: stdout is shorter, in bytes


@dataclasses.dataclass(frozen=True)
class Case:
    id: str
    files: dict[str, str | bytes]
    requests: tuple[Request, ...]


def _case(id, files, argv, code=0, out="", err=""):
    return Case(id, files, (Request(argv, code, out, err),))


def _error(id, files, argv, code, message):
    """A rejected request: one `error:` line and nothing on stdout."""
    return _case(id, files, argv, code, err=f"error: {message}\n")


def _primes_above(low: int, count: int) -> list[int]:
    high = low + 40 * count  # the prime gaps near 1,000 average about 7
    sieve = bytearray([1]) * (high + 1)
    for k in range(2, math.isqrt(high) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, high + 1, k)))
    return [k for k in range(low + 1, high + 1) if sieve[k]][:count]


def matrix(instance: str, tokens, cols=1) -> str:
    rows = len(tokens) // cols
    return f"instance {instance} {rows} {cols}\n" + "".join(
        " ".join(tokens[cols * i:cols * i + cols]) + "\n" for i in range(rows))


_DIGITS = sys.get_int_max_str_digits()
_TOO_LONG = "9" * (_DIGITS + 1)  # one digit past the int-string limit
_INTEGER_TOO_LONG = f"integer literal of {_DIGITS + 1} digits is too long"
_SCALAR_TOO_LONG = f"scalar literal of {_DIGITS + 3} characters is too long"
# D has fewer digits than the limit, so 1/D and (D-1)/D are readable literals,
# but D^2 has more, so a product of two such entries cannot be printed.
_BIG_D = 10 ** (_DIGITS * 2 // 3) + 1
_BIG_V = f"instance probability 2 1\n1/{_BIG_D}\n{_BIG_D - 1}/{_BIG_D}\n"
_BIG_G = (f"instance probability 2 2\n1/{_BIG_D} {_BIG_D - 1}/{_BIG_D}\n"
         f"{_BIG_D - 1}/{_BIG_D} 1/{_BIG_D}\n")
_RESULT_TOO_LONG = f"result scalar has a numerator or denominator of more than {_DIGITS} digits"
# Exact literals with distinct prime denominators: their common denominator
# grows with the entry count, so the numerators held over it grow with its
# square.  The bound: the entry count times the scale's bits is at most 64
# times the bits of all the literals' (n, d) pairs, one more bit each.
PRIMES = _primes_above(1000, 256)
_PAST_BOUND = [f"1/{p}" for p in PRIMES]
_PAST_256 = ("the common denominator of 256 exact literals passes 859 bits, "
             "64 times their mean size")
_ONE_WIRE = "model {}\nwires 1\ninit {}\ngate {} 0\n"
_FID = "instance fuzz-mv 2 2\n0 1\n1 0\n"
_CNOT_TEXT = "instance boolean 4 4\n1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0\n"
_BELL = "model quantum\nwires 2\ninit ket 00\ngate H 0\ngate CNOT 0 1\n"
_BELL_FINAL = "model quantum\nwires 2\nfinal 0.707106781187 0 0 0.707106781187\n"
# A quantum gate and state that `check` accepts, each 8e-10 from unit norm,
# and a program that applies the gate twice: each product of them fails the
# 1e-9 tolerance only as far as the operands' own deviations carry it, a
# domain error that names the step or the request, not an internal one.
_NEAR_UNIT_FILES = {
    "g.mat": "instance complex 2 2\n1.0000000004 0\n0 1\n",
    "s.mat": "instance complex 2 1\n1.0000000004\n0\n",
    "p.circ": "model quantum\nwires 1\ninit ket 0\ngate @g.mat 0\ngate @g.mat 0\n",
}
_WITHIN = "within its operands' accepted deviations"
_NORM = "squared norm is 1.0000000016000001, expected 1 within 1e-09"
_T8 = random.Random(3)
_T8_TABLE = " ".join(str(_T8.randint(0, 1)) for _ in range(256)) + "\n"
_T8_KET = ("0010010000000010011001011111010101000000000001001010001100000000001110110100"
           "0110111101101111011101100010100010110111010001010001011010001011010101000000"
           "1010100010100001010110000000")
# `verify`'s report lines, each followed by " failures 0"; `fine` prints the
# lines of `standard`
_VERIFY = {
    "coarse": (
        "semiring-axioms-fuzz-mv cases 129", "semiring-axioms-max-min cases 129",
        "semiring-axioms-viterbi cases 129", "semiring-axioms-boolean cases 44",
        "mv-gate-laws-2 cases 35881", "mv-gate-laws-4 cases 141353",
        "action-laws-2 cases 5149", "action-laws-4 cases 224336", "tensor-laws cases 20512",
        "stochastic-semigroup cases 84", "oracle-agreement cases 4056"),
    "standard": (
        "semiring-axioms-fuzz-mv cases 1449", "semiring-axioms-max-min cases 1449",
        "semiring-axioms-viterbi cases 1449", "semiring-axioms-boolean cases 44",
        "mv-gate-laws-2 cases 9855241", "mv-gate-laws-4 cases 197801",
        "action-laws-2 cases 440301", "action-laws-4 cases 300000", "tensor-laws cases 24672",
        "stochastic-semigroup cases 2404", "oracle-agreement cases 10000"),
}
_VERIFY["fine"] = _VERIFY["standard"]
_TRACE = "simulate --trace p.circ"

CASES = [
    # --- synth's printed program, run by `simulate` ---------------------------------
    Case("synth-xor-from-stdin", {}, (
        Request("synth -", stdin="0 1 1 0\n", save="xor.circ", out=(
            "# synthesized circuit: inputs on wires 0..1, result on wire 0\nmodel classical\n"
            "wires 3\ninit ket 000\ngate XOR 0 1 2\ngate SWAP 1 2\ngate SWAP 0 1\n")),
        Request("simulate --trace xor.circ", out=(
            "step 0 init index 0 ket 000\nstep 1 XOR index 0 ket 000\n"
            "step 2 SWAP index 0 ket 000\nstep 3 SWAP index 0 ket 000\n"
            "model classical\nwires 3\nfinal index 0 ket 000\n")))),
    # synth checks the program it builds, not its printed text: run the text
    Case("synth-parity-4", {"t.tbl": "0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0\n"}, (
        Request("synth t.tbl", save="t.circ", out=(
            "# synthesized circuit: inputs on wires 0..3, result on wire 0\n"
            "model classical\nwires 7\ninit ket 0000000\n" + "".join(f"gate {step}\n" for step in (
                "SWAP 1 2,SWAP 2 3,SWAP 0 1,SWAP 1 2,XOR 2 3 4,SWAP 0 1,SWAP 1 2,SWAP 2 3,"
                "XOR 4 3 5,SWAP 0 1,SWAP 1 2,SWAP 2 3,SWAP 3 4,XOR 5 4 6,SWAP 5 6,SWAP 4 5,"
                "SWAP 3 4,SWAP 2 3,SWAP 1 2,SWAP 0 1").split(",")))),
        Request("simulate t.circ", out="model classical\nwires 7\nfinal index 0 ket 0000000\n"))),
    # the widest table synth takes: its program stays under 250,000 bytes
    Case("synth-8-inputs", {"t.tbl": _T8_TABLE}, (
        Request("synth t.tbl", save="t.circ", size_below=250_000),
        Request("simulate t.circ", out=(
            "model classical\nwires 180\nfinal index "
            f"215563266723895264676193937002564841694438805239108992 ket {_T8_KET}\n")))),
    # --- measurement: a program's seed, `--seed`, and `sample`'s seed 0 --------------
    Case("bell", {"bell.circ": _BELL + "measure seed 7\n", "plus.circ": _BELL}, (
        Request("simulate bell.circ", out=_BELL_FINAL + "measured 0\n"),
        Request("simulate --seed 0 bell.circ", out=_BELL_FINAL + "measured 3\n"),
        Request("sample plus.circ", out=_BELL_FINAL + "measured 3\n"))),
    # every quantum builtin from a basis ket
    _case("quantum-ket-trace", {"p.circ": "model quantum\nwires 2\ninit ket 01\ngate H 1\n"
                                          "gate X 0\ngate Z 1\ngate CNOT 1 0\ngate SWAP 0 1\n"},
          _TRACE, out=(
              "step 0 init 0 1 0 0\nstep 1 H 0 0.707106781187 0 0.707106781187\n"
              "step 2 X 0.707106781187 0 0.707106781187 0\n"
              "step 3 Z 0.707106781187 0 -0.707106781187 0\n"
              "step 4 CNOT 0.707106781187 0 0 -0.707106781187\n"
              "step 5 SWAP 0.707106781187 0 0 -0.707106781187\n"
              "model quantum\nwires 2\nfinal 0.707106781187 0 0 -0.707106781187\n")),
    _error("kron-past-limit", {"c.mat": matrix("probability", ["1/512"] * 512)},
           "kron stochastic c.mat c.mat", 1,
           "kron results take at most 65536 entries, got 262144"),
    # every grid, `standard` being the benchmark's own `verify` request
    *(_case(f"verify-{grid}", {}, f"verify --grid {grid}",
            out="".join(f"{line} failures 0\n" for line in lines))
      for grid, lines in _VERIFY.items()),

    # --- requests on integers: no `Fraction` code runs ---------------------------
    # a stochastic and a fuzzy program, each with an `init vec` of the literals
    # 2/4, 0.25 and 1 and an @file gate; `check classical` of a member gate and
    # state; `apply`, state `kron` and gate `kron` per rational model
    _case("rational/stochastic", {
        "p.circ": "model stochastic\nwires 2\ninit vec 2/4 0.25 0 0.25\n"
                  "gate @g.mat 1\ngate CNOT 1 0\ngate @g.mat 0\n",
        "g.mat": "instance probability 2 2\n1/3 1\n2/3 0\n"}, _TRACE, out=(
            "step 0 init 1/2 1/4 0 1/4\nstep 1 @g.mat 1/6 1/3 1/3 1/6\n"
            "step 2 CNOT 1/6 1/3 1/6 1/3\nstep 3 @g.mat 7/18 1/9 7/18 1/9\n"
            "model stochastic\nwires 2\nfinal 7/18 1/9 7/18 1/9\n")),
    _case("rational/fuzzy", {
        "p.circ": "model fuzzy\nwires 2\ninit vec 2/4 0.25 0 1\n"
                  "gate @g.mat 1\ngate FSWAP 1 0\ngate @g.mat 0\n",
        "g.mat": "instance fuzz-mv 2 2\n0 1/3\n1/2 0\n"}, _TRACE, out=(
            "step 0 init 1/2 1/4 0 1\nstep 1 @g.mat 1/3 1/4 0 3/4\n"
            "step 2 FSWAP 1/3 0 1/4 3/4\nstep 3 @g.mat 1/3 0 1/4 3/4\n"
            "model fuzzy\nwires 2\nfinal 1/3 0 1/4 3/4\n")),
    # basis kets and every stochastic and fuzzy builtin
    _case("rational/stochastic-ket", {
        "p.circ": "model stochastic\nwires 2\ninit ket 01\n"
                  "gate NOT 1\ngate CNOT 1 0\ngate SWAP 0 1\n"}, _TRACE, out=(
            "step 0 init 0 1 0 0\nstep 1 NOT 0 0 0 1\nstep 2 CNOT 0 0 1 0\n"
            "step 3 SWAP 0 1 0 0\nmodel stochastic\nwires 2\nfinal 0 1 0 0\n")),
    _case("rational/fuzzy-ket", {
        "p.circ": "model fuzzy\nwires 2\ninit ket 10\n"
                  "gate FSWAP 1 0\ngate FNOT 1\ngate FID 0\ngate FZERO 0\n"}, _TRACE, out=(
            "step 0 init 1 1 0 1\nstep 1 FSWAP 1 0 1 1\nstep 2 FNOT 1 1 1 0\n"
            "step 3 FID 1 1 1 0\nstep 4 FZERO 1 1 1 1\nmodel fuzzy\nwires 2\nfinal 1 1 1 1\n")),
    _case("rational/fuzzy-one-wire", {"p.circ": _ONE_WIRE.format("fuzzy", "vec 0 1/2", "FNOT")},
          "simulate p.circ", out="model fuzzy\nwires 1\nfinal 1/2 0\n"),
    _case("rational/stochastic-one-wire",
          {"p.circ": _ONE_WIRE.format("stochastic", "vec 1/3 2/3", "NOT")},
          "simulate p.circ", out="model stochastic\nwires 1\nfinal 2/3 1/3\n"),
    _case("rational/classical-gate", {"g.mat": _CNOT_TEXT}, "check classical g.mat", out="ok\n"),
    _case("rational/classical-state", {"v.mat": "instance boolean 4 1\n0\n0\n1\n0\n"},
          "check classical v.mat", out="ok\n"),
    *[_case(f"rational/{name}", {"a.mat": a, "b.mat": b}, f"{argv} a.mat b.mat", out=out)
      for name, argv, a, b, out in (
        ("apply-stochastic", "apply stochastic", "instance probability 2 2\n1/3 1\n2/3 0\n",
         "instance probability 2 1\n1/4\n3/4\n", "5/6 1/6\n"),
        ("apply-fuzzy", "apply fuzzy", "instance fuzz-mv 2 2\n0 1/3\n1/2 0\n",
         "instance fuzz-mv 2 1\n1/4\n0\n", "1/4 0\n"),
        ("kron-stochastic", "kron stochastic", "instance probability 2 1\n1/4\n3/4\n",
         "instance probability 2 1\n1/3\n2/3\n", "1/12 1/6 1/4 1/2\n"),
        ("kron-fuzzy", "kron fuzzy", "instance fuzz-mv 2 1\n1/4\n0\n",
         "instance fuzz-mv 2 1\n0\n1/3\n", "1/4 7/12 0 1/3\n"),
        ("kron-gates-stochastic", "kron stochastic", "instance probability 2 2\n1/3 1\n2/3 0\n",
         "instance probability 2 2\n1/4 1/2\n3/4 1/2\n", "instance probability 4 4\n"
         "1/12 1/6 1/4 1/2\n1/4 1/6 3/4 1/2\n1/6 1/3 0 0\n1/2 1/3 0 0\n"),
        ("kron-gates-fuzzy", "kron fuzzy", "instance fuzz-mv 2 2\n0 1/3\n1/2 0\n",
         "instance fuzz-mv 2 2\n1/4 0\n0 2/3\n", "instance fuzz-mv 4 4\n"
         "1/4 0 7/12 1/3\n0 2/3 1/3 1\n3/4 1/2 1/4 0\n1/2 1 0 2/3\n"))],

    # --- rejected requests, and boolean files, which parse to numerators --------
    # An error inside an @file gate names the step's line and the file, then
    # the file's own line.  `check` prints its verdict ("fail ...") on stdout.
    _error("rejection/header", {"a.mat": "instance fuzz-mv 2\n0 1\n1 0\n"}, "check fuzzy a.mat",
           2, "line 1: expected header 'instance <name> <rows> <cols>'"),
    _case("rejection/check-stochastic-range", {"a.mat": "instance probability 2 1\n5/4\n0\n"},
          "check stochastic a.mat", 1, out="fail entry 0 is 5/4, outside [0, 1]\n"),
    _case("rejection/check-classical-half", {"a.mat": "instance boolean 2 2\n1/2 0\n0 1\n"},
          "check classical a.mat", 1, out="fail entry (0, 0) is 1/2, expected 0 or 1\n"),
    _error("rejection/check-classical-range", {"a.mat": "instance boolean 2 1\n5/4\n0\n"},
           "check classical a.mat", 2, "line 2: scalar '5/4' outside [0, 1]"),
    _case("rejection/check-classical-ones", {"a.mat": "instance boolean 2 1\n1\n1\n"},
          "check classical a.mat", 1, out="fail basis vector needs exactly one 1, found 2\n"),
    _case("rejection/apply-classical", {"g.mat": "instance boolean 2 2\n0 1\n1 0\n",
                                        "v.mat": "instance boolean 2 1\n1\n0\n"},
          "apply classical g.mat v.mat", out="0 1\n"),
    _case("rejection/kron-classical", {"a.mat": "instance boolean 2 2\n0 1\n1 0\n",
                                       "b.mat": _CNOT_TEXT},
          "kron classical a.mat b.mat", out=(
              "instance boolean 8 8\n0 0 0 0 1 0 0 0\n0 0 0 0 0 1 0 0\n0 0 0 0 0 0 0 1\n"
              "0 0 0 0 0 0 1 0\n1 0 0 0 0 0 0 0\n0 1 0 0 0 0 0 0\n0 0 0 1 0 0 0 0\n"
              "0 0 1 0 0 0 0 0\n")),
    *[_error(f"rejection/scalar-{bad}",
             {"a.mat": f"instance probability 2 2\n1/2 {bad}\n1/2 1/2\n"},
             "check stochastic a.mat", 2, message) for bad, message in (
        ("abc", "line 2: malformed scalar 'abc'"),
        ("1/0", "line 2: zero denominator in '1/0'"),
        ("0.5.5", "line 2: malformed scalar '0.5.5'"),
        ("--1", "line 2: malformed scalar '--1'"))],
    _error("rejection/directive", {"p.circ": "model fuzzy\nwires 2\ninit ket 01\nflip 0\n"},
           "simulate p.circ", 2, "line 4, column 1: unknown directive 'flip'"),
    _error("rejection/wire", {"p.circ": "model quantum\nwires 2\ninit ket 00\ngate H a\n"},
           "simulate p.circ", 2, "line 4, column 8: wire index 'a' is not a non-negative integer"),
    _error("rejection/table", {"t.txt": "0 1 1\n"}, "synth t.txt",
           2, "table length 3 is not a power of two (at least 2)"),
    _error("rejection/cli-mix-gate", {
        "p.circ": "model fuzzy\nwires 2\ninit ket 10\ngate @b.mat 0\n",
        "b.mat": "instance fuzz-mv 2 2\n1/2 0\n1/4 1\n"}, "simulate p.circ", 1,
        "line 4: fuzzy gate '@b.mat': column 0 has minimum 1/4, expected 0"),
    _error("rejection/cli-mix-init",
           {"p.circ": "model stochastic\nwires 1\ninit vec 1/2 1/4\ngate NOT 0\n"},
           "simulate p.circ",
           1, "line 3: initial state rejected: entries sum to 3/4, expected exactly 1"),
    _error("rejection/sample-fuzzy",
           {"p.circ": "model fuzzy\nwires 2\ninit ket 01\ngate FNOT 0\n"}, "sample p.circ", 1,
           "sample requires a quantum circuit"),
    _error("rejection/seed-stochastic",
           {"p.circ": "model stochastic\nwires 2\ninit ket 01\ngate NOT 0\n"},
           "simulate --seed 42 p.circ", 1, "--seed applies to quantum circuits only"),
    *[_error(f"rejection/gate-{name}",
             {"p.circ": _ONE_WIRE.format(model, "ket 0", "@b.mat"), "b.mat": matrix},
             "simulate p.circ", 1, message) for name, model, matrix, message in (
        ("classical", "classical", "instance boolean 2 2\n1 1\n0 1\n",
         "line 4: classical gate '@b.mat': row 0 has 2 ones, expected exactly 1"),
        ("stochastic-sum", "stochastic", "instance probability 2 2\n1/4 1/2\n1/2 1/2\n",
         "line 4: stochastic gate '@b.mat': column 0 sums to 3/4, expected exactly 1"),
        ("stochastic-range", "stochastic", "instance probability 2 2\n5/4 0\n0 1\n",
         "line 4: stochastic gate '@b.mat': entry (0, 0) is 5/4, outside [0, 1]"),
        ("quantum", "quantum", "instance complex 2 2\n1 2\n0 1\n",
         "line 4: quantum gate '@b.mat': columns 0 and 1 are not orthonormal "
         "(deviation 2.000e+00)"),
        ("fuzzy", "fuzzy", "instance fuzz-mv 2 2\n0 1\n1 1/2\n",
         "line 4: fuzzy gate '@b.mat': column 1 has minimum 1/2, expected 0"),
        ("fuzzy-carrier", "fuzzy", "instance probability 2 2\n0 1\n1 0\n",
         "line 4: gate file 'b.mat' uses instance probability, model fuzzy needs fuzz-mv"),
        ("fuzzy-square", "fuzzy", "instance fuzz-mv 2 3\n0 1 1\n1 0 1\n",
         "line 4: gate '@b.mat': matrix must be square"))],
    *[_error(f"rejection/init-{name}", {"p.circ": _ONE_WIRE.format(model, f"vec {vec}", gate)},
             "simulate p.circ", 1, message) for name, model, vec, gate, message in (
        ("classical", "classical", "1 0", "NOT",
         "line 3: classical programs take ket initial states"),
        ("stochastic", "stochastic", "1/2 1/4", "NOT",
         "line 3: initial state rejected: entries sum to 3/4, expected exactly 1"),
        ("stochastic-length", "stochastic", "1/2 1/4 1/4", "NOT",
         "line 3: init vec has 3 entries, expected 2"),
        ("quantum", "quantum", "1 1", "X",
         "line 3: initial state rejected: squared norm is 2.0, expected 1 within 1e-09"),
        ("fuzzy", "fuzzy", "1/4 3/4", "FNOT",
         "line 3: initial state rejected: minimum entry is 1/4, expected 0 (or all entries 1)"))],
    # a classical wire count has no bound, so its state's size 2^n is never built
    *[_error(f"rejection/classical-wires-{name}",
             {"p.circ": f"model classical\nwires {wires}\ninit {init}\n"},
             "simulate p.circ", 1, message) for name, wires, init, message in (
        ("googol-ket", 10 ** 100, "ket 0",
         f"line 3: init ket has 1 bits, program has {10 ** 100} wires"),
        ("googol-vec", 10 ** 100, "vec 1 0", "line 3: classical programs take ket initial states"),
        ("5-gb-ket", 40_000_000_000, "ket 0",
         "line 3: init ket has 1 bits, program has 40000000000 wires"))],
    # a classical index of 15,000 bits has more decimal digits than the int-string limit
    Case("rejection/classical-index-past-digit-limit",
         {"p.circ": f"model classical\nwires 15000\ninit ket {'1' * 15000}\ngate NOT 0\n"},
         tuple(Request(argv, 1, err=f"error: basis index has more than {_DIGITS} digits\n")
               for argv in ("simulate p.circ", _TRACE))),
    # each wire-list rule of `validate`, and a gate name the row does not build
    *[_error(f"rejection/step-{name}",
             {"p.circ": f"model quantum\nwires {wires}\ninit ket {'0' * wires}\ngate {gate}\n"},
             "simulate p.circ", 1, message) for name, wires, gate, message in (
        ("arity", 2, "CNOT 0", "line 4: gate CNOT expects 2 wires, got 1"),
        ("repeated-wire", 2, "CNOT 0 0", "line 4: gate CNOT lists a wire twice"),
        ("out-of-range", 2, "H 2", "line 4: wire 2 out of range for 2 wires"),
        ("not-contiguous", 3, "CNOT 0 2",
         "line 4: gate CNOT wires (0, 2) must form a contiguous block"),
        ("unknown-gate", 2, "FOO 0", "line 4: unknown gate 'FOO' for model quantum"))],
    _error("rejection/zero-denominator-init",
           {"p.circ": _ONE_WIRE.format("stochastic", "vec 1/0 1", "NOT")},
           "simulate p.circ", 2, "line 3, column 10: zero denominator in '1/0'"),
    _error("rejection/zero-denominator-gate",
           {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "@b.mat"),
            "b.mat": "instance fuzz-mv 2 2\n0 1/0\n1 0\n"},
           "simulate p.circ", 2, "line 4: gate file 'b.mat': line 2: zero denominator in '1/0'"),
    _error("rejection/fuzzy-above-one-init",
           {"p.circ": _ONE_WIRE.format("fuzzy", "vec 0 5/4", "FNOT")},
           "simulate p.circ", 2, "line 3, column 12: scalar '5/4' outside [0, 1]"),
    _error("rejection/fuzzy-above-one-gate",
           {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "@b.mat"),
            "b.mat": "instance fuzz-mv 2 2\n0 1.25\n1 0\n"},
           "simulate p.circ", 2,
           "line 4: gate file 'b.mat': line 2: scalar '1.25' outside [0, 1]"),
    _error("rejection/long-literal-init", {"p.circ": _ONE_WIRE.format(
        "stochastic", f"vec 1{'0' * _DIGITS}/1{'0' * _DIGITS} 0", "NOT")}, "simulate p.circ",
        2, f"line 3, column 10: scalar literal of {2 * _DIGITS + 3} characters is too long"),
    _error("rejection/long-decimal-gate",
           {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "@b.mat"),
            "b.mat": f"instance fuzz-mv 2 2\n0 0.1{'0' * _DIGITS}\n1 0\n"},
           "simulate p.circ", 2,
           f"line 4: gate file 'b.mat': line 2: scalar literal of {_DIGITS + 3} characters "
           "is too long"),
    _error("rejection/past-bound-gate", {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "@b.mat"),
                                         "b.mat": matrix("fuzz-mv", _PAST_BOUND)},
           "simulate p.circ", 1, f"line 4: gate file 'b.mat': {_PAST_256}"),
    _error("rejection/long-result", {
        "p.circ": _ONE_WIRE.format("stochastic", f"vec 1/{_BIG_D} {_BIG_D - 1}/{_BIG_D}",
                                   "@b.mat"),
        "b.mat": f"instance probability 2 2\n1/{_BIG_D + 2} 0\n{_BIG_D + 1}/{_BIG_D + 2} 1\n"},
        _TRACE, 1, _RESULT_TOO_LONG),

    # --- one program per `parse_circuit` error -----------------------------------
    *[_error(f"parse-error/{message}", {"p.circ": text}, "simulate p.circ", 2, message)
      for text, message in (
        ("model fuzzy\nmodel fuzzy\n", "line 2, column 1: duplicate model directive"),
        ("model\n", "line 1, column 1: expected: model <tag>"),
        ("model pastel\n", "line 1, column 7: unknown model 'pastel'"),
        ("wires 2\n", "line 1, column 1: model must come first"),
        ("model fuzzy\nwires 1\nwires 1\n", "line 3, column 1: duplicate wires directive"),
        ("model fuzzy\nwires x\n", "line 2, column 1: expected: wires <positive integer>"),
        ("model fuzzy\nwires 0\n", "line 2, column 7: wire count must be positive"),
        ("model fuzzy\ninit ket 0\n",
         "line 2, column 1: model and wires must come before init"),
        ("model fuzzy\nwires 1\ninit ket 0\ninit ket 1\n",
         "line 4, column 1: duplicate init directive"),
        # a gate line needs an init line before it, so an init after a gate is a second init
        ("model fuzzy\nwires 1\ninit ket 0\ngate FNOT 0\ninit ket 1\n",
         "line 5, column 1: duplicate init directive"),
        ("model fuzzy\nwires 1\ninit\n",
         "line 3, column 1: expected: init ket <bits> | init vec <scalars>"),
        ("model fuzzy\nwires 1\ninit ket 0 1\n", "line 3, column 1: expected: init ket <bits>"),
        ("model fuzzy\nwires 1\ninit vec\n",
         "line 3, column 1: init vec needs at least one scalar"),
        ("model fuzzy\nwires 1\ninit vec 0 x\n", "line 3, column 12: malformed scalar 'x'"),
        ("model fuzzy\nwires 1\ninit bra 0\n", "line 3, column 6: unknown init kind 'bra'"),
        ("model fuzzy\nwires 1\ngate FNOT 0\n",
         "line 3, column 1: model, wires and init must come before gates"),
        ("model quantum\nwires 1\ninit ket 0\nmeasure seed 1\ngate H 0\n",
         "line 5, column 1: measure must be the final directive"),
        ("model fuzzy\nwires 1\ninit ket 0\ngate FNOT\n",
         "line 4, column 1: expected: gate <name|@file> <wires...>"),
        ("model fuzzy\nwires 1\ninit ket 0\ngate FNOT -1\n",
         "line 4, column 11: wire index '-1' is not a non-negative integer"),
        ("model quantum\nwires 1\nmeasure seed 1\n",
         "line 3, column 1: measure must follow a complete program"),
        ("model quantum\nwires 1\ninit ket 0\nmeasure seed 1\nmeasure seed 2\n",
         "line 5, column 1: duplicate measure directive"),
        ("model quantum\nwires 1\ninit ket 0\nmeasure seed\n",
         "line 4, column 1: expected: measure seed <non-negative integer>"),
        ("model fuzzy\nwigs 1\n", "line 2, column 1: unknown directive 'wigs'"),
        ("# nothing\n", "missing model directive"),
        ("model fuzzy\n", "missing wires directive"),
        ("model fuzzy\nwires 1\n", "missing init directive"))],

    # --- numbers the parser or printer cannot take ----------------------------------
    # digits outside ASCII are not digits, in programs and in matrix headers
    *[_error(f"non-ascii/{text}", {name: text}, f"{command} {name}", 2, message)
      for command, name, text, message in (
        ("simulate", "p.circ", "model quantum\nwires ²\ninit ket 00\n",
         "line 2, column 1: expected: wires <positive integer>"),
        ("simulate", "p.circ", "model quantum\nwires 1\ninit ket 0\ngate H ٠\n",
         "line 4, column 8: wire index '٠' is not a non-negative integer"),
        ("simulate", "p.circ", "model quantum\nwires 1\ninit ket 0\ngate H 0\nmeasure seed ³\n",
         "line 5, column 1: expected: measure seed <non-negative integer>"),
        ("simulate", "p.circ", "model fuzzy\nwires 1\ninit vec ١/2 1\n",
         "line 3, column 10: malformed scalar '١/2'"),
        ("simulate", "p.circ", "model stochastic\nwires 1\ninit vec ٠.5 1/2\n",
         "line 3, column 10: malformed scalar '٠.5'"),
        ("simulate", "p.circ", "model quantum\nwires 1\ninit vec ١i 0\n",
         "line 3, column 10: malformed scalar '١i'"),
        ("check fuzzy", "g.mat", "instance fuzz-mv ٢ ٢\n0 1\n1 0\n",
         "line 1: non-integer dimensions in header"),
        ("check fuzzy", "g.mat", "instance fuzz-mv 1_0 2\n" + "0 1\n" * 10,
         "line 1: non-integer dimensions in header"))],
    # an integer or scalar literal one digit past the int-string limit
    *[_error(f"long-literal/{name}", {argv.split()[-1]: text}, argv, 2, f"{position}: {message}")
      for name, argv, text, position, message in (
        ("wires", "simulate p.circ", f"model classical\nwires {_TOO_LONG}\ninit ket 0\n",
         "line 2, column 7", _INTEGER_TOO_LONG),
        ("wire-index", "simulate p.circ",
         f"model classical\nwires 1\ninit ket 0\ngate NOT {_TOO_LONG}\n",
         "line 4, column 10", _INTEGER_TOO_LONG),
        ("measure-seed", "simulate p.circ",
         f"model quantum\nwires 1\ninit ket 0\ngate H 0\nmeasure seed {_TOO_LONG}\n",
         "line 5, column 14", _INTEGER_TOO_LONG),
        ("denominator", "simulate p.circ", f"model fuzzy\nwires 1\ninit vec 1/{_TOO_LONG} 1\n",
         "line 3, column 10", _SCALAR_TOO_LONG),
        ("numerator", "simulate p.circ", f"model stochastic\nwires 1\ninit vec 0 {_TOO_LONG}/1\n",
         "line 3, column 12", _SCALAR_TOO_LONG),
        ("decimal", "simulate p.circ", f"model stochastic\nwires 1\ninit vec 0.{_TOO_LONG} 1\n",
         "line 3, column 10", _SCALAR_TOO_LONG),
        ("matrix-entry", "check fuzzy g.mat", f"instance fuzz-mv 1 2\n1/{_TOO_LONG} 1\n",
         "line 2", _SCALAR_TOO_LONG),
        ("matrix-header", "check fuzzy g.mat", f"instance fuzz-mv {_TOO_LONG} 2\n0 1\n",
         "line 1", _INTEGER_TOO_LONG))],
    # results whose literal would pass the limit
    _error("long-result/kron", {"v.mat": _BIG_V}, "kron stochastic v.mat v.mat", 1,
           _RESULT_TOO_LONG),
    _error("long-result/kron-gates", {"g.mat": _BIG_G}, "kron stochastic g.mat g.mat", 1,
           _RESULT_TOO_LONG),
    _error("long-result/simulate", {"g.mat": _BIG_G, "p.circ": "model stochastic\nwires 1\n"
                                    "init ket 0\ngate @g.mat 0\ngate @g.mat 0\n"},
           "simulate p.circ", 1, _RESULT_TOO_LONG),
    # 1/D + 1/(D+2) has a denominator of about twice D's digits: a membership
    # message that printed that sum could not be formatted
    *[_error(f"long-sum/{name}", {"s.mat": text}, "check stochastic s.mat", 1,
             f"{what} has a numerator or denominator of more than {_DIGITS} digits")
      for name, text, what in (
        ("state", f"instance probability 2 1\n1/{_BIG_D}\n1/{_BIG_D + 2}\n",
         "the sum of the entries"),
        ("gate", f"instance probability 2 2\n1/{_BIG_D} 1\n1/{_BIG_D + 2} 0\n",
         "the sum of column 0"))],
    # a finite amplitude whose square is past the largest double: the squared
    # norm is inf, not an OverflowError
    _case("overflowing-norm/check", {"q.mat": "instance complex 2 1\n1e200\n0\n"},
          "check quantum q.mat", 1, out="fail squared norm is inf, expected 1 within 1e-09\n"),
    _error("overflowing-norm/simulate",
           {"q.circ": "model quantum\nwires 1\ninit vec 1e200 0\ngate H 0\n"}, "simulate q.circ",
           1, "line 3: initial state rejected: squared norm is inf, expected 1 within 1e-09"),
    # a program's `measure seed` takes the range `--seed` takes: one past it
    # is a parse error at the seed, not a seed drawn modulo 2^64
    Case("program-seed/18446744073709551615", {"p.circ": _ONE_WIRE.format(
        "quantum", "ket 0", "H") + "measure seed 18446744073709551615\n"},
        tuple(Request(argv, out="model quantum\nwires 1\nfinal 0.707106781187 0.707106781187\n"
                                "measured 1\n")
              for argv in ("simulate p.circ", "simulate --seed 18446744073709551615 p.circ"))),
    _error("program-seed/18446744073709551616", {"p.circ": _ONE_WIRE.format(
        "quantum", "ket 0", "H") + "measure seed 18446744073709551616\n"}, "simulate p.circ", 2,
        "line 5, column 14: seed must fit in an unsigned 64-bit integer"),

    # --- exact literals held over too large a common denominator ----------------
    _error("past-bound/probability-matrix", {"a.mat": matrix("probability", _PAST_BOUND, 16)},
           "check stochastic a.mat", 1, _PAST_256),
    _error("past-bound/boolean-column", {"a.mat": matrix("boolean", _PAST_BOUND)},
           "check classical a.mat", 1, _PAST_256),
    _error("past-bound/init-vec",
           {"p.circ": "model stochastic\nwires 8\ninit vec " + " ".join(_PAST_BOUND) + "\n"},
           "simulate p.circ", 1, f"line 3: {_PAST_256}"),
    _error("past-bound/probability-64x64",
           {"a.mat": matrix("probability", [f"1/{p}" for p in _primes_above(1000, 4096)], 64)},
           "check stochastic a.mat", 1, "the common denominator of 4096 exact literals passes "
                                        "1050 bits, 64 times their mean size"),

    # --- products of near-unit quantum operands ----------------------------------
    *[_case(f"near-unit/{argv}", _NEAR_UNIT_FILES, argv, code, out, err)
      for argv, code, out, err in (
        ("check quantum g.mat", 0, "ok\n", ""),
        ("check quantum s.mat", 0, "ok\n", ""),
        ("simulate p.circ", 1, "",
         f"error: line 5: step 2 (@g.mat) left the state set {_WITHIN}: {_NORM}\n"),
        ("kron quantum g.mat g.mat", 1, "",
         f"error: tensor left the gate set {_WITHIN}: "
         "columns 0 and 0 are not orthonormal (deviation 1.600e-09)\n"),
        ("kron quantum s.mat s.mat", 1, "",
         f"error: tensor left the state set {_WITHIN}: {_NORM}\n"),
        ("apply quantum g.mat s.mat", 1, "",
         f"error: result left the state set {_WITHIN}: {_NORM}\n"))],

    # --- how a path names its file, and the line ends a file may use ---------------
    # pathlib's forms: `./nope.mat` is named `nope.mat`, `a.mat/` reads a.mat
    *[_error(f"io/{name}", {}, argv, 2, message) for name, argv, message in (
        ("missing", "check fuzzy nope.mat",
         "[Errno 2] No such file or directory: 'nope.mat'"),
        ("missing-dot-slash", "check fuzzy ./nope.mat",
         "[Errno 2] No such file or directory: 'nope.mat'"),
        ("directory", "check fuzzy .", "[Errno 21] Is a directory: '.'"))],
    _case("io/trailing-slash", {"a.mat": _FID}, "check fuzzy a.mat/", out="ok\n"),
    # CRLF and lone CR line ends read as LF
    _case("io/crlf-matrix", {"a.mat": _FID.replace("\n", "\r\n")}, "check fuzzy a.mat",
          out="ok\n"),
    _case("io/cr-matrix", {"a.mat": _FID.replace("\n", "\r")}, "check fuzzy a.mat", out="ok\n"),
    _case("io/crlf-program", {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "FNOT")
                              .replace("\n", "\r\n")}, _TRACE, out=(
        "step 0 init 0 1\nstep 1 FNOT 1 0\nmodel fuzzy\nwires 1\nfinal 1 0\n")),
    _error("io/missing-gate-file", {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "@nope.mat")},
           "simulate p.circ", 1,
           "line 4: cannot read gate file 'nope.mat': [Errno 2] No such file or directory: "
           "'nope.mat'"),
    _error("io/nul-in-gate-file-name",
           {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "@a\0b")}, "simulate p.circ", 1,
           "line 4: cannot read gate file 'a\\x00b': embedded null byte"),
    # standard input is held to the UTF-8 rule of a named file, in every locale
    Case("io/stdin-not-utf8", {}, (Request(
        "simulate -", stdin=_ONE_WIRE.format("fuzzy", "ket 0", "F\xffNOT").encode("latin-1"),
        code=2, err="error: - is not UTF-8: invalid start byte at byte 37\n"),)),
    Case("io/crlf-stdin", {}, (Request(
        "simulate --trace -",
        stdin=_ONE_WIRE.format("fuzzy", "ket 0", "FNOT").replace("\n", "\r\n"),
        out="step 0 init 0 1\nstep 1 FNOT 1 0\nmodel fuzzy\nwires 1\nfinal 1 0\n"),)),

    # --- what argparse prints for an argv the CLI's own reader declines ---------------
    *[_case(f"usage/{name}", {"p.circ": _ONE_WIRE.format("fuzzy", "ket 0", "FNOT"),
                              "q.circ": _ONE_WIRE.format("quantum", "ket 0", "H"),
                              "a.mat": _FID}, argv, code, out, err)
      for name, argv, code, out, err in (
          ("no-command", "", 2, "", "usage: fuzzbit [-h] command ...\n"
           "fuzzbit: error: the following arguments are required: command\n"),
          ("bad-model", "check bogus a.mat", 2, "",
           "usage: fuzzbit check [-h] {classical,stochastic,quantum,fuzzy} file\n"
           "fuzzbit check: error: argument model: invalid choice: 'bogus' "
           "(choose from 'classical', 'stochastic', 'quantum', 'fuzzy')\n"),
          # an extra positional is reported by the top-level parser
          ("extra-positional", "simulate p.circ extra", 2, "",
           "usage: fuzzbit [-h] command ...\nfuzzbit: error: unrecognized arguments: extra\n"),
          ("negative-seed", "sample p.circ --seed -1", 2, "",
           "usage: fuzzbit sample [-h] [--trace] [--seed SEED] circuit\n"
           "fuzzbit sample: error: argument --seed: seed must fit in an unsigned 64-bit "
           "integer\n"),
          ("grid-without-value", "verify --grid", 2, "",
           "usage: fuzzbit verify [-h] [--grid {coarse,standard,fine}]\n"
           "fuzzbit verify: error: argument --grid: expected one argument\n"),
          # argparse accepts an abbreviated option and an attached value
          ("abbreviated-option", "simulate --tr p.circ", 0,
           "step 0 init 0 1\nstep 1 FNOT 1 0\nmodel fuzzy\nwires 1\nfinal 1 0\n", ""),
          ("attached-value", "simulate q.circ --seed=0", 0,
           "model quantum\nwires 1\nfinal 0.707106781187 0.707106781187\nmeasured 1\n", ""),
      )],
]
CASE = {case.id: case for case in CASES}


def run(case: Case, directory, call) -> list[tuple[int, str, str]]:
    """Write the case's files into `directory` and run its requests there, in
    order, each by `call(argv, stdin, cwd)`: their (exit code, stdout, stderr)."""
    directory = Path(directory)
    for name, body in case.files.items():
        (directory / name).write_bytes(body.encode() if isinstance(body, str) else body)
    results = []
    for request in case.requests:
        result = call(request.argv.split(), request.stdin, directory)
        if request.save:
            (directory / request.save).write_text(result[1], encoding="utf-8")
        results.append(result)
    return results


def _mismatch(what: str, got: str, want: str) -> str:
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return (f"{what} differs at character {at}: "
            f"got {got[at:at + 60]!r}, expected {want[at:at + 60]!r}")


def failures(case: Case, directory, call) -> list[str]:
    """What differs from the case's expected results, one line per difference."""
    found = []
    for request, (code, out, err) in zip(case.requests, run(case, directory, call)):
        where = f"{case.id!r}: fuzzbit {request.argv}"
        if code != request.code:
            found.append(f"{where}: exit code {code}, expected {request.code}")
        if request.size_below is not None:
            if len(out.encode()) >= request.size_below:
                found.append(f"{where}: stdout has {len(out.encode())} bytes, "
                             f"expected fewer than {request.size_below}")
        elif out != request.out:
            found.append(f"{where}: {_mismatch('stdout', out, request.out)}")
        if err != request.err:
            found.append(f"{where}: {_mismatch('stderr', err, request.err)}")
    return found


def stdin_bytes(stdin: str | bytes | None) -> bytes:
    """A request's standard input as the bytes a process reads."""
    return stdin if isinstance(stdin, bytes) else (stdin or "").encode()


def call_script(argv, stdin, cwd):
    """The `fuzzbit` on PATH, run on argv in `cwd`: (exit code, stdout, stderr)."""
    try:
        done = subprocess.run(["fuzzbit", *argv], cwd=cwd, capture_output=True,
                              input=stdin_bytes(stdin), timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", f"no exit within {TIMEOUT_S} s"
    return (done.returncode, done.stdout.decode(errors="replace"),
            done.stderr.decode(errors="replace"))


def main() -> int:
    if shutil.which("fuzzbit") is None:
        print("error: no fuzzbit on PATH", file=sys.stderr)
        return 2
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            found = failures(case, directory, call_script)
        for line in found:
            print(line)
        failed += bool(found)
    print(f"{len(CASES)} cases through {shutil.which('fuzzbit')}: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
