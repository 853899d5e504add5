"""The CLI's own argv reader against argparse, on every short argv.

`fuzzbit.cli.main` reads an argv itself where `_read_argv` returns a
namespace, and hands every other argv to argparse.  For each argv of up to
`LENGTH` tokens drawn from `ALPHABET`, this checks that where the reader
returns a namespace, `_build_parser().parse_args(argv)` returns one with
the same `vars()`; so where argparse exits, the reader declines.  Run from
the repository root as

    PYTHONPATH=src python tests/cli_argv_sweep.py

It needs neither pytest nor hypothesis, so it runs on every supported
interpreter; pytest does not collect it, and tier 1 imports it.  It prints
one line per mismatch and a summary, and exits non-zero on a mismatch.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import sys

from fuzzbit.cli import _build_parser, _read_argv

LENGTH = 4  # the fewest tokens that reach `apply` and `kron`
COMMAND_NAMES = ("check", "apply", "kron", "simulate", "sample", "synth", "verify")
ALPHABET = (
    *COMMAND_NAMES, "classical", "stochastic", "quantum", "fuzzy", "Fuzzy", "bogus",
    # tokens argparse reads by their first character or their spaces
    "-", "--", "", "x y", "-x y", "-5",
    # option strings, whole, abbreviated and with an attached value
    "--trace", "--tr", "--seed", "--seed=3", "--grid",
    # seeds: what `_seed_arg` takes, what int() alone would, and the 64-bit edge
    "7", "007", "-7", "٣", "1_0", " 7", str((1 << 64) - 1), str(1 << 64),
    "-h", "--help", "coarse", "standard", "fine",
)


def mismatch(argv: list[str]) -> str | None:
    """How the reader and argparse differ on `argv`, or None where they agree."""
    ours = _read_argv(argv)
    if ours is None:
        return None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            theirs = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return f"{argv!r}: the reader gives {vars(ours)}, argparse exits {exc.code}"
    if vars(ours) != vars(theirs):
        return f"{argv!r}: the reader gives {vars(ours)}, argparse {vars(theirs)}"
    return None


def sweep() -> tuple[int, collections.Counter, list[str]]:
    """Every argv over `ALPHABET` of at most `LENGTH` tokens: how many there
    are, how many the reader accepts per command, and each mismatch."""
    tried, accepted, found = 0, collections.Counter(), []
    for n in range(LENGTH + 1):
        for argv in map(list, itertools.product(ALPHABET, repeat=n)):
            tried += 1
            if _read_argv(argv) is not None:
                accepted[argv[0]] += 1
                line = mismatch(argv)
                if line is not None:
                    found.append(line)
    return tried, accepted, found


def main() -> int:
    tried, accepted, found = sweep()
    for line in found:
        print(line)
    print(f"{tried} argv of up to {LENGTH} tokens over {len(ALPHABET)}, "
          f"{sum(accepted.values())} read by the reader "
          f"({', '.join(f'{name} {accepted[name]}' for name in COMMAND_NAMES)}): "
          f"{len(found)} differ from argparse")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
