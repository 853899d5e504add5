"""One sha256 over the CLI's outputs on a benchmark deck.

Run from the repository root as
`PYTHONPATH=src python tests/deck_outputs.py --workload cli-mix --seed 1`
(pytest does not collect it).  It builds the deck of `perfbench/decks.py`
for the workload and seed, writes its files into a new temporary
directory, runs each request once, in order, through `fuzzbit.cli.main`
in-process, and prints the request count and the sha256 of every
(exit code, stdout, stderr).  No output names a deck path, so two trees
that print the same digest answered every request byte for byte alike.
`perfbench/` is imported, never written: no bytecode is cached there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # before perfbench's modules are imported
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import decks  # noqa: E402

from fuzzbit.cli import main as cli_main  # noqa: E402


def outputs(workload: str, seed: int) -> list[tuple[int, str, str]]:
    """Each request's (exit code, stdout, stderr), in deck order."""
    deck = decks.build(workload, seed)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        deck.write(directory)
        for op in deck.ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(deck.argv(op, directory))
            results.append((code, out.getvalue(), err.getvalue()))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=decks.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    results = outputs(args.workload, args.seed)
    h = hashlib.sha256()
    for result in results:
        h.update(repr(result).encode() + b"\n")
    print(f"{args.workload} seed {args.seed}: {len(results)} requests sha256:{h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
