"""The `standard` mutant sweep of `verify`: one sha256 per mutant, against a pinned table.

Run from the repository root as `PYTHONPATH=src python tests/verify_mutants.py`
(pytest does not collect it: it takes under a minute, 41-46 s on a shared
2-vCPU host with Python 3.11, most of it `max-plus` and `max-meet`).
Under each mutant that `DIGESTS` names, taken by name from the `MUTANTS`
table of `tests/test_verify.py`, it runs `mv-gate-laws-2` and `-4`,
`action-laws-2` and `-4`, `tensor-laws` and `oracle-agreement` on one
`standard` grid, prints the sha256 of their full reports (name, cases,
failures, note) with the time each took, then the total time, and exits 1
if one differs from `DIGESTS`.
"""

import sys
import time

import pytest

import fuzzbit.verify as verify
from test_verify import MUTANTS, _digest

DIGESTS = {
    "healthy":
        "8e87c3eb17a37912e9a0a5bd20b1a7eda7fa04df3f0360ca4896f42a287d39c6",
    "uncapped":
        "0ecb95beb5237539dc914821461a02e530fb45077405d72969d8e226f675cf83",
    "max-plus":
        "99d9ff89d20b40bd990b5a18a9e33f326ae5ed149f47451603f667a7f040528c",
    "max-meet":
        "992a0274325876ee990f0eaf228b07668b40ff1dfbc0792092474fc6d58c928b",
    "basis-ket":
        "5e866ef78d6b317bc8c5aa6f7428d3bf23209f0e35603861aca8ce7d403171d7",
    "dimension":
        "8efcc1b126acdf5d7925752aa8d64df0a2b3e0fe998b74b0726523fff8aaf2e2",
    "symmetry":
        "ccb06ba31ce4c2728b0c8c59036468d1d5ac5a6fe192df7b666712f2a6a9525d",
    "associativity":
        "288a532ce4a6757f25d8637aee14288065ceeb1cff13d1db88610ab19596476c",
    "gate-closure":
        "78ca424699e7e4030ad690072564c558e3c9446fa6700ea43f3adf37a77999a5",
    "max-reduced":
        "750d27e295ca49dac22fc27624f202c9afea3d65a34274acc0852b29029f7ab6",
    "state-closure":
        "d76f2e78263c772607d5ee57b05163da03c18b61854bcf6033b3e7a5593c2bbb",
    "accept-all":
        "c4a30092291b418a7d9112d07018692d2ae64d0dfc744fb53d2e5e2d66ae3008",
    "constant":
        "5b03c789a016a26ef5640b89a4789ee7fe6e639c6df6065fc1c7ed86ec534746",
}


def digest(mutant: str) -> str:
    """The sha256 of the six reports on `standard` with `mutant` patched in."""
    with pytest.MonkeyPatch.context() as m:
        if MUTANTS[mutant]:
            name, make = MUTANTS[mutant]
            m.setattr(verify, name, make(getattr(verify, name)))
        grid = verify._Grid(verify.grid_values("standard"))
        reports = [verify.check_mv_gate_laws(grid, 2), verify.check_mv_gate_laws(grid, 4),
                   verify.check_action_laws(grid, 2), verify.check_action_laws(grid, 4),
                   verify.check_tensor_laws(grid), verify.check_oracle_agreement(grid)]
    return _digest(reports)


def main() -> int:
    changed, start = [], time.perf_counter()
    for mutant, want in DIGESTS.items():
        t0 = time.perf_counter()
        got = digest(mutant)
        verdict = "ok" if got == want else "CHANGED"
        print(f"{mutant:15} {got} {verdict} {time.perf_counter() - t0:.1f}s", flush=True)
        if verdict != "ok":
            changed.append(mutant)
    print(f"{'total':15} {time.perf_counter() - start:.1f}s")
    if changed:
        print(f"digests changed: {', '.join(changed)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
