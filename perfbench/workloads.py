"""The benchmark's workloads: the job each one runs and the gate on its output.

A job takes the workload seed and returns its output; a gate turns that
output into a fixed list of named checks, so a missing or unparsable output
fails every check that needed it instead of shrinking the count.  Expected
values are arguments of the gates, which lets the self-test hand in a wrong
one and see the gate fail.  A gate also stores the values it read back into
the output ("mu", "passed"), for the result file.

mobiuslat names are looked up on the module objects at call time, so that
the traced run sees the wrappers it rebinds into those modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import mobiuslat.cli as cli
import mobiuslat.families as families
import mobiuslat.fibpoly as fibpoly
import mobiuslat.nbb as nbb


@dataclass(frozen=True)
class Workload:
    job: Callable[[int], dict]
    gate: Callable[[dict], list[tuple[str, bool]]]


def run_cli(argv: list[str]) -> dict:
    """cli.main in this process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a request this way
            code = exc.code
        except Exception:  # as the interpreter would: a traceback and exit 1
            code = 1
    text = buf.getvalue()
    return {"exit": code, "stdout": text, "stdout_bytes": len(text.encode())}


MOBIUS_LINE = re.compile(
    r"n=\d+: recurrence (-?\d+), nbb (-?\d+), sparse sum (-?\d+), "
    r"F_\(n-2\)\(-1\) (-?\d+) -> (?:agree|MISMATCH)"
)


def lattice_job(family: str, n: int, seed: int) -> dict:
    # the seed has nothing to vary here: one size, one deterministic lattice
    return run_cli(["mobius", "--family", family, "--n", str(n)])


def lattice_gate(out: dict, mu: int) -> list[tuple[str, bool]]:
    match = MOBIUS_LINE.fullmatch(out["stdout"].strip())
    values = [int(v) for v in match.groups()] if match else [None] * 4
    out["mu"] = values
    checks = [("exit 0", out["exit"] == 0)]
    for route, value in zip(("recurrence", "nbb", "sparse sum", "F(-1)"), values):
        checks.append((f"{route} = {mu}", value == mu))
    return checks


def verify_job(max_n: int, seed: int) -> dict:
    return run_cli(["verify", "--max-n", str(max_n), "--format", "json", "--seed", str(seed)])


def verify_gate(out: dict, claims: int) -> list[tuple[str, bool]]:
    try:
        found = json.loads(out["stdout"])["claims"]
    except (ValueError, KeyError, TypeError):
        found = None
    listed = found or []
    passed = [c.get("pass") is True for c in listed]
    out["passed"] = sum(passed)
    checks = [
        ("exit 0", out["exit"] == 0),
        ("json parses", found is not None),
        (f"{claims} claims", len(listed) == claims),
    ]
    checks += [(f"claim {i} passes", i < len(passed) and passed[i]) for i in range(claims)]
    return checks


def nbb_orders_job(n: int, orders: int, seed: int) -> dict:
    fam = families.build_family("C", n)
    canonical = nbb.nbb_bases_of(fam.canonical_order, fam.nbb_target)
    rng = random.Random(seed)
    sequences, signed = [], []
    for _ in range(orders):
        order = nbb.shuffled_order(fam.nbb_lattice, rng)
        sequences.append(order.sequence)
        signed.append(nbb.mobius_via_nbb(order))
    return {"fam": fam, "canonical_bases": len(canonical), "orders": sequences, "mu": signed}


def nbb_orders_gate(out: dict, mu: int, bases: int) -> list[tuple[str, bool]]:
    n = out["fam"].n
    recurrence = out["fam"].lattice.mobius_number()
    sparse = len(fibpoly.sparse_sets(n - 2))
    checks = [
        (f"recurrence = {mu}", recurrence == mu),
        (f"{bases} canonical bases", out["canonical_bases"] == bases),
        ("canonical bases = sparse sets", out["canonical_bases"] == sparse),
    ]
    for i, value in enumerate(out["mu"]):
        checks.append((f"order {i} = recurrence", value == recurrence))
        checks.append((f"order {i} = {mu}", value == mu))
    return checks


# The sizes and expected values are frozen: mu(0, 1) = F_(n-2)(-1) is 1 for
# B at n=9 and C at n=16, verify at --max-n 8 lists 116 claims, and C at
# n=16 has F_14 = 377 canonical NBB bases.  B stops at 9, the largest size
# the CLI allows without --force; at 10 the dense tables need gigabytes.
WORKLOADS = {
    "lattice-B9": Workload(partial(lattice_job, "B", 9), partial(lattice_gate, mu=1)),
    "verify-8": Workload(partial(verify_job, 8), partial(verify_gate, claims=116)),
    "nbb-orders-C16": Workload(
        partial(nbb_orders_job, 16, 60), partial(nbb_orders_gate, mu=1, bases=377)
    ),
}
