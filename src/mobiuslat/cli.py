"""Command-line front end.

Subcommands: mobius (all computations of the Mobius number side by side),
nbb-bases (enumerate NBB bases of the adjoined bound, optionally against
the sparse-set prediction), verify (the full claim suite as text or JSON),
hasse (DOT or JSON diagram export), fib (polynomial table).

Exit status 0 means every requested computation agreed, 1 means some
claim or identity failed, 2 means the request itself was invalid or its
size was refused, and 3 means the program itself failed: any unexpected
exception is reported as one line on stderr instead of a traceback.

Sizes past DEFAULT_MAX_N need --force; then a memory estimate, which
--force does not lift, refuses with exit 2 what cannot fit in physical
memory before anything is enumerated.  mobius for family B builds no
lattice, so it has a bound of its own, TABLE_FREE_MAX_N, and its estimate
is about a hundred bytes per element; every other lattice command is
estimated by its N x N order matrix and the peak of what its build adds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .families import (
    _family_poset,
    build_family,
    mobius_summary,
    predicted_nbb_bases,
    verify_all,
)
from .fibpoly import fib_poly, h_poly
from .nbb import nbb_bases_of

DEFAULT_MAX_N = {"A": 10, "B": 9, "C": 10}
# mobius for B, which holds no N x N array: n=13 takes a few seconds
TABLE_FREE_MAX_N = 13
# H_n lists all F_n sparse sets, about 1.6 times more per step: 75025 at n=25
FIB_MAX_N = 25
EXIT_INTERNAL_ERROR = 3


def _json_dumps(data) -> str:
    return json.dumps(data, ensure_ascii=False, separators=(",", ": "), indent=2)


def _parse_n_range(text: str) -> tuple[int, int]:
    """Accept '6' or '3..9'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _element_count(family: str, n: int) -> int:
    """Elements of a family lattice, adjoined bound included, without building it.

    B lists the Catalan-many 321-avoiders; A and C have F_(n+1) members
    (F_1 = F_2 = 1), the compositions of n into parts 1 and 2.
    """
    if family == "B":
        return math.comb(2 * n, n) // (n + 1) + 1
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a + 1


def _dense_bytes(family: str, n: int) -> int:
    """Peak bytes of one dense family lattice while it is built and checked.

    The order matrix, one byte per entry, is held throughout.  Validation
    adds its packed rows: three arrays of an eighth of a byte per entry.
    The lattice check comes after and adds the meet kernel's N x k arrays
    for its k irreducible targets, a boolean slice of the order and an
    index array of 2 bytes per entry (4 from 2^15 elements); the estimate
    allows three index arrays, room for the kernel's bounded temporaries
    (its traced peak at B9 is under half this term).  B is checked on its
    avoiders with one descent, fewer than 2^n, and A and C on fewer than
    n coatoms.  The elements, their labels and masks and the
    allocator's slack take under 2 KiB each: peak RSS above the
    interpreter's was 1.5 and 1.2 KiB per element past these arrays for
    B at n = 9 and 10.  No command builds a meet or join table.
    """
    count = _element_count(family, n)
    targets = 2**n if family == "B" else n
    width = 2 if count < 1 << 15 else 4
    packed_rows = 3 * count * count // 8
    kernel = count * targets * (1 + 3 * width)
    return count * count + max(packed_rows, kernel) + count * 2048


def _verify_bytes(max_n: int) -> int:
    """Peak bytes of verify --max-n, which caches every lattice it builds.

    The order matrices of all smaller sizes are held while the largest
    are built.  The chained-inversion claim then holds the max_n! words of
    [max_n] beside those, about 2 max_n + 8 bytes a word, which stays under
    what the build adds to the order matrices: 1.1 GiB against 1.6 GiB at
    max_n = 11.
    """
    held = sum(_element_count(f, n) ** 2 for f in "ABC" for n in range(1, max_n))
    return held + sum(_dense_bytes(f, max_n) for f in "ABC")


# Peak bytes per element of B's table-free mobius: the walk's word columns
# and index arrays, then the packed limbs and the recurrence's sort; peak RSS
# above the interpreter's measured 59, 61 and 64 B at n = 13, 14 and 15.
TABLE_FREE_BYTES = 120


def _check_memory(parser, need: int, what: str, store: str = "dense tables"):
    """Refuse, before anything is enumerated, a request larger than physical memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError):  # no sysconf on this platform: nothing to compare
        return
    if need > memory:
        parser.exit(
            2,
            f"mobiuslat: {what} needs about {_gib(need)} GiB of {store}, "
            f"more than the {_gib(memory)} GiB of physical memory; refused\n",
        )


def _gib(nbytes: int) -> str:
    """nbytes in GiB, to one decimal, or in scientific notation from a million GiB."""
    if nbytes < 10**6 * 2**30:
        return f"{nbytes / 2**30:.1f}"
    import decimal  # here, not at the top: its import costs every command ~0.3 MB

    return f"{decimal.Context(Emax=decimal.MAX_EMAX).divide(nbytes, 2**30):.1e}"


def _check_bounds(parser, family: str, n_hi: int, force: bool, table_free: bool = False):
    """The n gate, which --force lifts, then the memory check, which it does not.

    A table-free request holds about a hundred bytes per element, where a
    dense one holds its N x N arrays.
    """
    bound = TABLE_FREE_MAX_N if table_free else DEFAULT_MAX_N[family]
    if n_hi > bound and not force:
        parser.error(
            f"n={n_hi} exceeds the default bound {bound} for family {family}; "
            "pass --force to spend the time and memory anyway"
        )
    what = f"family {family} at n={n_hi}"
    if table_free:
        need = _element_count(family, n_hi) * TABLE_FREE_BYTES
        _check_memory(parser, need, what, "inversion masks")
    else:
        _check_memory(parser, _dense_bytes(family, n_hi), what)


def cmd_mobius(parser, args) -> int:
    try:
        n_lo, n_hi = _parse_n_range(args.n)
    except ValueError:
        parser.error(f"cannot parse --n {args.n!r}")
    if n_lo < 1 or n_hi < n_lo:
        parser.error("n range must be positive and increasing")
    # B's two routes run table-free (see mobius_summary)
    _check_bounds(parser, args.family, n_hi, args.force, table_free=args.family == "B")
    rows = []
    all_agree = True
    for n in range(n_lo, n_hi + 1):
        summary = mobius_summary(n, families=(args.family,))
        all_agree &= summary["agree"]
        rows.append(summary)
    if args.format == "json":
        print(_json_dumps({"rows": rows, "family": args.family}))
    else:
        for s in rows:
            out_of_range = "out of range (n<3)"
            sparse = out_of_range if s["sparse_sum"] is None else s["sparse_sum"]
            fib = out_of_range if s["fib_eval"] is None else s["fib_eval"]
            status = "agree" if s["agree"] else "MISMATCH"
            print(
                f"n={s['n']}: recurrence {s['oracle'][args.family]}, "
                f"nbb {s['nbb'][args.family]}, sparse sum {sparse}, "
                f"F_(n-2)(-1) {fib} -> {status}"
            )
    return 0 if all_agree else 1


def cmd_nbb_bases(parser, args) -> int:
    n = args.n
    if n < 1:
        parser.error("n must be positive")
    _check_bounds(parser, args.family, n, args.force)
    fam = build_family(args.family, n)
    bases = nbb_bases_of(fam.canonical_order, fam.nbb_target)
    listed = [fam.canonical_order.labels(b.atoms) for b in bases]
    side = "atoms" if args.family == "B" else "coatoms"
    predicted = None
    match = None
    if n >= 3:
        predicted = [list(b) for b in predicted_nbb_bases(args.family, n)]
        match = {frozenset(b) for b in listed} == {frozenset(b) for b in predicted}
    if args.format == "json":
        print(
            _json_dumps(
                {
                    "family": args.family,
                    "n": n,
                    "side": side,
                    "order": [fam.nbb_lattice.labels[a] for a in fam.canonical_order.sequence],
                    "bases": listed,
                    "predicted": predicted,
                    "match": match,
                }
            )
        )
    else:
        print(f"NBB bases of {fam.adjoined} in family {args.family}, n={n} ({side}):")
        for b in listed:
            print("  " + " ".join(b))
        if not listed:
            print("  (none)")
        if predicted is None:
            print("prediction unavailable (n<3)")
        else:
            print("prediction: " + ("match" if match else "MISMATCH"))
            if args.predict:
                for b in predicted:
                    print("  " + " ".join(b))
    if match is False:
        return 1
    return 0


def cmd_verify(parser, args) -> int:
    if args.max_n < 1:
        parser.error("--max-n must be positive")
    # family B grows fastest, so its bound is the binding one
    if args.max_n > DEFAULT_MAX_N["B"] and not args.force:
        parser.error(
            f"--max-n {args.max_n} exceeds the default bound {DEFAULT_MAX_N['B']}; "
            "pass --force to run anyway"
        )
    _check_memory(parser, _verify_bytes(args.max_n), f"--max-n {args.max_n}")
    claims = verify_all(args.max_n, args.seed)
    ok = all(c.passed for c in claims)
    if args.format == "json":
        print(_json_dumps({"claims": [c.to_json_dict() for c in claims], "seed": args.seed}))
    else:
        for c in claims:
            state = "PASS" if c.passed else "FAIL"
            extra = "" if c.witness is None else f"  [{c.witness}]"
            print(f"{state} {c.id} family={c.family} n={c.n}{extra}")
        print(f"{sum(c.passed for c in claims)}/{len(claims)} claims pass")
    return 0 if ok else 1


def cmd_hasse(parser, args) -> int:
    if args.n < 1:
        parser.error("n must be positive")
    _check_bounds(parser, args.family, args.n, args.force)
    # the diagram needs only labels and covers: no lattice tables
    poset, _, _ = _family_poset(args.family, args.n)
    if args.format == "json":
        text = _json_dumps(poset.to_json_dict()) + "\n"
    else:
        text = poset.to_dot()
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_fib(parser, args) -> int:
    if args.n < 1:
        parser.error("n must be positive")
    if args.n > FIB_MAX_N and not args.force:
        parser.error(
            f"n={args.n} exceeds the bound {FIB_MAX_N} for fib; "
            "pass --force to run anyway"
        )
    f = fib_poly(args.n)
    h = h_poly(args.n)
    same = f == h
    if args.format == "json":
        data = {
            "n": args.n,
            "fib": list(f.coeffs),
            "sparse_generating": list(h.coeffs),
            "equal": same,
        }
        if args.eval is not None:
            data["eval_at"] = args.eval
            data["value"] = f.eval(args.eval)
        print(_json_dumps(data))
    else:
        print(f"F_{args.n}(q) = {f}")
        print(f"H_{args.n}(q) = {h}")
        print("H = F" if same else "H != F")
        if args.eval is not None:
            print(f"F_{args.n}({args.eval}) = {f.eval(args.eval)}")
    return 0 if same else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiuslat",
        description="Mobius numbers of pattern-avoidance and composition lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=("A", "B", "C"), required=True)
        p.add_argument(
            "--force",
            action="store_true",
            help="allow n beyond the default safety bound (slow, memory-hungry)",
        )

    p = sub.add_parser("mobius", help="compare every computation of the Mobius number")
    add_family(p)
    p.add_argument("--n", required=True, help="a size like 6, or a range like 3..9")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("nbb-bases", help="enumerate NBB bases of the adjoined bound")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--predict", action="store_true", help="show the sparse-set prediction")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_nbb_bases)

    p = sub.add_parser("verify", help="run the whole claim suite")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hasse", help="export a Hasse diagram")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("fib", help="print the polynomial table")
    p.add_argument("--n", type=int, required=True, help=f"index; above {FIB_MAX_N} needs --force")
    p.add_argument("--eval", type=int, help="also evaluate at this integer")
    p.add_argument("--force", action="store_true", help="allow n beyond the bound")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fib)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except Exception as exc:
        print(f"mobiuslat: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
