"""Command-line front end.

Subcommands: mobius (all computations of the Mobius number side by side),
nbb-bases (the NBB bases of the adjoined bound against the sparse-set
prediction, as `families.nbb_summary` compares them for the claim
nbb-bases-predicted too), verify (the full claim suite as text or JSON),
hasse (DOT or JSON diagram export), fib (polynomial table).

Exit status 0 means every requested computation agreed, 1 means some
claim or identity failed, 2 means the request itself was invalid or its
size was refused, and 3 means the program itself failed: any unexpected
exception is reported as one line on stderr instead of a traceback.

Every command first estimates the peak bytes it will hold, from the
counts alone: Catalan for B, Fibonacci for A, C and fib's sets.  Without
--force the estimate must fit BUDGET_BYTES; with it, available memory.  A
request past its limit exits 2 with one line on stderr before anything is
enumerated.  The dense estimate (nbb-bases, hasse, mobius for A and C,
verify) counts each order matrix and what its build adds; mobius for B
builds no lattice, and its estimate is about a hundred bytes per element.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .families import _family_poset, build_family, mobius_summary, nbb_summary, verify_all
from .fibpoly import fib_poly, h_poly

# bound here, so that it clears build_family's own cache even where a wrapper
# without cache_clear is later bound over the name, as a tracer does
_clear_built_families = build_family.cache_clear

# Peak bytes a command may hold without --force: admits dense B up to n=9,
# A and C up to n=19, verify --max-n 9, B's table-free mobius up to n=13 and
# fib up to n=37, each in about 3 s
BUDGET_BYTES = 128 * 2**20
EXIT_INTERNAL_ERROR = 3
_JSON_STYLE = {"ensure_ascii": False, "separators": (",", ": "), "indent": 2}


def _json_dumps(data) -> str:
    return json.dumps(data, **_JSON_STYLE)


def _parse_n_range(text: str) -> tuple[int, int]:
    """Accept '6' or '3..9'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _element_count(family: str, n: int, cap: float = math.inf) -> int | None:
    """Elements of a family lattice, adjoined bound included, without building it.

    B lists the Catalan-many 321-avoiders; A and C have F_(n+1) members
    (F_1 = F_2 = 1), the compositions of n into parts 1 and 2.  Counting
    stops at the first count past cap, and then returns None.
    """
    count, step = 1, 1
    for k in range(n):
        if family == "B":
            count = count * (4 * k + 2) // (k + 2)
        else:
            count, step = step, count + step
        if count > cap:
            return None
    return count + 1


def _dense_estimate(families: str, n_lo: int, n_hi: int, cap: float = math.inf) -> int | None:
    """Peak bytes of building the dense lattices of families at sizes n_lo..n_hi.

    build_family caches what it builds, so under verify the order matrices
    of the smaller sizes, one byte per entry, stay held while the largest
    are built; mobius frees each size before the next, and passes n_lo =
    n_hi.  Building one holds its order matrix and validation's three
    bit-packed copies of it, 3/8 byte per entry, which outweigh the lattice
    check's N x k arrays from B9 on; and 2.5 KiB per element, for the
    labels, the words and, below B9, the check.  verify's chained-inversion
    claim comes after the builds and holds the max_n! words of [max_n],
    about 2 max_n + 8 bytes a word: less than a build adds, 1.1 against
    1.3 GiB at max_n = 11.  Traced peaks were 0.60 to 0.91 of this for
    nbb-bases at B8..B10 and A16..A20, 0.6 to 0.8 for verify --max-n 7..9
    and 0.83 for mobius --family A --n 1..19.  hasse's JSON text, made
    after the poset, took A16's peak 4% past it, and stays under it from
    A18 on; below about 1 MiB a fixed few hundred KiB that it leaves out
    can outweigh it.  None once a count passes cap, which the estimate then
    passes too.
    """
    need = 0
    for n in range(n_lo, n_hi + 1):
        for family in families:
            count = _element_count(family, n, cap)
            if count is None:
                return None
            need += count * count if n < n_hi else count * (count * 11 // 8 + 2560)
    return need


def _table_free_estimate(n: int, cap: float = math.inf) -> int | None:
    """Peak bytes of B's table-free mobius at n, which holds no N x N array.

    96 bytes per element, for the walk's word columns and index arrays,
    then the packed limbs and the recurrence's sort, and 1 MiB for what
    every size holds: traced peaks were 0.5 to 0.8 of this at n = 9..13,
    and 70, 60 and 61 bytes per element at n = 11, 12 and 13.  Each size of
    a range is freed before the next.  None once the count passes cap.
    """
    count = _element_count("B", n, cap)
    return None if count is None else count * 96 + 2**20


def _fib_estimate(n: int, cap: float = math.inf) -> int | None:
    """Peak bytes of fib at n: 5 for each of the F_n sparse sets h_poly lists.

    Traced peaks were 4.4, 4.0 and 3.6 bytes a set at n = 26, 30 and 33,
    and 256 KiB covers a first call's rest.  F_n is C's count at n - 1.
    """
    count = _element_count("C", n - 1, cap)
    return None if count is None else count * 5 + 2**18


def _size(nbytes: int) -> str:
    """nbytes in GiB to one decimal, or below 1 GiB in whole MiB."""
    if nbytes < 2**30:
        return f"{nbytes >> 20} MiB"
    return f"{nbytes / 2**30:.1f} GiB"


def _available_memory() -> int | None:
    """Bytes a new request may take: MemAvailable, else physical memory, else None.

    MemAvailable, from /proc/meminfo, leaves out what other processes and
    the kernel hold.  Where it is missing, all of physical memory stands in
    for it; where sysconf cannot tell that either, there is no limit.
    """
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the field is in KiB
    except OSError:
        pass
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError):  # no sysconf on this platform
        return None


def _admit(parser, force: bool, what: str, estimate, *size) -> None:
    """Refuse with exit 2, before anything is enumerated, a request past its limit.

    The limit is BUDGET_BYTES, or with --force available memory.
    estimate(*size, cap) returns the request's peak bytes, or None once a
    count passes cap, which is then refused without an exact figure.
    """
    if force:
        limit = _available_memory()
        if limit is None:  # nothing to compare
            return
        over, then = f"the {_size(limit)} of available memory", "refused"
    else:
        limit = BUDGET_BYTES
        over = f"the default budget of {_size(limit)}"
        then = "pass --force to allow up to available memory"
    need = estimate(*size, cap=limit)
    if need is None:
        parser.exit(2, f"mobiuslat: {what} needs more than {over}; {then}\n")
    if need > limit:
        parser.exit(2, f"mobiuslat: {what} needs about {_size(need)}, more than {over}; {then}\n")


def cmd_mobius(parser, args) -> int:
    try:
        n_lo, n_hi = _parse_n_range(args.n)
    except ValueError:
        parser.error(f"cannot parse --n {args.n!r}")
    if n_lo < 1 or n_hi < n_lo:
        parser.error("n range must be positive and increasing")
    what = f"family {args.family} at n={n_hi}"
    if args.family == "B":  # both of B's routes run table-free (see mobius_summary)
        _admit(parser, args.force, what, _table_free_estimate, n_hi)
    else:  # each size is freed before the next, so the largest sets the peak
        _admit(parser, args.force, what, _dense_estimate, args.family, n_hi, n_hi)
    rows = []
    all_agree = True
    for n in range(n_lo, n_hi + 1):
        summary = mobius_summary(n, families=(args.family,))
        _clear_built_families()
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
    what = f"family {args.family} at n={n}"
    _admit(parser, args.force, what, _dense_estimate, args.family, n, n)
    summary = nbb_summary(args.family, n)
    if args.format == "json":
        print(_json_dumps(summary))
    else:
        adjoined = build_family(args.family, n).adjoined  # cached by nbb_summary
        print(f"NBB bases of {adjoined} in family {args.family}, n={n} ({summary['side']}):")
        for b in summary["bases"]:
            print("  " + " ".join(b))
        if not summary["bases"]:
            print("  (none)")
        if summary["predicted"] is None:
            print("prediction unavailable (n<3)")
        else:
            print("prediction: " + ("match" if summary["match"] else "MISMATCH"))
            if args.predict:
                for b in summary["predicted"]:
                    print("  " + " ".join(b))
    return 1 if summary["match"] is False else 0


def cmd_verify(parser, args) -> int:
    if args.max_n < 1:
        parser.error("--max-n must be positive")
    _admit(parser, args.force, f"--max-n {args.max_n}", _dense_estimate, "ABC", 1, args.max_n)
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
    what = f"family {args.family} at n={args.n}"
    _admit(parser, args.force, what, _dense_estimate, args.family, args.n, args.n)
    # the diagram needs only labels and covers: no lattice tables
    poset, _, _ = _family_poset(args.family, args.n)

    def write(fh):
        if args.format == "json":
            # streamed: the diagram's text is never held whole
            json.dump(poset.to_json_dict(), fh, **_JSON_STYLE)
            fh.write("\n")
        else:
            fh.write(poset.to_dot())

    if args.output is None:
        write(sys.stdout)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_fib(parser, args) -> int:
    if args.n < 1:
        parser.error("n must be positive")
    _admit(parser, args.force, f"fib at n={args.n}", _fib_estimate, args.n)
    f = fib_poly(args.n)
    value = None if args.eval is None else f.eval(args.eval)
    try:  # before anything is printed, so that a refusal prints nothing
        str(value)
    except ValueError:  # past sys.get_int_max_str_digits(), which str enforces
        limit = sys.get_int_max_str_digits()
        parser.exit(2, f"mobiuslat: F_{args.n} at --eval has more than {limit} digits to print\n")
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
            data["value"] = value
        print(_json_dumps(data))
    else:
        print(f"F_{args.n}(q) = {f}")
        print(f"H_{args.n}(q) = {h}")
        print("H = F" if same else "H != F")
        if args.eval is not None:
            print(f"F_{args.n}({args.eval}) = {value}")
    return 0 if same else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiuslat",
        description="Mobius numbers of pattern-avoidance and composition lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_force(p):
        p.add_argument(
            "--force",
            action="store_true",
            help="allow sizes past the default memory budget, up to available memory",
        )

    def add_family(p):
        p.add_argument("--family", choices=("A", "B", "C"), required=True)
        add_force(p)

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
    add_force(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hasse", help="export a Hasse diagram")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("fib", help="print the polynomial table")
    p.add_argument("--n", type=int, required=True, help="index")
    p.add_argument("--eval", type=int, help="also evaluate at this integer")
    add_force(p)
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
