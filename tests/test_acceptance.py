"""Acceptance gate: the eight headline checks, one pass/fail line each.

Each test prints `criterion K PASS/FAIL: ...` through the record_criterion
fixture and the same lines are echoed in the terminal summary.  All
comparisons are exact integer or exact set equality.  Criteria 1 and 3-6
run claims of `CLAIMS`, picked by id, at the sizes each claim takes up to
the criterion's largest size.
"""

import itertools
import time

from mobiuslat.families import AVOIDED_PATTERNS, CLAIMS, _STRUCTURE, build_family, sparse_signed_sum
from mobiuslat.fibpoly import fib_poly
from mobiuslat.permutation import (
    enumerate_avoiders,
    inversion_mask,
    weak_join,
    weak_meet,
)

SEED = 0


def run_claims(ids, max_n):
    """Run the claims with these ids at their sizes up to max_n: the count, and the first failure if any."""
    results = [claim.run(n, SEED) for claim in CLAIMS if claim.id in ids for n in claim.sizes(max_n)]
    failures = [f"{r.id} {r.family} n={r.n}: {r.witness}" for r in results if not r.passed]
    return len(results), f"; first failure {failures[0]}" if failures else ""


def test_criterion_1_nbb_matches_recurrence_all_orders(record_criterion):
    start = time.perf_counter()
    count, failed = run_claims({"nbb-order-independence"}, 9)
    elapsed = time.perf_counter() - start
    in_time = elapsed < 60.0
    passed = not failed and in_time
    record_criterion(
        1,
        "NBB signed count equals recurrence for A,B,C at n=1..9, canonical + 20 random orders",
        passed,
        # the canonical order and 20 shuffles per claim
        f"{21 * count} orders, {elapsed:.1f}s" + ("" if in_time else " OVER 60s") + failed,
    )
    assert passed


def test_criterion_2_main_identity(record_criterion):
    expected = {3: 1, 4: 1, 5: 0, 6: -1, 7: -1, 8: 0, 9: 1}
    failures = []
    flip_disagrees = 0
    nonzero = 0
    for n, want in expected.items():
        values = {
            "fib": fib_poly(n - 2).eval(-1),
            "sparse": sparse_signed_sum(n),
        }
        for family in ("A", "B", "C"):
            fam = build_family(family, n)
            values[f"mu({family})"] = fam.lattice.mobius_number()
        if set(values.values()) != {want}:
            failures.append(f"n={n}: {values} != {want}")
        if want != 0:
            nonzero += 1
            if -values["fib"] != want:
                flip_disagrees += 1
    passed = not failures and flip_disagrees == nonzero
    record_criterion(
        2,
        "mu(A)=mu(B)=mu(C)=sparse signed sum=F_(n-2)(-1), n=3..9, sequence 1,1,0,-1,-1,0,1",
        passed,
        "identity binds to +F_(n-2)(-1); the negated convention -F_(n-2)(-1) "
        f"disagrees with the recurrence at all {flip_disagrees} nonzero sizes"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
    assert passed


def test_criterion_3_nbb_bases_are_sparse_predictions(record_criterion):
    count, failed = run_claims({"nbb-bases-predicted"}, 8)
    title = "enumerated NBB bases equal sparse-set predictions with matching counts, n=3..8"
    record_criterion(3, title, not failed, f"{count} claims: coatom side of A and C, atom side of B" + failed)
    assert not failed


def test_criterion_4_word_avoider_isomorphism(record_criterion):
    _, failed = run_claims({"word-avoider-isomorphism"}, 10)
    title = "composition-word map and its inverse are order isomorphisms, n=1..10"
    record_criterion(4, title, not failed, "round trips and order agreement on all pairs, zero tolerance" + failed)
    assert not failed


def test_criterion_5_structure_suite(record_criterion):
    count, failed = run_claims({claim.id for claim in _STRUCTURE}, 8)
    title = "structure suite (closure, recurrence, joins, coatom meets) holds for n=1..8"
    record_criterion(5, title, not failed, f"{count} claims" + failed)
    assert not failed


def test_criterion_6_generating_function(record_criterion):
    _, failed = run_claims({"sparse-generating-function", "sparse-sets-base-case"}, 20)
    title = "sparse-set generating polynomial equals the recurrence polynomial, n=1..20"
    record_criterion(6, title, not failed, "3 sparse sets of [4]: {1},{1,3},{1,4}" + failed)
    assert not failed


def test_criterion_7_cardinalities(record_criterion):
    catalan = [1]
    for k in range(9):
        catalan.append(sum(catalan[i] * catalan[k - i] for i in range(k + 1)))
    failures = []
    for n in range(1, 10):
        got = len(enumerate_avoiders(n, [AVOIDED_PATTERNS["B"][0]]))
        if got != catalan[n]:
            failures.append(f"321-avoiders n={n}: {got} != {catalan[n]}")
    a_pats = list(AVOIDED_PATTERNS["A"])
    counts = {n: len(enumerate_avoiders(n, a_pats)) for n in range(1, 11)}
    if counts[1] != 1 or counts[2] != 2:
        failures.append(f"base cases {counts[1]}, {counts[2]}")
    for n in range(3, 11):
        if counts[n] != counts[n - 1] + counts[n - 2]:
            failures.append(f"recursion breaks at n={n}")
    passed = not failures
    record_criterion(
        7,
        "321-avoider counts are Catalan (n<=9); triple-avoider counts satisfy the two-step recursion",
        passed,
        f"Catalan through {catalan[9]}, recursion through {counts[10]}"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
    assert passed


def test_criterion_8_weak_order_engine_exhaustive(record_criterion):
    failures = []
    pair_count = 0
    for n in range(1, 6):
        perms = enumerate_avoiders(n, [])
        masks = [inversion_mask(p) for p in perms]
        index = {p: i for i, p in enumerate(perms)}
        for p, q in itertools.product(perms, repeat=2):
            pair_count += 1
            mp, mq = masks[index[p]], masks[index[q]]
            ubs = [m for m in masks if mp & m == mp and mq & m == mq]
            least = min(ubs, key=lambda m: bin(m).count("1"))
            if any(least & m != least for m in ubs):
                failures.append(f"n={n} {p},{q}: no least upper bound")
                continue
            if inversion_mask(weak_join(p, q)) != least:
                failures.append(f"n={n} join({p},{q})")
            lbs = [m for m in masks if m & mp == m and m & mq == m]
            greatest = max(lbs, key=lambda m: bin(m).count("1"))
            if any(greatest & m != m for m in lbs):
                failures.append(f"n={n} {p},{q}: no greatest lower bound")
                continue
            if inversion_mask(weak_meet(p, q)) != greatest:
                failures.append(f"n={n} meet({p},{q})")
            if len(failures) > 3:
                break
        if len(failures) > 3:
            break
    passed = not failures
    record_criterion(
        8,
        "join/meet agree with exhaustive bound search on all pairs of S_n, n<=5",
        passed,
        f"{pair_count} ordered pairs (14400 at n=5)"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
    assert passed
