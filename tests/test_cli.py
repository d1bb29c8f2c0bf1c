"""Command line behaviour: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import mobiuslat.cli as cli
import mobiuslat.families as families
import mobiuslat.fibpoly as fibpoly
import mobiuslat.poset as poset_module
from mobiuslat.families import CLAIMS, ClaimResult, build_family, mobius_summary
from mobiuslat.permutation import pair_index

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def run_capture(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- mobius ----------------------------------------------------------------


def test_mobius_text_single(capsys):
    code, out, _ = run_capture(capsys, ["mobius", "--family", "C", "--n", "3"])
    assert code == 0
    assert "n=3: recurrence 1, nbb 1, sparse sum 1, F_(n-2)(-1) 1 -> agree" in out


def test_mobius_text_small_n_note(capsys):
    code, out, _ = run_capture(capsys, ["mobius", "--family", "A", "--n", "2"])
    assert code == 0
    assert "out of range (n<3)" in out
    assert "agree" in out


def test_mobius_range(capsys):
    code, out, _ = run_capture(capsys, ["mobius", "--family", "C", "--n", "3..6"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert len(lines) == 4
    assert lines[-1].startswith("n=6: recurrence -1")


def test_mobius_json(capsys):
    code, out, _ = run_capture(capsys, ["mobius", "--family", "B", "--n", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "B"
    assert data["rows"][0]["oracle"] == {"B": 1}
    assert data["rows"][0]["agree"] is True


def test_mobius_bad_range_exits_2(capsys):
    assert run_capture(capsys, ["mobius", "--family", "C", "--n", "x"])[0] == 2
    assert run_capture(capsys, ["mobius", "--family", "C", "--n", "5..3"])[0] == 2
    assert run_capture(capsys, ["mobius", "--family", "C", "--n", "0"])[0] == 2


def test_mobius_bound_gate(capsys):
    # the default budget admits B's table-free mobius up to n=13, dense B up
    # to n=9 and A and C up to n=19
    code, _, err = run_capture(capsys, ["mobius", "--family", "B", "--n", "14"])
    assert code == 2
    assert err == (
        "mobiuslat: family B at n=14 needs about 245 MiB, more than the default "
        "budget of 128 MiB; pass --force to allow up to available memory\n"
    )
    code, out, _ = run_capture(capsys, ["mobius", "--family", "B", "--n", "10"])
    assert code == 0
    assert out.startswith("n=10: ") and out.endswith("-> agree\n")
    code, _, err = run_capture(capsys, ["nbb-bases", "--family", "B", "--n", "10"])
    assert code == 2
    assert "needs about 410 MiB" in err and "default budget of 128 MiB" in err and "--force" in err
    code, out, _ = run_capture(capsys, ["mobius", "--family", "A", "--n", "16"])
    assert (code, out) == (0, "n=16: recurrence 1, nbb 1, sparse sum 1, F_(n-2)(-1) 1 -> agree\n")
    code, _, err = run_capture(capsys, ["mobius", "--family", "C", "--n", "20"])
    assert code == 2
    assert "family C at n=20 needs about 183 MiB" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mobius", "--family", "B", "--n", "20", "--force"],
        ["verify", "--max-n", "12", "--force"],
        ["mobius", "--family", "B", "--n", "600", "--force"],
        ["nbb-bases", "--family", "B", "--n", "300", "--force"],
        ["mobius", "--family", "A", "--n", "1000000", "--force"],
        ["mobius", "--family", "B", "--n", "1000000", "--force"],
        ["mobius", "--family", "A", "--n", "10000000", "--force"],
        ["mobius", "--family", "B", "--n", "10000000", "--force"],
        ["verify", "--max-n", "20000", "--force"],
        ["hasse", "--family", "C", "--n", "10000000", "--force"],
    ],
)
def test_force_refuses_what_cannot_fit(capsys, monkeypatch, argv):
    # B at n=12 has 208 013 elements, and its order matrix alone is ~40 GiB;
    # B's table-free mobius at n=20 holds 6.6e9 elements at ~100 B each; past
    # about n=21 for B and n=48 for A and C no count fits available memory in
    # bytes, so counting stops there and the refusal is immediate
    def unreachable(*args):
        raise AssertionError("enumeration started")

    for module in (families, cli):
        monkeypatch.setattr(module, "build_family", unreachable)
        monkeypatch.setattr(module, "_family_poset", unreachable)
    monkeypatch.setattr(families, "enumerate_avoiders", unreachable)
    monkeypatch.setattr(families, "avoiders_321", unreachable)
    monkeypatch.setattr(cli, "verify_all", unreachable)
    start = time.perf_counter()
    code, out, err = run_capture(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "available memory" in err


def test_force_admits_only_what_fits_available_memory(capsys, monkeypatch):
    # A at n=24 is estimated at 7.4 GiB: on a machine with 7.8 GiB of physical
    # memory of which 7.3 GiB are available, --force must refuse it
    monkeypatch.setattr(cli, "_available_memory", lambda: int(7.3 * 2**30))
    monkeypatch.setattr(cli, "mobius_summary", lambda *args, **kwargs: pytest.fail("admitted"))
    code, out, err = run_capture(capsys, ["mobius", "--family", "A", "--n", "24", "--force"])
    assert (code, out) == (2, "")
    assert err == (
        "mobiuslat: family A at n=24 needs about 7.4 GiB, more than the 7.3 GiB "
        "of available memory; refused\n"
    )


# The estimate may neither admit what cannot fit nor refuse far more than it
# must: each path at two sizes, its estimate against the traced peak of the
# command in a process whose lattice caches are empty, as a fresh one's are.
CALIBRATION = {
    "nbb-bases --family B --n 8": ("_dense_estimate", "B", 8, 8),
    "nbb-bases --family A --n 16": ("_dense_estimate", "A", 16, 16),
    "hasse --family A --n 16 --format json": ("_dense_estimate", "A", 16, 16),
    "mobius --family B --n 11": ("_table_free_estimate", 11),
    "mobius --family B --n 12": ("_table_free_estimate", 12),
    "mobius --family A --n 1..19": ("_dense_estimate", "A", 19, 19),
    "verify --max-n 7": ("_dense_estimate", "ABC", 1, 7),
    "verify --max-n 8": ("_dense_estimate", "ABC", 1, 8),
}


@pytest.mark.parametrize("command", list(CALIBRATION))
def test_estimate_bounds_the_traced_peak_within_twice(capsys, command):
    estimate, *size = CALIBRATION[command]
    for cached in (families.build_family, families.weak_order_lattice, fibpoly.fib_poly):
        cached.cache_clear()
    tracemalloc.start()
    try:
        code = run_cli(command.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    need = getattr(cli, estimate)(*size)
    assert peak <= need <= 2 * peak, (peak, need)


def test_memory_figures():
    assert cli._size(282 * 2**30 + 2**29) == "282.5 GiB"
    assert cli._size(244 * 2**20 + 2**19) == "244 MiB"


def test_mobius_b_builds_no_lattice(capsys, monkeypatch):
    # both of B's routes run table-free: no dense lattice, order or meet table
    def unreachable(*args):
        raise AssertionError("dense lattice built")

    monkeypatch.setattr(families, "build_family", unreachable)
    monkeypatch.setattr(poset_module, "_meets_with", unreachable)
    monkeypatch.setattr(poset_module.FinitePoset, "__init__", unreachable)
    code, out, _ = run_capture(capsys, ["mobius", "--family", "B", "--n", "8..9"])
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN["mobius --family B --n 8..9"]


def test_mobius_b_join_without_the_321_test_is_caught(capsys, monkeypatch):
    # unions that contain 321 stay in B, so no join ever reaches the top
    monkeypatch.setattr(families, "_chained", lambda rows: False)
    assert families._table_free_mobius_b(9) == (1, 0)
    code, out, _ = run_capture(capsys, ["mobius", "--family", "B", "--n", "9"])
    assert code == 1
    assert "n=9: recurrence 1, nbb 0," in out and "MISMATCH" in out


def test_mobius_b_recurrence_missing_a_support_element_is_caught(capsys, monkeypatch):
    # leaving s_3 (mu -1) out of the packed masks drops it from every sum above
    # it; some atoms leave mu(0, 1) at n=9 unchanged, s_3 moves it from 1 to 2
    by_rank, s3 = families._mobius_by_rank, 1 << pair_index(9, 3, 4)

    def without_s3(packed, counts):
        keep = packed[:, 0] != s3
        assert packed.shape[1] == 1 and (~keep).sum() == 1
        return by_rank(packed[keep], counts[keep])

    monkeypatch.setattr(families, "_mobius_by_rank", without_s3)
    assert families._table_free_mobius_b(9) == (2, 1)
    code, out, _ = run_capture(capsys, ["mobius", "--family", "B", "--n", "9"])
    assert code == 1
    assert "MISMATCH" in out


def test_element_counts_match_the_built_families():
    for family in ("A", "B", "C"):
        for n in range(1, 10):
            assert cli._element_count(family, n) == build_family(family, n).lattice.size


def test_mobius_exit_1_on_disagreement(capsys, monkeypatch):
    def fake(n, families=("A", "B", "C")):
        return {
            "n": n,
            "oracle": {f: 0 for f in families},
            "nbb": {f: 1 for f in families},
            "sparse_sum": None,
            "fib_eval": None,
            "agree": False,
        }

    monkeypatch.setattr(cli, "mobius_summary", fake)
    code, out, _ = run_capture(capsys, ["mobius", "--family", "C", "--n", "3"])
    assert code == 1
    assert "MISMATCH" in out


# -- nbb-bases ---------------------------------------------------------------


def test_nbb_bases_json(capsys):
    code, out, _ = run_capture(capsys, ["nbb-bases", "--family", "C", "--n", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["side"] == "coatoms"
    assert data["order"] == ["21", "12"]
    assert data["bases"] == [["21", "12"]]
    assert data["predicted"] == [["21", "12"]]
    assert data["match"] is True


def test_nbb_bases_text(capsys):
    code, out, _ = run_capture(capsys, ["nbb-bases", "--family", "B", "--n", "5"])
    assert code == 0
    assert "NBB bases of 1̂ in family B, n=5 (atoms):" in out
    assert "  21345 13245\n" in out
    assert "  21345 13245 12354\n" in out
    assert "prediction: match" in out


def test_nbb_bases_predict_listing(capsys):
    code, out, _ = run_capture(capsys, ["nbb-bases", "--family", "C", "--n", "5", "--predict"])
    assert code == 0
    assert out.count("2111 1211") >= 2  # once enumerated, once predicted


def test_nbb_bases_small_n(capsys):
    code, out, _ = run_capture(capsys, ["nbb-bases", "--family", "C", "--n", "2"])
    assert code == 0
    assert "(none)" in out
    assert "prediction unavailable (n<3)" in out


def test_nbb_bases_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "predicted_nbb_bases", lambda family, n: [("21",)])
    code, out, _ = run_capture(capsys, ["nbb-bases", "--family", "C", "--n", "3"])
    assert code == 1
    assert "MISMATCH" in out


def test_nbb_bases_rejects_bad_n(capsys):
    assert run_capture(capsys, ["nbb-bases", "--family", "C", "--n", "0"])[0] == 2
    assert run_capture(capsys, ["nbb-bases", "--family", "B", "--n", "10"])[0] == 2
    assert run_capture(capsys, ["nbb-bases", "--family", "A", "--n", "20"])[0] == 2


# -- verify ------------------------------------------------------------------


def test_verify_text(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("claims pass")
    total = len(lines) - 1
    assert lines[-1] == f"{total}/{total} claims pass"


def test_verify_json_schema_and_determinism(capsys):
    code, out1, _ = run_capture(capsys, ["verify", "--max-n", "2", "--format", "json", "--seed", "5"])
    assert code == 0
    code, out2, _ = run_capture(capsys, ["verify", "--max-n", "2", "--format", "json", "--seed", "5"])
    assert code == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 5
    assert data["claims"]
    for claim in data["claims"]:
        assert {"claim", "family", "n", "pass"} <= set(claim) <= {
            "claim", "family", "n", "pass", "witness"
        }
        assert claim["pass"] is True


def test_verify_bound_gate(capsys, monkeypatch):
    code, _, err = run_capture(capsys, ["verify", "--max-n", "10"])
    assert code == 2
    assert "--max-n 10 needs about 436 MiB" in err and "default budget of 128 MiB" in err
    assert run_capture(capsys, ["verify", "--max-n", "0"])[0] == 2
    # the gate alone: --max-n 9 is admitted
    monkeypatch.setattr(cli, "verify_all", lambda max_n, seed: [])
    assert run_capture(capsys, ["verify", "--max-n", "9"]) == (0, "0/0 claims pass\n", "")


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "verify_all", lambda max_n, seed: [ClaimResult("boom", "-", 1, False, "bad")]
    )
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "2"])
    assert code == 1
    assert "FAIL boom" in out
    assert "0/1 claims pass" in out


def test_verify_catches_a_wrong_atom_join(capsys, monkeypatch):
    # one wrong x v a in B at n=4: the atom 1243 alone now joins to 2143.
    # The top's signed count stays right under every order the claim
    # draws, so only the element-by-element comparison can see it
    lattice = build_family("B", 4).lattice
    atom, wrong = lattice.poset.index("1243"), lattice.poset.index("2143")
    true_columns = poset_module.BoundedLattice.atom_join_columns

    def perturbed(self):
        columns = true_columns(self)
        if self is lattice:
            columns = columns.copy()
            columns[lattice.atoms().index(atom), lattice.bottom] = wrong
        return columns

    monkeypatch.setattr(poset_module.BoundedLattice, "atom_join_columns", perturbed)
    claim = next(c for c in CLAIMS if (c.id, c.family) == ("nbb-order-independence", "B"))
    result = claim.run(4, seed=0)
    assert not result.passed
    assert result.witness == "canonical order disagrees with the recurrence"
    assert families.mobius_via_nbb(build_family("B", 4).canonical_order) == lattice.mobius_number()
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "4"])
    assert code == 1
    assert "FAIL nbb-order-independence family=B n=4" in out


def test_verify_catches_a_dropped_cover(capsys, monkeypatch):
    # C at n=6 loses the cover 1212 < 11112 from its edge list while its
    # order matrix stays right. The recurrence reads the order; the NBB
    # search reads the atom joins, which the meet kernel finds over the
    # covers, so the two routes disagree
    true_poset = families._family_poset

    def dropped(family, n):
        poset, adjoined, words = true_poset(family, n)
        if (family, n) == ("C", 6):
            lo, hi = poset._covers
            keep = (lo != poset.index("1212")) | (hi != poset.index("11112"))
            assert keep.sum() == len(lo) - 1
            poset._covers = (lo[keep], hi[keep])
        return poset, adjoined, words

    monkeypatch.setattr(families, "_family_poset", dropped)
    families.build_family.cache_clear()
    try:
        code, out, _ = run_capture(capsys, ["verify", "--max-n", "6", "--format", "json"])
    finally:
        families.build_family.cache_clear()  # no later test may see the faulty lattice
    assert code == 1
    failed = {(c["claim"], c["family"], c["n"]): c["witness"] for c in json.loads(out)["claims"] if not c["pass"]}
    assert failed.keys() == {
        ("nbb-order-independence", "C", 6),
        ("nbb-bases-predicted", "C", 6),
        ("mobius-identity", "-", 6),
    }
    assert failed[("nbb-order-independence", "C", 6)] == "canonical order disagrees with the recurrence"
    assert all(failed.values())


@pytest.mark.parametrize("coatom", ["11112", "11121", "11211", "12111", "21111"])
def test_verify_fails_a_claim_when_a_dropped_cover_breaks_the_lattice_check(capsys, monkeypatch, coatom):
    # C at n=6 loses a cover coatom < 111111 from its edge list: the meet
    # kernel, which walks the covers, finds a pair without a meet, and each
    # claim that reaches the kernel fails with that pair as its witness
    true_poset = families._family_poset

    def dropped(family, n):
        poset, adjoined, words = true_poset(family, n)
        if (family, n) == ("C", 6):
            lo, hi = poset._covers
            keep = (lo != poset.index(coatom)) | (hi != poset.index("111111"))
            assert keep.sum() == len(lo) - 1
            poset._covers = (lo[keep], hi[keep])
        return poset, adjoined, words

    monkeypatch.setattr(families, "_family_poset", dropped)
    families.build_family.cache_clear()
    try:
        code, out, err = run_capture(capsys, ["verify", "--max-n", "6", "--format", "json"])
    finally:
        families.build_family.cache_clear()  # no later test may see the faulty lattice
    assert (code, err) == (1, "")
    failed = [c for c in json.loads(out)["claims"] if not c["pass"]]
    assert failed and all(c["witness"].startswith("no unique") for c in failed)


def test_available_memory_reads_meminfo_then_physical_pages(monkeypatch):
    import io

    meminfo = "MemTotal:        8211568 kB\nMemAvailable:    7686572 kB\n"
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: io.StringIO(meminfo), raising=False)
    assert cli._available_memory() == 7686572 * 1024
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: io.StringIO("MemTotal: 1 kB\n"), raising=False)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert cli._available_memory() == physical

    def no_sysconf(name):
        raise ValueError(name)

    monkeypatch.setattr(cli.os, "sysconf", no_sysconf)
    assert cli._available_memory() is None


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: f"{c.id}:{c.family}")
def test_a_failing_claim_fails_verify_at_exactly_its_sizes(capsys, monkeypatch, claim):
    monkeypatch.setattr(claim, "check", lambda n, seed: ["x"])
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "9"])
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {claim.id} family={claim.family} n={n}  [x]" for n in claim.sizes(9)]


def test_verify_catches_a_flipped_sign_convention(capsys, monkeypatch):
    # the sparse sum negated: mobius-identity fails, with the summary as its
    # witness, at every size but n = 5 and 8, where mu = 0, and nothing else fails
    true_sum = families.sparse_signed_sum
    monkeypatch.setattr(families, "sparse_signed_sum", lambda n: -true_sum(n))
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "9"])
    assert code == 1 and out.count("FAIL") == 5
    assert [line for line in out.splitlines() if "mobius-identity" in line] == [
        f"PASS mobius-identity family=- n={n}" if mu == 0
        else f"FAIL mobius-identity family=- n={n}  [{mobius_summary(n)}; dense recurrence for B: {mu}]"
        for n, mu in zip(range(3, 10), (1, 1, 0, -1, -1, 0, 1))
    ]


# -- hasse -------------------------------------------------------------------


def test_hasse_dot(capsys):
    code, out, _ = run_capture(capsys, ["hasse", "--family", "C", "--n", "3"])
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert out.count("->") == 4
    assert '"0̂" -> "12";' in out
    assert '"21" -> "111";' in out


def test_hasse_json(capsys):
    code, out, _ = run_capture(capsys, ["hasse", "--family", "B", "--n", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 6
    assert ["231", "1̂"] in data["covers"]
    assert ["312", "1̂"] in data["covers"]


def test_hasse_builds_no_lattice_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice checked or meet table built")

    # the one meet kernel: the lattice check and every table run it
    monkeypatch.setattr(poset_module, "_meets_with", refuse)
    # uncached, so a lattice built on the way would reach the patched kernel
    monkeypatch.setattr(cli, "build_family", families.build_family.__wrapped__)
    code, out, _ = run_capture(capsys, ["hasse", "--family", "B", "--n", "6", "--format", "json"])
    assert code == 0
    digest = "24bda3e89b0d84469da43c379998f6aa0f5f8dbef1942535df924d04ec38aee5"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_hasse_degenerate(capsys):
    code, out, _ = run_capture(capsys, ["hasse", "--family", "A", "--n", "1"])
    assert code == 0
    assert out.count("->") == 1
    assert '"0̂" -> "1";' in out


def test_hasse_output_file(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, out, _ = run_capture(capsys, ["hasse", "--family", "C", "--n", "3", "--output", str(target)])
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph hasse {")


def test_hasse_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing" / "out.dot"
    code, _, err = run_capture(capsys, ["hasse", "--family", "C", "--n", "3", "--output", str(target)])
    assert code == 2
    assert "cannot write" in err


def test_hasse_force_allows_large_c(capsys):
    code, out, _ = run_capture(capsys, ["hasse", "--family", "C", "--n", "11", "--force", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 145
    # without --force A and C stop at n=19: both are refused from n=20
    assert run_capture(capsys, ["hasse", "--family", "A", "--n", "20"])[0] == 2
    assert run_capture(capsys, ["hasse", "--family", "C", "--n", "20"])[0] == 2


# -- fib -----------------------------------------------------------------------


def test_fib_text(capsys):
    code, out, _ = run_capture(capsys, ["fib", "--n", "4", "--eval", "-1"])
    assert code == 0
    assert "F_4(q) = 1 + 2*q" in out
    assert "H_4(q) = 1 + 2*q" in out
    assert "H = F" in out
    assert "F_4(-1) = -1" in out


def test_fib_text_n6(capsys):
    code, out, _ = run_capture(capsys, ["fib", "--n", "6"])
    assert code == 0
    assert "F_6(q) = 1 + 4*q + 3*q^2" in out


def test_fib_json(capsys):
    code, out, _ = run_capture(capsys, ["fib", "--n", "6", "--format", "json", "--eval", "1"])
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 6,
        "fib": [1, 4, 3],
        "sparse_generating": [1, 4, 3],
        "equal": True,
        "eval_at": 1,
        "value": 8,
    }


def test_fib_rejects_bad_n(capsys):
    assert run_capture(capsys, ["fib", "--n", "0"])[0] == 2


def test_fib_refuses_large_n_before_enumerating(monkeypatch):
    monkeypatch.setattr(cli, "h_poly", lambda n: pytest.fail("h_poly ran"))
    assert run_cli(["fib", "--n", str(cli.FIB_MAX_N + 1)]) == 2
    proc = subprocess.run(
        [sys.executable, "-m", "mobiuslat", "fib", "--n", "2000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "exceeds the bound" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fib_force_passes_the_bound(capsys, monkeypatch):
    # the sparse-set side is stubbed: only the gate is under test here
    monkeypatch.setattr(cli, "h_poly", cli.fib_poly)
    n = str(cli.FIB_MAX_N + 1)
    code, out, _ = run_capture(capsys, ["fib", "--n", n, "--force"])
    assert code == 0
    assert out.startswith(f"F_{n}(q) = ")
    assert out.endswith("H = F\n")


# -- parser-level ----------------------------------------------------------------


def test_no_subcommand_exits_2(capsys):
    assert run_capture(capsys, [])[0] == 2


def test_unknown_family_exits_2(capsys):
    assert run_capture(capsys, ["mobius", "--family", "D", "--n", "3"])[0] == 2


def test_unexpected_exception_is_one_line_exit_3(capsys, monkeypatch):
    def broken(n, families=("A", "B", "C")):
        raise RuntimeError("injected\nfault")

    monkeypatch.setattr(cli, "mobius_summary", broken)
    code, out, err = run_capture(capsys, ["mobius", "--family", "C", "--n", "3"])
    assert code == cli.EXIT_INTERNAL_ERROR == 3
    assert out == ""
    assert err == "mobiuslat: internal error: RuntimeError('injected\\nfault')\n"


# -- golden output -----------------------------------------------------------

# Exit code and SHA-256 of stdout for each command: refactors must keep the
# output byte for byte, and a deliberate change of output records new digests.
GOLDEN = {
    "mobius --family C --n 1..10 --format json": (0, "5c0bbf2e4541e80d10dc1dca75c82b83579e4331a48260cd49be9f07a1c12b07"),
    "mobius --family A --n 1..10": (0, "6edf275ce3e9c709b2a63706c7991f49be32d952848fb3fc7777dd3eccb1379e"),
    "mobius --family B --n 1..7": (0, "b58b97cfffc9e446dc560ecb58828950eed31cfb91c356de6158f50f08f93ddc"),
    "nbb-bases --family C --n 8 --format json --predict": (0, "61ba6fba893c069fed024760cf7403817a706f65b7b15cbd19b3df8791f0c18c"),
    "nbb-bases --family B --n 7 --format json": (0, "784dc096b112e2e6289b2540da8a5a4ac927c639d60fde08cd780bded0bd999a"),
    "hasse --family C --n 6": (0, "f39cbfd8d7d0bdaea1b7ba853400376cb77a0e78097fa9fd2afd6b01a4ea961c"),
    "hasse --family B --n 5 --format json": (0, "929706807ca898a91657cedd2750c74b9b0993a4182a96c6d44496d82e2e000f"),
    "verify --max-n 6 --format json --seed 0": (0, "53de8d699e30d9eed7408e483992e818e54e0e3a6cc62711e296d4748c43d021"),
    "mobius --family B --n 8..9": (0, "93beafb9fdb644f816539924938b3dec1a32dd49c607fbef6550fd2acd01b338"),
    "nbb-bases --family B --n 9 --format json": (0, "fd7174ea19876736e7ddb67c849b96afc62152af1fa01c4b1d583d07aa789e1f"),
    "verify --max-n 8 --format json --seed 0": (0, "33dadca5a5f26d4ef58508b73dee7c3f14bae2b3cce73bde7f58f44f1221f932"),
    "mobius --family A --n 3..10": (0, "ee50c9d9218bc9be01a704dc6c13b9313adf5cb4853169a478849cefb5d4d458"),
    "nbb-bases --family A --n 10": (0, "ee727668687a7977796e029af5ec973183bd4153e88165f9709a928972b715ab"),
    "nbb-bases --family C --n 10 --predict": (0, "61b8c8804a1648eb75fa4a3fbfc6febdf20d274faa5062c78e52b5696725846c"),
    # past the dense ceiling: n=10 matches the dense build's line, n=11 has no dense run
    "mobius --family B --n 10..11 --force": (0, "ab290fca55a9232865b6cb6999a52f64a5a5423df212034e1688e8f1c665336c"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_bytes_match_golden(capsys, command):
    code, out, _ = run_capture(capsys, command.split())
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[command]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mobiuslat", "verify", "--max-n", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert all(c["pass"] for c in data["claims"])


# A fresh interpreter imports the package, runs one command and reports its
# OS threads, its OPENBLAS_NUM_THREADS and the command's exit code.
_THREAD_PROBE = """
import json, os
import mobiuslat
from mobiuslat import cli
code = cli.main(["mobius", "--family", "B", "--n", "9"])
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"), code]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("caller_value", [None, "2"])
def test_the_package_loads_numpy_with_one_blas_thread(caller_value):
    # no code here calls BLAS: numpy is loaded with one OpenBLAS thread, and
    # the environment is left as the caller set it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    threads, value, code = json.loads(proc.stdout.splitlines()[-1])
    assert (value, code) == (caller_value, 0)
    if caller_value is None:
        assert threads == 1


def _console_script_target(name):
    """The 'module:function' that pyproject.toml declares for a console script."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None
    entry = re.search(rf"^{re.escape(name)}\s*=\s*\"([^\"]+)\"", section.group(1), re.M)
    assert entry is not None
    return entry.group(1)


def test_console_script():
    # run the declared entry point as the installed script would, without installing
    module, func = _console_script_target("mobiuslat").split(":")
    assert (module, func) == ("mobiuslat.cli", "main")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"from {module} import {func}; raise SystemExit({func}())",
         "fib", "--n", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "1 + 3*q + 1*q^2" in proc.stdout


def test_readme_library_lists_exactly_the_exports():
    # the bullets of the README's export list, less the module name leading each
    import mobiuslat

    readme = (ROOT / "README.md").read_text()
    listing = readme.split("Everything the package exports", 1)[1].split("\n\n", 2)[1]
    named = set()
    for bullet in listing.split("\n- "):
        named |= set(re.findall(r"`(\w+)`", bullet)[1:])
    assert named == set(mobiuslat.__all__)
    assert all(hasattr(mobiuslat, name) for name in mobiuslat.__all__)
