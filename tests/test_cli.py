"""End-to-end exercises of the command-line interface through main(argv)."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hypmoduli

from hypmoduli import certify, search
from hypmoduli.certify import ContradictionError, Status, Verdict, refute
from hypmoduli.cli import _sampler_config, build_parser, main
from hypmoduli.patterns import Couple, ModuliOrder, SignPattern
from hypmoduli.poly import _witness_line, append_witnesses, load_witnesses
from hypmoduli.published import published_witnesses
from hypmoduli.results import builtin_table
from hypmoduli.search import SamplerConfig, transport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(hypmoduli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "hypmoduli", "canonical", "2,2,2,1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, "canonical", "2,2,2,1")[1]


# ------------------------------------------------------- informational


def test_enumerate_three_change_stratum(capsys):
    rc, out, _ = run(capsys, "enumerate", "--degree", "6", "--changes", "3")
    assert rc == 0
    assert "(3,1,2,1)" in out
    assert out.splitlines()[-1] == "20 patterns, 20 compatible orders each"
    assert len(out.splitlines()) == 21


def test_enumerate_with_orders(capsys):
    rc, out, _ = run(capsys, "enumerate", "--degree", "3", "--changes", "1", "--orders")
    assert rc == 0
    assert out == (
        "+++-  (3,1)\n"
        "    PNN  [0,2]\n"
        "    NPN  [1,1]\n"
        "    NNP  [2,0]\n"
        "++--  (2,2)\n"
        "    PNN  [0,2]\n"
        "    NPN  [1,1]\n"
        "    NNP  [2,0]\n"
        "+---  (1,3)\n"
        "    PNN  [0,2]\n"
        "    NPN  [1,1]\n"
        "    NNP  [2,0]\n"
        "3 patterns, 3 compatible orders each\n"
    )


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
@pytest.mark.parametrize("degree", ["-1", "0"])
def test_enumerate_and_orbits_reject_degree_below_one(capsys, command, degree):
    rc, out, err = run(capsys, command, "--degree", degree, "--changes", "0")
    assert rc == 2
    assert out == ""
    assert err == "error: degree must be at least 1\n"


def test_orbits_three_change_stratum(capsys):
    rc, out, _ = run(capsys, "orbits", "--degree", "6", "--changes", "3")
    assert rc == 0
    assert out == (
        "size 2: 4,1,1,1; 1,1,1,4\n"
        "size 4: 3,1,2,1; 2,3,1,1; 1,1,3,2; 1,2,1,3\n"
        "size 4: 3,1,1,2; 2,1,1,3; 1,1,4,1; 1,4,1,1\n"
        "size 2: 3,2,1,1; 1,1,2,3\n"
        "size 2: 2,1,3,1; 1,3,1,2\n"
        "size 4: 2,1,2,2; 2,2,1,2; 1,2,3,1; 1,3,2,1\n"
        "size 2: 2,2,2,1; 1,2,2,2\n"
    )


def test_canonical_command(capsys):
    rc, out, _ = run(capsys, "canonical", "+----+-")
    assert rc == 0
    assert out == "+----+- (1,4,1,1): canonical order PPNNNP [0,0,3,0] [canonical pattern]\n"
    rc, out, _ = run(capsys, "canonical", "+++-++-")
    assert rc == 0
    assert out == "+++-++- (3,1,2,1): canonical order PNPPNN [0,1,0,2] [non-canonical pattern]\n"


def test_canonical_accepts_composition_form(capsys):
    rc, out, _ = run(capsys, "canonical", "1,4,1,1")
    assert rc == 0
    assert "canonical order PPNNNP" in out


def test_rigid_command(capsys):
    rc, out, _ = run(capsys, "rigid", "PNPNPN")
    assert rc == 0
    assert out == "PNPNPN: rigid, only sign pattern ++--++- (2,2,2,1)\n"
    rc, out, _ = run(capsys, "rigid", "PPNNPN")
    assert rc == 0
    assert out == "PPNNPN: not rigid\n"


def test_rigid_accepts_uvector_form(capsys):
    rc, out, _ = run(capsys, "rigid", "[1,1,1,0]")
    assert rc == 0
    assert out == "NPNPNP: rigid, only sign pattern +--++-- (1,2,2,2)\n"


@pytest.mark.parametrize(
    "argv", [("rigid", "[1,1,1,0"), ("certify", "--order", "[3,0,0,0")]
)
def test_unclosed_uvector_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: bad uvector")


def test_orbit_of_command(capsys):
    rc, out, _ = run(capsys, "orbit-of", "+----+-")
    assert rc == 0
    assert out == "orbit of 1,4,1,1 (size 4): 3,1,1,2; 2,1,1,3; 1,1,4,1; 1,4,1,1\n"


def test_stats_degree_6(capsys):
    rc, out, _ = run(capsys, "stats", "--degree", "6")
    assert rc == 0
    assert out == (
        "degree 6: realizable/total ratio = 19/66\n"
        "  changes 0: 1 realizable of 1\n"
        "  changes 1: 18 realizable of 36\n"
        "  changes 2: 69 realizable of 225\n"
        "  changes 3: 90 realizable of 400\n"
        "  changes 4: 69 realizable of 225\n"
        "  changes 5: 18 realizable of 36\n"
        "  changes 6: 1 realizable of 1\n"
        "  three-change orbit products: 15x2 + 6x4 + 5x4 + 4x2 + 1x4 + 1x2 + 1x2 = 90\n"
        "  ratio sequence: 1, 2/3, 3/5, 3/7, 47/126, 19/66\n"
        "  successive ratios: 2/3, 9/10, 5/7, 47/54, 399/517\n"
    )


def test_stats_lower_degree_and_bad_degree(capsys):
    rc, out, _ = run(capsys, "stats", "--degree", "4")
    assert rc == 0
    assert out == (
        "degree 4: realizable/total ratio = 3/7\n"
        "  changes 0: 1 realizable of 1\n"
        "  changes 1: 8 realizable of 16\n"
        "  changes 2: 12 realizable of 36\n"
        "  changes 3: 8 realizable of 16\n"
        "  changes 4: 1 realizable of 1\n"
        "  ratio sequence: 1, 2/3, 3/5, 3/7\n"
        "  successive ratios: 2/3, 9/10, 5/7\n"
    )
    rc, _, err = run(capsys, "stats", "--degree", "7")
    assert rc == 2
    assert err.startswith("error:")


# ------------------------------------------------------------- search


def test_search_returns_stored_witness(tmp_path, capsys):
    out_path = tmp_path / "w.tsv"
    rc, out, _ = run(
        capsys, "search", "--pattern", "2,2,2,1", "--order", "NPPNNP",
        "--seed", "7", "--budget", "1000", "--out", str(out_path),
    )
    assert rc == 0
    assert out.endswith("\n")
    fields = out.strip().split("\t")
    assert fields[:2] == ["++--++-", "NPPNNP"]
    assert fields[-2:] == ["published-example", "-"]
    stored = load_witnesses(out_path)
    assert len(stored) == 1
    assert stored[0].couple == Couple(SignPattern.parse("++--++-"), ModuliOrder("NPPNNP"))
    stored[0].validate()


@pytest.mark.parametrize(
    "argv",
    [("search", "--pattern", "2,2,2,1", "--order", "NPPNNP"),
     ("transport", "--g", "im", "--witness", "STORE")],
)
def test_out_refuses_a_file_that_is_not_a_witness_store(tmp_path, capsys, argv):
    store = tmp_path / "store.tsv"
    append_witnesses(store, published_witnesses()[:1])
    verdicts = tmp_path / "v.tsv"
    rc = main(["decide", "--pattern", "2,2,2,1", "--budget", "1000", "--out", str(verdicts)])
    assert rc == 0
    before = verdicts.read_bytes()
    assert before.startswith(b"hypmoduli-verdicts v1\n")
    argv = [str(store) if a == "STORE" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--out", str(verdicts))
    assert rc == 2
    assert out == ""
    assert err == f"error: {verdicts}: unrecognized witness store header: 'hypmoduli-verdicts v1'\n"
    assert verdicts.read_bytes() == before


def test_out_appends_after_a_store_without_a_trailing_newline(tmp_path, capsys):
    store = tmp_path / "s.tsv"
    store.write_text("hypmoduli-witness-store v1")
    rc, out, _ = run(
        capsys, "search", "--pattern", "2,2,2,1", "--order", "NPPNNP", "--out", str(store)
    )
    assert rc == 0
    assert store.read_text() == "hypmoduli-witness-store v1\n" + out
    rc, out, err = run(capsys, "transport", "--witness", str(store), "--g", "im")
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 1


def test_search_keeps_the_seed_of_a_transported_mc_witness(tmp_path, capsys):
    # (5,2, PNNNNN) is not its own im-pair representative: Monte Carlo runs
    # on its im image, and the witness found there is carried over
    out_path = tmp_path / "s.tsv"
    rc, out, _ = run(
        capsys, "search", "--pattern", "5,2", "--order", "PNNNNN",
        "--seed", "5", "--out", str(out_path),
    )
    assert rc == 0
    fields = out.strip().split("\t")
    assert fields[-2:] == ["symmetry-transport(im,(1,1,1,1,2,1, NPPPPP))", "5"]
    [stored] = load_witnesses(out_path)
    assert (stored.provenance, stored.seed) == (fields[-2], 5)
    stored.validate()


def test_search_budget_exhausted(capsys):
    # realizable, but no witness turns up within so small a budget
    rc, out, err = run(
        capsys, "search", "--pattern", "2,3,2", "--order", "PPNNNN",
        "--budget", "500", "--seed", "1",
    )
    assert rc == 3
    assert out == ""
    assert "no witness found for (2,3,2, PPNNNN) within budget 500" in err


def test_search_rejects_an_incompatible_couple(capsys):
    # the pattern has three sign changes, so its orders hold three P
    rc, out, err = run(capsys, "search", "--pattern", "3,1,2,1", "--order", "NNNNNN")
    assert (rc, out) == (2, "")
    assert err == "error: incompatible couple (3,1,2,1, NNNNNN)\n"


@pytest.mark.parametrize(
    "pattern, order, evidence",
    [("2,2,2,1", "NNPPNP", "(forced-sign): q_1 forced negative on NNPPNP by its gap expansion"),
     ("2,2,2,1", "NPNPNP", "(rigid-order): +--++--"),
     ("1,4,2", "NNNPPN", "(frontier): region {[3,0,1], [3,1,0], [4,0,0]} sealed against anchor"),
     ("2,4,1", "PNPNNN", "(frontier): region {[0,0,4], [0,1,3], [1,0,3]} sealed against "
      "anchor PNNNPN: PNPNNN|PNNPNN: boundary infeasible by gap certificate on q_1, q_4;"),
     ("3,1,2,1", "PNNNPP", "(propagation): all neighbours non-realizable: [0,2,1,0],")],
    ids=["forced-sign", "rigid-order", "frontier", "gap-certificate", "propagation"],
)
def test_search_reports_a_refuted_couple_without_sampling(
    capsys, monkeypatch, pattern, order, evidence
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("mc_search ran on a refuted couple")

    monkeypatch.setattr(search, "mc_search", no_sampling)
    rc, out, err = run(
        capsys, "search", "--pattern", pattern, "--order", order, "--budget", str(10**12),
    )
    assert (rc, out) == (3, "")
    assert err.startswith(f"({pattern}, {order}) is non-realizable {evidence}")
    assert err.count("\n") == 1


def test_search_samples_no_couple_that_exclusion_proves(capsys, monkeypatch):
    # search proves every NonRealizable degree-6 couple of the encoded table
    # that no certificate refutes by exclusion, without sampling
    class Sampled(Exception):
        pass

    def sampled(*args, **kwargs):
        raise Sampled

    monkeypatch.setattr(search, "mc_search", sampled)
    table = builtin_table(6)
    kinds, encoded_only = Counter(), 0
    for couple in table.entries:
        if table.status(couple) is not Status.NON_REALIZABLE or refute(couple):
            continue
        try:
            rc, out, err = run(
                capsys, "search", "--pattern", str(couple.sp), "--order", couple.order.letters
            )
        except Sampled:
            encoded_only += 1
            continue
        assert (rc, out) == (3, "")
        kinds[err.split(" is non-realizable (")[1].split(")")[0]] += 1
    assert encoded_only == 0
    assert kinds == {"frontier": 28, "propagation": 8}


def test_search_refuses_a_stored_witness_for_a_refuted_couple(capsys, monkeypatch):
    # only a wrong certificate could refute a couple with a valid witness;
    # search must report the contradiction rather than pick one side
    realizable = Couple(SignPattern.parse("2,2,2,1"), ModuliOrder("NPPNNP"))
    monkeypatch.setattr(
        certify, "refute", lambda c: Verdict(c, Status.NON_REALIZABLE, "forced-sign", "stub")
    )
    rc, out, err = run(capsys, "search", "--pattern", "2,2,2,1", "--order", "NPPNNP")
    assert (rc, out) == (1, "")
    assert err == f"CONTRADICTION: {realizable} has both a witness and forced-sign evidence\n"


# ------------------------------------------------------------ certify


def test_certify_flags_contradicting_pattern(capsys):
    rc, out, _ = run(
        capsys, "certify", "--order", "NNPNPP", "--coeff", "5",
        "--pattern", "++-++--", "--samples", "200", "--seed", "3",
    )
    assert rc == 0
    assert "q_5 forced negative on NNPNPP" in out
    assert "[contradicts 2,1,2,2]" in out


def test_certify_uvector_order_and_silence(capsys):
    rc, out, _ = run(capsys, "certify", "--order", "[3,0,0,0]", "--coeff", "5")
    assert rc == 0
    assert "on NNNPPP" in out
    rc, out, _ = run(capsys, "certify", "--order", "PNPPNN", "--coeff", "4")
    assert rc == 0
    assert out == "no forced sign (this proves nothing)\n"


def test_certify_full_scan(capsys):
    rc, out, _ = run(capsys, "certify", "--order", "PPNPNN")
    assert rc == 0
    ks = [line.split()[0] for line in out.splitlines()]
    assert ks == ["q_0", "q_1", "q_3", "q_5"]
    assert out.count("by its gap expansion") == 4


@pytest.mark.parametrize("coeff", ["-1", "7"])
def test_certify_coefficient_out_of_range_exit_2(capsys, coeff):
    rc, out, err = run(capsys, "certify", "--order", "PNPPNN", "--coeff", coeff)
    assert (rc, out) == (2, "")
    assert err == f"error: coefficient index {coeff} out of range\n"


def test_certify_exits_1_on_sampled_violations(capsys, monkeypatch):
    monkeypatch.setattr("hypmoduli.cli.sample_certificate", lambda cert, samples, seed: 3)
    rc, out, err = run(capsys, "certify", "--order", "PNPPNN", "--samples", "10")
    assert (rc, out) == (1, "")
    assert err.startswith("CONTRADICTION: 3 sampled violations of q_0 forced negative on PNPPNN")
    assert err.count("\n") == 1


def test_certify_negative_samples_exit_2(capsys):
    rc, out, err = run(capsys, "certify", "--order", "NNPNPP", "--coeff", "5", "--samples", "-5")
    assert rc == 2
    assert out == ""
    assert "samples must be non-negative" in err


def test_certify_degree_mismatch(capsys):
    rc, _, err = run(capsys, "certify", "--order", "PNN", "--pattern", "++--++-")
    assert rc == 2
    assert "degrees differ" in err


# ------------------------------------------------------------- decide


def test_decide_single_pattern(tmp_path, capsys):
    argv = ["decide", "--pattern", "++--++-", "--seed", "4", "--budget", "20000"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "hypmoduli-verdicts v1"
    assert len(lines) == 21
    dead = {line.split("\t")[2] for line in lines[1:] if "NonRealizable" in line}
    assert dead == {"NPNPNP", "NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"}
    assert "++--++-\t2,2,2,1\tNPNPNP\t[1,1,1,0]\tNonRealizable\trigid-order\trigid-orders" in lines

    out_path = tmp_path / "verdicts.tsv"
    rc = main(argv + ["--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    assert out_path.read_text(encoding="utf-8") == out


def test_decide_evidence_summaries(capsys):
    rc, out, _ = run(
        capsys, "decide", "--pattern", "++--++-", "--seed", "4",
        "--budget", "20000", "--evidence",
    )
    assert rc == 0
    notes = [line for line in out.splitlines() if line.startswith("# ")]
    assert notes and any("forced" in n for n in notes)


def test_decide_all_small_degree(capsys):
    rc, out, _ = run(capsys, "decide", "--all", "--degree", "2")
    assert rc == 0
    assert out == (
        "hypmoduli-verdicts v1\n"
        "+++\t3\tNN\t[2]\tRealizable\twitness\t-\n"
        "++-\t2,1\tNP\t[1,0]\tNonRealizable\trigid-order\trigid-orders\n"
        "++-\t2,1\tPN\t[0,1]\tRealizable\twitness\t-\n"
        "+-+\t1,1,1\tPP\t[0,0,0]\tRealizable\twitness\t-\n"
        "+--\t1,2\tNP\t[1,0]\tRealizable\twitness\t-\n"
        "+--\t1,2\tPN\t[0,1]\tNonRealizable\trigid-order\trigid-orders\n"
    )


def test_decide_all_rejects_degree_below_one(capsys):
    for degree in ("0", "-1"):
        rc, out, err = run(capsys, "decide", "--all", "--degree", degree)
        assert rc == 2
        assert out == ""
        assert err == "error: degree must be at least 1\n"


def test_decide_requires_selector(capsys):
    rc, _, err = run(capsys, "decide")
    assert rc == 2
    assert "decide needs --pattern or --all" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["--pattern", "2,2,2,1", "--all"], "decide takes --pattern or --all, not both"),
     (["--pattern", "2,2,2,1", "--all", "--degree", "7"],
      "decide takes --pattern or --all, not both"),
     (["--pattern", "2,2,2,1", "--degree", "7"],
      "--degree 7 differs from the pattern's degree 6")],
    ids=["pattern-and-all", "pattern-all-and-degree", "degree-mismatch"],
)
def test_decide_rejects_conflicting_selectors(capsys, argv, message):
    rc, out, err = run(capsys, "decide", *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_decide_pattern_accepts_its_own_degree(capsys):
    rc, out, _ = run(capsys, "decide", "--pattern", "2,1", "--degree", "2")
    assert rc == 0
    assert out == (
        "hypmoduli-verdicts v1\n"
        "++-\t2,1\tNP\t[1,0]\tNonRealizable\trigid-order\trigid-orders\n"
        "++-\t2,1\tPN\t[0,1]\tRealizable\twitness\t-\n"
    )


# ------------------------------------------- verify-paper and transport


def test_verify_paper_command(capsys):
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 0
    assert "couples confirmed: 13/13" in out
    assert "COUPLE MISMATCH" not in out


def test_transport_round_trip(tmp_path, capsys):
    witness = next(
        w for w in published_witnesses()
        if w.couple == Couple(SignPattern.parse("+++-++-"), ModuliOrder("PPPNNN"))
    )
    src = tmp_path / "src.tsv"
    once = tmp_path / "once.tsv"
    twice = tmp_path / "twice.tsv"
    append_witnesses(src, [witness])

    rc, out, _ = run(capsys, "transport", "--witness", str(src), "--g", "im", "--out", str(once))
    assert rc == 0
    expected = transport(witness, "im")
    assert out == _witness_line(expected) + "\n"
    moved = load_witnesses(once)
    assert len(moved) == 1
    assert moved[0].couple == expected.couple
    assert moved[0].couple != witness.couple

    rc, _, _ = run(capsys, "transport", "--witness", str(once), "--g", "im", "--out", str(twice))
    assert rc == 0
    back = load_witnesses(twice)
    assert back[0].couple == witness.couple
    back[0].validate()


def test_transport_empty_store(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    append_witnesses(empty, [])
    rc, _, err = run(capsys, "transport", "--witness", str(empty), "--g", "ir")
    assert rc == 2
    assert "no witnesses" in err


@pytest.mark.parametrize(
    "argv",
    [("decide", "--pattern", "2,2,2,1", "--budget", "1000", "--store"),
     ("transport", "--g", "im", "--witness")],
)
def test_invalid_store_record_exit_2(tmp_path, capsys, argv):
    witness = next(
        w for w in published_witnesses()
        if w.couple == Couple(SignPattern.parse("+++-++-"), ModuliOrder("PPPNNN"))
    )
    bad = tmp_path / "bad.tsv"
    append_witnesses(bad, [witness])
    text = bad.read_text(encoding="utf-8")
    assert "\t0.39,0.4," in text
    # the stored polynomial is no longer the expansion of the roots
    bad.write_text(text.replace("\t0.39,0.4,", "\t0.38,0.4,"), encoding="utf-8")
    rc, out, err = run(capsys, *argv, str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {bad}:2: stored polynomial is not the expansion")


@pytest.mark.parametrize("field", [2, 3], ids=["root", "coefficient"])
@pytest.mark.parametrize(
    "argv",
    [("decide", "--pattern", "2,2", "--store"), ("transport", "--g", "im", "--witness")],
)
def test_zero_denominator_in_store_exit_2(tmp_path, capsys, argv, field):
    bad = tmp_path / "bad.tsv"
    append_witnesses(bad, published_witnesses()[:1])
    header, record = bad.read_text(encoding="utf-8").splitlines()
    parts = record.split("\t")
    parts[field] = "1/0," + parts[field].partition(",")[2]
    bad.write_text(f"{header}\n" + "\t".join(parts) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, *argv, str(bad))
    assert (rc, out) == (2, "")
    assert err == f"error: {bad}:2: zero denominator in '1/0'\n"


# ------------------------------------------------- sampler configuration


def _parsed(*argv):
    return build_parser().parse_args(list(argv))


def test_sampler_defaults():
    cfg = _sampler_config(_parsed("search", "--pattern", "p", "--order", "o"))
    assert cfg == SamplerConfig(seed=0, budget=100_000)
    cfg = _sampler_config(_parsed("decide", "--all", "--seed", "11", "--budget", "123"))
    assert cfg == SamplerConfig(seed=11, budget=123)
    cfg = _sampler_config(_parsed("search", "--pattern", "p", "--order", "o", "--seed", "5"))
    assert cfg == SamplerConfig(seed=5, budget=100_000)


# ------------------------------------------------------------ failures


def test_invalid_pattern_exit_2(capsys):
    rc, _, err = run(capsys, "canonical", "+*-")
    assert rc == 2
    assert err.startswith("error:")


def test_contradiction_maps_to_exit_1(monkeypatch, capsys):
    def boom(degree):
        raise ContradictionError("fabricated disagreement")

    monkeypatch.setattr("hypmoduli.cli.counts_and_ratio", boom)
    rc, _, err = run(capsys, "stats", "--degree", "6")
    assert rc == 1
    assert err.startswith("CONTRADICTION: fabricated disagreement")


def test_stats_degree_6_names_couples_only_the_table_decides(capsys, monkeypatch):
    # without gap certificates the sealed region of 2,4,1 rests on the
    # encoded table only; stats must name each such couple, not count it
    table = builtin_table(6)
    monkeypatch.setattr(certify, "gap_certificate", lambda tied: None)
    # no search can find a witness for a NonRealizable couple, so skip the
    # Monte Carlo budget it would exhaust on each
    searched = certify.witness_for

    def witness_for(couple, cfg, store):
        verdict = table.entries.get(couple)
        if verdict is not None and verdict.status is Status.NON_REALIZABLE:
            return None
        return searched(couple, cfg, store)

    monkeypatch.setattr(certify, "witness_for", witness_for)
    rc, out, err = run(capsys, "stats", "--degree", "6")
    assert (rc, out) == (1, "")
    assert err.startswith("CONTRADICTION: degree 6: ")
    assert "Traceback" not in err and err.count("\n") == 1
    for order in ("PPNNNN", "PNPNNN", "NPPNNN"):
        assert f"(2,4,1, {order}): pipeline Unknown, table NonRealizable" in err


def test_stats_degree_6_reports_a_verdict_the_table_contradicts(capsys, monkeypatch):
    encoded = builtin_table

    def flipped(d):
        table = encoded(d)
        couple = Couple(SignPattern.parse("3,1,2,1"), ModuliOrder("PPPNNN"))
        table.entries[couple] = Verdict(couple, Status.NON_REALIZABLE, "citation")
        return table

    monkeypatch.setattr("hypmoduli.results.builtin_table", flipped)
    rc, out, err = run(capsys, "stats", "--degree", "6")
    assert (rc, out) == (1, "")
    assert err == (
        "CONTRADICTION: degree 6: (3,1,2,1, PPPNNN): pipeline Realizable, "
        "table NonRealizable\n"
    )


def test_stats_reports_a_couple_left_undecided_below_degree_six(capsys, monkeypatch):
    # with no witness search, the couples only a witness decides stay Unknown
    monkeypatch.setattr(certify, "witness_for", lambda couple, cfg, store: None)
    rc, out, err = run(capsys, "stats", "--degree", "5")
    assert (rc, out) == (1, "")
    assert err == (
        "CONTRADICTION: degree 3: (2,2, PNN): pipeline Unknown; (2,2, NNP): pipeline Unknown; "
        "(1,2,1, PPN): pipeline Unknown; (1,2,1, NPP): pipeline Unknown\n"
    )
