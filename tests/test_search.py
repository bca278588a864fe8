import dataclasses
import hashlib
import math
import random
import types
from fractions import Fraction

import pytest

import hypmoduli.certify as certify
import hypmoduli.search as search
from hypmoduli.certify import Status, classify_pattern, refute
from hypmoduli.patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    canonical_order,
    compatible_orders,
    enumerate_patterns,
)
from hypmoduli.published import published_witnesses
from hypmoduli.search import (
    Exhausted,
    Found,
    SamplerConfig,
    canonical_witness,
    concatenate,
    constructive_witness,
    derive_seed,
    mc_search,
    transport,
    witness_for,
)
from hypmoduli.symmetry import apply_group

SEED = 20260823


def couple(comp, order):
    return Couple(SignPattern.parse(comp), ModuliOrder(order))


def test_sampler_config_validation():
    SamplerConfig(seed=1, budget=1)
    with pytest.raises(ValueError):
        SamplerConfig(budget=0)


def test_derive_seed_stable_and_couple_dependent():
    c1 = couple("2,2,2,1", "NPPNNP")
    c2 = couple("2,2,2,1", "PNPNPN")
    assert derive_seed(5, c1) == derive_seed(5, c1)
    assert derive_seed(5, c1) != derive_seed(6, c1)
    assert derive_seed(5, c1) != derive_seed(5, c2)
    assert 0 <= derive_seed(5, c1) < 2**64


def test_mc_search_finds_realizable_couple():
    out = mc_search(couple("2,2,2,1", "NPPNNP"), SamplerConfig(seed=SEED, budget=50_000))
    assert isinstance(out, Found)
    out.witness.validate()
    assert out.witness.couple == couple("2,2,2,1", "NPPNNP")
    assert out.witness.provenance.startswith(f"mc-search(seed={SEED},")
    assert out.witness.seed == SEED
    assert 1 <= out.iterations <= 50_000


def test_mc_search_exhausts_on_non_realizable_couple():
    target = couple("2,2,2,1", "NNNPPP")
    out = mc_search(target, SamplerConfig(seed=SEED, budget=3000))
    assert isinstance(out, Exhausted)
    assert out.couple == target and out.budget == 3000


def test_mc_search_rigid_order_hits_almost_immediately():
    out = mc_search(couple("2,2,2,1", "PNPNPN"), SamplerConfig(seed=SEED, budget=50))
    assert isinstance(out, Found)
    assert out.iterations <= 5


def test_mc_search_rejects_incompatible_couple():
    with pytest.raises(ValueError, match="incompatible"):
        mc_search(couple("2,2,2,1", "PPPPPP"), SamplerConfig(seed=SEED, budget=10))


def test_mc_search_deterministic():
    cfg = SamplerConfig(seed=SEED, budget=50_000)
    a = mc_search(couple("2,1,2,2", "PNNPPN"), cfg)
    b = mc_search(couple("2,1,2,2", "PNNPPN"), cfg)
    assert a == b
    assert isinstance(a, Found)


# Outcomes recorded before the draw helpers were rewritten for speed.  Any
# change to the draws' arithmetic or RNG use moves them, and with them every
# stored seed-reproducible witness.  The first field names the sampler they
# were recorded under: "mixed", plain and spread draws alternating.
PINNED_MC = [
    ("mixed", "4,3", "NNNNPN", 5000, 558, (
        "-14741861/1000000", "-152299/10000", "-4222291/250000",
        "-20581383/1000000", "21901317/1000000", "-265428891/500000")),
    ("mixed", "3,2,2", "PNNNNP", 5000, 619, (
        "176553/1000000", "-24431/50000", "-534781/1000000",
        "-558883/1000000", "-590087/1000000", "163139/250000")),
    ("mixed", "2,2,2,1", "NNNPPP", 3000, None, 3000),
]


@pytest.mark.parametrize("sampler,comp,order,budget,iterations,expected", PINNED_MC)
def test_mc_search_pinned_outcomes(sampler, comp, order, budget, iterations, expected):
    out = mc_search(couple(comp, order), SamplerConfig(seed=SEED, budget=budget))
    if iterations is None:
        assert isinstance(out, Exhausted)
        assert out.budget == expected
    else:
        assert isinstance(out, Found)
        assert out.iterations == iterations
        assert out.witness.roots.roots == tuple(Fraction(r) for r in expected)


def test_mc_search_outcomes_over_every_degree_6_couple():
    # recorded from earlier implementations of the sampler, not from this
    # one; any change to the draws' arithmetic, RNG use, skip rule or
    # counts moves the hash
    cfg = SamplerConfig(seed=11, budget=300)
    text, found = [], 0
    for changes in range(7):
        for sp in enumerate_patterns(6, changes):
            for order in compatible_orders(sp):
                out = mc_search(Couple(sp, order), cfg)
                if isinstance(out, Found):
                    found += 1
                    tail = f"{out.iterations}\t{out.witness.roots}"
                else:
                    tail = f"-\t{out.budget}"
                text.append(f"{sp}\t{order.letters}\t{tail}\n")
    assert len(text) == 924
    assert found == 240
    digest = hashlib.sha256("".join(text).encode()).hexdigest()
    assert digest == "2ecf6a4197c496ccfbd2e1d0f7f6439ffb87f12f61299fcd77ac510d99d8603e"


def _plain_expansion(roots):
    # multiply in one root at a time
    coeffs = [1.0]
    for r in roots:
        coeffs = [c - p * r for c, p in zip(coeffs + [0.0], [0.0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("d", range(1, 9))
def test_sign_filter_agrees_with_plain_expansion(d):
    # kernel iteration 0 is a plain draw of its d moduli from the scripted
    # rand, so the filter sees exactly the test's moduli
    rng = random.Random(d)
    scan = search._scan(d)
    hits = zeros = 0
    for trial in range(3000):
        draws = [rng.random() * 10 ** (3 * rng.random()) for _ in range(d)]
        if trial % 7 == 0:  # distinct small integers make exact zero coefficients
            draws = [float(m) for m in rng.sample(range(1, d + 3), d)]
        moduli = sorted(draws)
        units = tuple(rng.choice((1.0, -1.0)) for _ in range(d))
        coeffs = _plain_expansion([m * u for m, u in zip(moduli, units)])
        signs = (1,) + tuple(-1 if c < 0 else 1 for c in [rng.random() - 0.5 for _ in range(d)])
        if trial % 2 == 0:  # the roots' own pattern, so that hits occur
            signs = tuple(-1 if c < 0 else 1 for c in coeffs)
        expected = all(c != 0.0 and (c > 0) == (s > 0) for c, s in zip(coeffs, signs))
        hits += expected
        zeros += 0.0 in coeffs
        rand = iter(draws).__next__
        assert scan(rand, units, signs, 0, 1) == ((0, moduli) if expected else (1, None))
    assert hits > 0
    if d >= 3:  # two roots cannot cancel without sharing a modulus
        assert zeros > 0


def test_scan_skips_degenerate_draws_and_keeps_spread_parity():
    # roots 0.1 < 0.2, both positive: x^2 - 0.3x + 0.02 has signs + - +
    signs, units = (1, -1, 1), (1.0, 1.0)
    scan = search._scan(2)
    rest = iter([
        0.0, 0.5,            # iteration 0, plain: a zero modulus
        0.3, 0.3, 0.0, 0.0,  # iteration 1, spread by 10**0: a repeated modulus
        0.2, 0.1,            # iteration 2, plain: a hit
    ])
    assert scan(rest.__next__, units, signs, 0, 10) == (2, [0.1, 0.2])
    assert next(rest, None) is None
    # iteration 3 is spread whatever the iterations before it did
    rest = iter([0.1, 0.2, 0.0, 1.0])
    assert scan(rest.__next__, units, signs, 3, 10) == (3, [0.1, 200.0])
    assert next(rest, None) is None


def _script_mc_draws(monkeypatch, values):
    # every random.Random that mc_search seeds replays `values`
    rest = iter(values)

    class Scripted:
        def __init__(self, seed):
            self.random = rest.__next__

    monkeypatch.setattr(search, "random", types.SimpleNamespace(Random=Scripted))
    return rest


def test_degenerate_draws_spend_their_iteration(monkeypatch):
    # (++-, NP) is a rigid order with another pattern: every draw misses,
    # and the budget counts the degenerate draws too
    rest = _script_mc_draws(monkeypatch, [
        0.0, 0.5,            # iteration 0, plain: skipped
        0.3, 0.3, 0.0, 0.0,  # iteration 1, spread: skipped
        0.2, 0.1,            # iteration 2, plain: a sign miss
        0.2, 0.1, 0.5, 0.5,  # iteration 3, spread: a sign miss
        0.4, 0.7,            # iteration 4, plain: a sign miss
    ])
    out = mc_search(couple("2,1", "NP"), SamplerConfig(budget=5))
    assert out == Exhausted(couple("2,1", "NP"), 5)
    assert next(rest, None) is None


def test_mc_search_resumes_after_a_float_lie(monkeypatch):
    # in floats the roots a, b, e, -c with c just above a + b + e carry
    # + - - + -, but the exact x^3 coefficient vanishes, and that of their
    # 6-decimal rounding is positive
    a, b, e, c = 0.39625196905577054, 0.6505543886775631, 0.7501694963351592, 1.7969758540684928
    rest = _script_mc_draws(monkeypatch, [
        a, b, e, c,                        # iteration 0, plain: the float lie
        a, b, e, 1.7, 0.0, 0.0, 0.0, 0.0,  # iteration 1, spread by 10**0: a hit
    ])
    target = couple("1,2,1,1", "PPPN")
    assert search._scan(4)(
        iter([a, b, e, c]).__next__, (1.0, 1.0, 1.0, -1.0), target.sp.signs, 0, 1
    )[1] == [a, b, e, c]
    out = mc_search(target, SamplerConfig(budget=2))
    assert isinstance(out, Found) and out.iterations == 2
    assert out.witness.couple == target
    assert out.witness.provenance == "mc-search(seed=0,iteration=2)"
    assert next(rest, None) is None
    # iteration 1 misses instead: x^4 + 0.3 x^3 + ... has the wrong x^3 sign
    _script_mc_draws(monkeypatch, [a, b, e, c, 0.9, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
    assert mc_search(target, SamplerConfig(budget=2)) == Exhausted(target, 2)


def test_mc_search_rejects_a_hit_whose_rounding_is_no_witness(monkeypatch):
    # roots +a, -b with a < b realize (++-, PN) exactly, but only the third
    # hit keeps that couple at six decimals
    rest = _script_mc_draws(monkeypatch, [
        0.1000001, 0.1000002,          # iteration 0, plain: rounds to a tie
        0.0000004, 0.5, 0.0, 0.0,      # iteration 1, spread by 10**0: rounds to a zero root
        0.2, 0.5,                      # iteration 2, plain: a witness
    ])
    target = couple("2,1", "PN")
    out = mc_search(target, SamplerConfig(budget=3))
    assert isinstance(out, Found) and out.iterations == 3
    assert out.witness.roots.roots == (Fraction(1, 5), Fraction(-1, 2))
    assert next(rest, None) is None


def _reference_hits(rng, d, units, signs, budget):
    # the kernel spelled out: plain and spread draws alternating by index,
    # a set for the degeneracy test, the plain expansion for the signs
    top = math.log10(1000.0)
    hits = []
    for index in range(budget):
        moduli = [rng.random() for _ in range(d)]
        if index % 2:
            moduli = [m * 10 ** (top * rng.random()) for m in moduli]
        moduli.sort()
        if moduli[0] == 0.0 or len(set(moduli)) < d:
            continue
        coeffs = _plain_expansion([m * u for m, u in zip(moduli, units)])
        if all(c != 0.0 and (c > 0) == (s > 0) for c, s in zip(coeffs, signs)):
            hits.append((index, moduli))
    return hits


def test_scan_resumes_where_a_full_scan_would():
    target = couple("2,1,2,2", "PNNPPN")
    units = tuple(1.0 if letter == "P" else -1.0 for letter in target.order.letters)
    budget = 3000
    expected = _reference_hits(random.Random(5), 6, units, target.sp.signs, budget)
    assert len(expected) > 10
    rng, scan = random.Random(5), search._scan(6)
    start, hits = 0, []
    while True:
        index, moduli = scan(rng.random, units, target.sp.signs, start, budget)
        if moduli is None:
            break
        hits.append((index, moduli))
        start = index + 1
    assert hits == expected
    assert index == budget


@pytest.mark.parametrize("d", range(1, 9))
def test_scan_is_blind_to_negating_every_root(d):
    # float negation is exact, so negated roots give the same coefficients
    # with sign (-1)^k on q_k: a search of im(T) is one of T under another seed
    rng = random.Random(100 + d)
    hits = 0
    for trial in range(40):
        units = tuple(rng.choice((1.0, -1.0)) for _ in range(d))
        moduli = sorted(rng.random() * 10 ** (3 * rng.random()) for _ in range(d))
        coeffs = _plain_expansion([m * u for m, u in zip(moduli, units)])
        sp = SignPattern(tuple(-1 if c < 0 else 1 for c in coeffs))
        flipped = (tuple(-u for u in units), apply_group("im", sp).signs)
        seed, start = rng.getrandbits(32), rng.randrange(2)
        runs = [
            search._scan(d)(random.Random(seed).random, u, signs, start, 200)
            for u, signs in ((units, sp.signs), flipped)
        ]
        assert runs[0] == runs[1]
        hits += runs[0][1] is not None
    assert hits > 0


def test_concatenate_positive_root():
    parent = witness_for(couple("2,2,2", "NNPPN"), SamplerConfig(seed=SEED, budget=100_000))
    assert parent is not None
    child = concatenate(parent, "P")
    child.validate()
    assert child.couple == couple("2,2,2,1", "PNNPPN")
    assert child.provenance == f"concatenation({parent.couple})"
    # the new root has strictly smallest modulus
    assert min(abs(r) for r in child.roots.roots) not in {abs(r) for r in parent.roots.roots}


def test_concatenate_negative_root_repeats_last_sign():
    parent = constructive_witness(couple("1,2,2,1", "PNPNP"))
    assert str(parent.couple.sp.composition()) == "1,2,2,1"
    child = concatenate(parent, "N")
    child.validate()
    assert child.couple == couple("1,2,2,2", "NPNPNP")


def test_concatenate_rejects_bad_sign():
    parent = constructive_witness(couple("2,1", "PN"))
    with pytest.raises(ValueError, match="root_sign"):
        concatenate(parent, "Q")


def test_concatenate_on_a_tampered_parent_raises():
    """`concatenate` does not re-validate its parent, yet a parent whose
    claimed couple its roots do not realize never yields a child: every
    other order of the true pattern, and every other pattern of the true
    order, raises ValueError for both new root signs."""
    parent = constructive_witness(couple("1,2,2,1", "PNPNP"))
    sp, order = parent.couple.sp, parent.couple.order
    claims = [Couple(sp, o) for o in compatible_orders(sp) if o != order]
    claims += [
        Couple(p, order)
        for changes in range(6)
        for p in enumerate_patterns(5, changes)
        if p != sp and order in compatible_orders(p)
    ]
    assert len(claims) > 10
    for claim in claims:
        tampered = dataclasses.replace(parent, couple=claim)
        for root_sign in "PN":
            with pytest.raises(ValueError, match="epsilon underflow"):
                concatenate(tampered, root_sign)


def test_transport_im_and_involution():
    w = next(x for x in published_witnesses() if x.couple == couple("2,1,2,2", "PNNPPN"))
    moved = transport(w, "im")
    moved.validate()
    assert moved.couple == apply_group("im", w.couple)
    assert moved.couple.order == ModuliOrder("NPPNNP")
    back = transport(moved, "im")
    assert back.couple == w.couple
    assert back.roots == w.roots


def test_transport_ir_inverts_roots():
    w = next(x for x in published_witnesses() if x.couple == couple("2,2,2,1", "NPPNNP"))
    moved = transport(w, "ir")
    moved.validate()
    assert moved.couple == couple("1,2,2,2", "PNNPPN")
    assert sorted(moved.roots.roots) == sorted(1 / r for r in w.roots.roots)


def test_transport_rejects_identity():
    w = constructive_witness(couple("2,1", "PN"))
    with pytest.raises(ValueError):
        transport(w, "id")


def test_canonical_witness_chain():
    for comp in ("3,1,2,1", "2,2,2,1", "1,6", "2,3,1,2"):
        sp = SignPattern.parse(comp)
        w = canonical_witness(sp)
        w.validate()
        assert w.couple == Couple(sp, canonical_order(sp))


def test_constructive_witness_builds_exactly_the_canonical_couples():
    for d in range(1, 6):
        for changes in range(d + 1):
            for sp in enumerate_patterns(d, changes):
                for order in compatible_orders(sp):
                    target = Couple(sp, order)
                    w = constructive_witness(target)
                    if order != canonical_order(sp):
                        assert w is None, target
                        continue
                    w.validate()
                    assert w.couple == target and w == canonical_witness(sp)


def test_witness_for_stage_store():
    w = next(iter(published_witnesses()))
    store = {w.couple: w}
    assert witness_for(w.couple, store=store) is w


def test_witness_for_stage_rigid_and_canonical():
    w = witness_for(couple("2,2,2,1", "PNPNPN"))
    assert w is not None and w == canonical_witness(SignPattern.parse("2,2,2,1"))
    sp = SignPattern.parse("3,2,1,1")
    w = witness_for(Couple(sp, canonical_order(sp)))
    assert w is not None and w.provenance.startswith("concatenation(")
    w.validate()


def test_witness_for_stage_sibling_transport():
    stored = next(x for x in published_witnesses() if x.couple == couple("2,2,2,1", "NPPNNP"))
    store = {stored.couple: stored}
    target = apply_group("ir", stored.couple)
    assert target == couple("1,2,2,2", "PNNPPN")
    # im and ir coincide on this size-2 orbit, so either element may carry it
    w = witness_for(target, store=store)
    assert w is not None and w.provenance.startswith("symmetry-transport(")
    w.validate()
    assert w.couple == target


def test_witness_for_stage_concat_parent_recursion():
    w = witness_for(couple("2,2,2,1", "PNNPPN"), SamplerConfig(seed=SEED, budget=100_000))
    assert w is not None
    w.validate()
    assert w.couple == couple("2,2,2,1", "PNNPPN")
    assert w.provenance.startswith("concatenation(")


def test_witness_for_stage_mc_fallback_and_none():
    target = couple("2,2,2,1", "NPPNNP")
    cfg = SamplerConfig(seed=SEED, budget=100_000)
    w = witness_for(target, cfg)
    assert w is not None and w.couple == target and w.seed == SEED
    w.validate()
    # Monte Carlo ran on the target itself, or on an orbit member whose
    # witness was carried over
    if not w.provenance.startswith("mc-search("):
        assert w.provenance.startswith("symmetry-transport(")
        carried = []
        for g in ("im", "ir", "imir"):
            out = mc_search(apply_group(g, target), cfg)
            if isinstance(out, Found):
                carried.append(transport(out.witness, g))
        assert w in carried
    assert witness_for(couple("2,2,2,1", "NNNPPP"), SamplerConfig(seed=SEED, budget=500)) is None


def test_witness_for_rejects_incompatible():
    with pytest.raises(ValueError, match="incompatible"):
        witness_for(couple("2,2,2,1", "PPPPPP"))


def _record_mc_targets(monkeypatch) -> list[Couple]:
    targets = []
    original = search.mc_search

    def recording(target, cfg):
        targets.append(target)
        return original(target, cfg)

    monkeypatch.setattr(search, "mc_search", recording)
    return targets


def test_concat_parent_search_skips_refuted_parents(monkeypatch):
    targets = _record_mc_targets(monkeypatch)
    cfg = SamplerConfig(seed=SEED, budget=1_000_000)
    store = {w.couple: w for w in published_witnesses()}
    for comp in ("3,1,2,1", "2,1,2,2", "2,2,2,1", "3,2,1,1"):
        classify_pattern(SignPattern.parse(comp), cfg, store)
    assert targets
    assert [t for t in targets if refute(t) is not None] == []
    # the three parents that used to exhaust 1M draws each are refuted
    for comp, order in (("2,1", "NP"), ("2,2,1", "NPNP"), ("2,2,1", "NNPP")):
        assert refute(couple(comp, order)) is not None


def _im_pair(c: Couple) -> Couple:
    return min(c, apply_group("im", c), key=str)


def test_concat_parent_search_keeps_undecided_parents(monkeypatch):
    targets = _record_mc_targets(monkeypatch)
    # frontier exclusion seals the parent, but no per-couple certificate
    # refutes it, so the concatenation search still asks Monte Carlo
    parent = couple("2,4,1", "PPNNNN")
    assert refute(parent) is None
    child = couple("2,4,2", "NPPNNNN")
    witness_for(child, SamplerConfig(seed=0, budget=200))
    # Monte Carlo runs once per im-pair, on its representative
    assert targets[0] == _im_pair(parent)
    assert _im_pair(child) in targets
    assert targets[-1] in (_im_pair(child), _im_pair(apply_group("ir", child)))


def test_stored_mc_ancestor_lifts_without_sampling(monkeypatch):
    parent = couple("2,2,2", "NNPPN")
    found = mc_search(parent, SamplerConfig(seed=SEED, budget=100_000))
    assert isinstance(found, Found) and found.witness.provenance.startswith("mc-search(")
    targets = _record_mc_targets(monkeypatch)
    sp = SignPattern.parse("2,2,2,1")
    table = classify_pattern(sp, SamplerConfig(seed=SEED, budget=10_000), {parent: found.witness})
    verdict = table[ModuliOrder("PNNPPN")]
    assert verdict.status is Status.REALIZABLE
    assert verdict.evidence.provenance == f"concatenation({parent})"
    assert targets
    assert Couple(sp, ModuliOrder("PNNPPN")) not in targets
    assert parent not in targets


def _degree_6_sweep(cfg, store):
    for changes in range(7):
        for sp in enumerate_patterns(6, changes):
            classify_pattern(sp, cfg, store)


def test_sweep_searches_each_im_pair_once_on_its_representative(monkeypatch):
    targets = _record_mc_targets(monkeypatch)
    store = {w.couple: w for w in published_witnesses()}
    _degree_6_sweep(SamplerConfig(seed=0, budget=10_000), store)
    assert targets
    assert len(set(targets)) == len(targets)
    assert all(t == _im_pair(t) for t in targets)


def test_witness_for_does_not_depend_on_earlier_searches(monkeypatch):
    # each couple the sweep leaves to witness_for gets the same witness after
    # the whole sweep as with no search made before it; the sweep decides
    # every other couple without one, by construction or by refutation
    cfg = SamplerConfig(seed=0, budget=10_000)
    store = {w.couple: w for w in published_witnesses()}
    asked = []

    def recording(target, cfg, store):
        asked.append(target)
        return witness_for(target, cfg, store)

    monkeypatch.setattr(certify, "witness_for", recording)
    _degree_6_sweep(cfg, store)
    after_sweep = [witness_for(c, cfg, store) for c in asked]
    # frontier exclusion seals every non-realizable couple before the
    # search, so every couple asked gets a witness
    assert sum(w is None for w in after_sweep) == 0
    for c, w in zip(asked, after_sweep):
        search._im_pair_search.cache_clear()
        alone = witness_for(c, cfg, store)
        assert (alone is None) == (w is None), c
        if w is not None:
            assert (alone.roots, alone.provenance) == (w.roots, w.provenance), c
