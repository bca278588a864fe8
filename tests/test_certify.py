"""Forced-sign certificates, encoded lemmas, and the decision pipeline."""

import dataclasses
import hashlib
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from hypmoduli import certify
from hypmoduli.certify import (
    CertificateError,
    ContradictionError,
    ForcedSignCertificate,
    FrontierEvidence,
    GapCertificate,
    Status,
    TiedOrder,
    Verdict,
    classify_pattern,
    contradicting_certificate,
    forced_sign,
    frontier_exclusion,
    gap_certificate,
    propagate,
    refute,
    sample_certificate,
    settle,
    verify_certificate,
    verify_gap_certificate,
)
from hypmoduli.patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    UVector,
    canonical_order,
    compatible_orders,
    enumerate_patterns,
    order_to_uvector,
    uvector_to_order,
)
from hypmoduli.poly import RootConfiguration, Witness, WitnessError, expand, integer_product
from hypmoduli import search
from hypmoduli.published import published_witnesses
from hypmoduli.results import builtin_table
from hypmoduli.search import (
    Exhausted,
    SamplerConfig,
    constructive_witness,
)
from hypmoduli.symmetry import apply_im

SEED = 20260823
RIGID = Couple(SignPattern.parse("2,2,2,1"), ModuliOrder("PNPNPN"))


def U(*u):
    return uvector_to_order(UVector(tuple(u)))


@pytest.fixture(scope="module")
def store():
    return {w.couple: w for w in published_witnesses()}


@pytest.fixture(scope="module")
def cfg():
    return SamplerConfig(seed=SEED, budget=200_000)


# ------------------------------------------------------------ tied orders


def test_tied_order_marks_ties_in_str():
    t = TiedOrder("PPNNNP", (5,))
    assert str(t) == "PPNNN=P"
    assert t.degree == 6


def test_tied_order_validation():
    with pytest.raises(ValueError):
        TiedOrder("PPNN", (1,))  # tied ranks carry the same letter
    with pytest.raises(ValueError):
        TiedOrder("PNPN", (1, 2))  # overlapping pairs
    with pytest.raises(ValueError):
        TiedOrder("PNPN", (4,))  # no rank 5 to pair with
    TiedOrder("PNPN", (1, 3))  # disjoint opposite-letter pairs are fine


def test_wall_between_neighbours():
    t = TiedOrder.wall(U(0, 0, 3, 0), U(0, 0, 2, 1))
    assert t.letters == "PPNNNP" and t.tied == (5,)
    with pytest.raises(ValueError):
        TiedOrder.wall(U(0, 0, 3, 0), U(0, 2, 1, 0))  # two transpositions apart


# ------------------------------------------------------------ gap expansion


def _form(order, k):
    """The nonzero coefficients of q_k in the gap variables, keyed by
    exponent vector."""
    return {
        certify._exponents(key, order): c
        for key, c in certify._gap_coefficients(order)[k].items()
        if c
    }


def test_top_coefficient_monomials():
    # q_5 = -(μ1 - μ2 + μ3 - μ4 + μ5 - μ6) = s_1 + s_3 + s_5
    assert _form(ModuliOrder("PNPNPN"), 5) == {
        (0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1
    }


def test_constant_coefficient_single_monomial():
    # q_0 = -μ1μ2…μ6 (three positive roots), μ_i = s_0 + … + s_{i-1}: the
    # product has the Catalan number C_6 of monomials, all negative, and
    # its value at unit gaps is -6!
    form = _form(U(1, 1, 0, 1), 0)
    assert len(form) == 132
    assert form[(6, 0, 0, 0, 0, 0)] == -1
    assert all(c < 0 for c in form.values())
    assert sum(form.values()) == -720


def test_census_balance_for_pair_coefficient():
    # among the 15 modulus monomials of q_4 on NPNPPN, 6 are positive and 9
    # negative; in the gaps every coefficient is negative, and at unit gaps
    # (moduli 1..6) the form is the second elementary symmetric function
    order = U(1, 1, 0, 1)
    assert order.letters == "NPNPPN"
    roots = [i if ch == "P" else -i for i, ch in enumerate(order.letters, start=1)]
    products = [a * b for a, b in itertools.combinations(roots, 2)]
    assert (sum(p > 0 for p in products), sum(p < 0 for p in products)) == (6, 9)
    form = _form(order, 4)
    assert form and all(c < 0 for c in form.values())
    assert sum(form.values()) == sum(products)


def test_tied_census_drops_cancelling_monomials():
    # on PPNNN=P the tied pair's cross terms cancel: the tied forms are the
    # untied forms with the gap s_5 between ranks 5 and 6 set to zero, in
    # one gap variable fewer
    tied, plain = TiedOrder("PPNNNP", (5,)), ModuliOrder("PPNNNP")
    for k in range(7):
        at_zero_gap = Counter()
        for mu, c in _form(plain, k).items():
            if mu[5] == 0:
                at_zero_gap[mu[:5]] += c
        assert _form(tied, k) == {mu: c for mu, c in at_zero_gap.items() if c}, k


def test_gap_expansion_matches_the_root_expansion():
    """Each form of every degree-6 plain and single-tie order, evaluated at
    random positive integer gaps, equals the coefficient `integer_product`
    gives for the roots those gaps place."""
    rng = random.Random(SEED)
    base = 7
    for order in _plain_and_single_tie_orders(6):
        levels = certify._rank_levels(order)
        forms = certify._gap_coefficients(order)
        for _ in range(3):
            gaps = [rng.randint(1, 20) for _ in range(max(levels))]
            moduli = list(itertools.accumulate(gaps))
            roots = [
                moduli[lvl - 1] if ch == "P" else -moduli[lvl - 1]
                for lvl, ch in zip(levels, order.letters)
            ]
            values = [
                sum(
                    c * math.prod(g ** (key // base**i % base) for i, g in enumerate(gaps))
                    for key, c in form.items()
                )
                for form in forms
            ]
            assert values == integer_product((r, 1) for r in roots)[::-1], (order, gaps)


# ------------------------------------------------------------ forced signs


def test_forced_negative_root_sum():
    cert = forced_sign(U(2, 1, 0, 0), 5)  # NNPNPP
    assert cert is not None and cert.sign == -1
    assert verify_certificate(cert)


def test_forced_negative_pair_coefficient():
    cert = forced_sign(U(1, 1, 0, 1), 4)  # NPNPPN
    assert cert == ForcedSignCertificate(U(1, 1, 0, 1), 4, -1)
    assert str(cert) == "q_4 forced negative on NPNPPN by its gap expansion"
    assert verify_certificate(cert)


def test_forced_positive_reciprocal_sum():
    cert = forced_sign(U(0, 0, 0, 3), 1)  # PPPNNN
    assert cert is not None and cert.sign == 1
    assert verify_certificate(cert)


def test_constant_term_always_forced():
    for order in ("PNPNPN", "PPPNNN", "NNPPNP"):
        cert = forced_sign(ModuliOrder(order), 0)
        assert cert is not None
        assert cert.sign == (-1) ** order.count("P")
        assert verify_certificate(cert)


def test_no_certificate_when_sign_genuinely_varies():
    # +a -f -g +b with a<f<g<b: q_1 = fg(a+b) - ab(f+g) takes both signs
    assert forced_sign(ModuliOrder("PNNP"), 1) is None
    values = _form(ModuliOrder("PNNP"), 1).values()
    assert min(values) < 0 < max(values)


def test_forced_sign_on_tied_wall_top():
    cert = forced_sign(TiedOrder("PPNNNP", (5,)), 4)
    assert cert is not None and cert.sign == -1
    assert verify_certificate(cert)


def test_forced_sign_on_tied_wall_bottom():
    cert = forced_sign(TiedOrder("NPPPNN", (1,)), 2)
    assert cert is not None and cert.sign == 1
    assert verify_certificate(cert)


def test_forced_sign_rejects_coefficient_index_out_of_range():
    # a negative k would otherwise read the sign of q_{d+1+k}
    for k in (-1, 7):
        with pytest.raises(ValueError, match="out of range"):
            forced_sign(ModuliOrder("PNPPNN"), k)


def test_verifier_rejects_tampered_claims():
    cert = forced_sign(U(1, 1, 0, 1), 4)
    mixed = ForcedSignCertificate(ModuliOrder("PNNP"), 1, 1)  # q_1 takes both signs
    for bad, message in (
        (dataclasses.replace(cert, sign=-cert.sign), "in q_4 has the wrong sign"),
        (mixed, "in q_1 has the wrong sign"),
        (dataclasses.replace(mixed, sign=-1), "in q_1 has the wrong sign"),
        (dataclasses.replace(cert, sign=0), "bad sign 0 for q_4"),
        (dataclasses.replace(cert, sign=2), "bad sign 2 for q_4"),
        (dataclasses.replace(cert, k=-1), "coefficient index -1 out of range"),
        (dataclasses.replace(cert, k=7), "coefficient index 7 out of range"),
    ):
        with pytest.raises(CertificateError, match=message):
            verify_certificate(bad)
            pytest.fail(f"{bad} verified")


def test_a_claim_on_a_vanishing_coefficient_is_rejected_and_always_violated():
    # on the degree-2 wall P=N, (x - a)(x + a) = x² - a²: q_1 vanishes, so
    # neither sign is forced, the verifier rejects both claims, and every
    # sample violates them
    wall = TiedOrder("PN", (1,))
    assert forced_sign(wall, 1) is None
    for sign in (1, -1):
        claim = ForcedSignCertificate(wall, 1, sign)
        with pytest.raises(CertificateError, match="q_1 vanishes on P=N"):
            verify_certificate(claim)
        assert sample_certificate(claim, samples=200, seed=SEED) == 200


def _plain_and_single_tie_orders(d):
    for letters in itertools.product("PN", repeat=d):
        yield ModuliOrder("".join(letters))
    yield from _single_tie_orders(d)


def test_forced_sign_certificates_are_pinned():
    """str and repr of forced_sign over every plain and single-tie order of
    degrees 1-7 and every k in 0..d."""
    digest = hashlib.sha256()
    found = 0
    for d in range(1, 8):
        for order in _plain_and_single_tie_orders(d):
            for k in range(d + 1):
                cert = forced_sign(order, k)
                digest.update(f"{cert}\n{cert!r}\n".encode())
                found += cert is not None
    assert found == 4306
    assert digest.hexdigest() == (
        "3b3c6dd69be94b00229a2e22afe1595947da0b732c4e4744d35311fe432daee7"
    )


def test_degree_seven_certificates_verify_and_sample_clean():
    """Every forced-sign certificate on the plain and single-tie orders of
    degree 7, 188 of them beyond what a dominance matching of modulus
    monomials finds (84 plain, 104 on walls), passes the verifier and 200
    sampled integer configurations."""
    found = 0
    for order in _plain_and_single_tie_orders(7):
        for k in range(8):
            cert = forced_sign(order, k)
            if cert is not None:
                assert verify_certificate(cert)
                assert sample_certificate(cert, samples=200, seed=SEED) == 0, cert
                found += 1
    assert found == 2480


def test_forced_sign_commutes_with_negating_every_root():
    """Each im-pair of plain orders of degrees 1-8 and of single-tie orders
    of degrees 1-7: negating every root multiplies q_k by (-1)^(d-k), so
    the certificate on one member is the other's with its sign multiplied
    by that factor, and both pass the verifier."""
    orders = [o for d in range(1, 8) for o in _plain_and_single_tie_orders(d)]
    orders += [ModuliOrder("".join(letters)) for letters in itertools.product("PN", repeat=8)]
    pairs = [(o, apply_im(o)) for o in orders if o.letters < apply_im(o).letters]
    assert len(pairs) == 255 + 321
    for a, b in pairs:
        ks = range(a.degree + 1)
        certs = {}
        for order in (a, b):
            certs[order] = [forced_sign(order, k) for k in ks]
            for cert in certs[order]:
                assert cert is None or verify_certificate(cert)
        for k, cert in zip(ks, certs[a]):
            expected = None if cert is None else ForcedSignCertificate(
                b, k, cert.sign * (-1) ** (a.degree - k)
            )
            assert certs[b][k] == expected, (a, k)


def test_certificates_survive_random_sampling():
    for cert in (
        forced_sign(U(1, 1, 0, 1), 4),
        forced_sign(U(0, 0, 0, 3), 1),
        forced_sign(TiedOrder("PPNNNP", (5,)), 4),
        forced_sign(TiedOrder("NPPPNN", (1,)), 2),
    ):
        assert sample_certificate(cert, samples=2000, seed=SEED) == 0


def _fraction_violations(cert, samples, seed):
    """Reference sampler: the draws of `sample_certificate`, expanded as
    `Fraction` roots through `expand`."""
    rng = random.Random(seed)
    d = cert.order.degree
    tied_upper = {r + 1 for r in getattr(cert.order, "tied", ())}
    levels = list(
        itertools.accumulate(0 if rank in tied_upper else 1 for rank in range(1, d + 1))
    )
    violations = 0
    for _ in range(samples):
        values = sorted(rng.sample(range(1, 10 * levels[-1] + 1), levels[-1]))
        roots = tuple(
            Fraction(values[lvl - 1] if ch == "P" else -values[lvl - 1])
            for lvl, ch in zip(levels, cert.order.letters)
        )
        q_k = expand(RootConfiguration(roots))[d - cert.k]
        violations += q_k * cert.sign <= 0
    return violations


def test_sampler_counts_violations_of_unsound_claims():
    """The sampler must be able to fail: flipped certificates violate on
    every draw, and sign claims on coefficients without a certificate
    violate on some.  Counts equal the `Fraction` reference."""
    samples = 30
    orders = [ModuliOrder("".join(letters)) for letters in itertools.product("PN", repeat=6)]
    flipped, unproved = [], []
    for order in orders[::8] + list(_single_tie_orders(6))[::16]:
        for k in range(6):
            cert = forced_sign(order, k)
            if cert is not None:
                flipped.append(dataclasses.replace(cert, sign=-cert.sign))
            else:
                unproved.extend(
                    ForcedSignCertificate(order, k, sign)
                    for sign in (1, -1)
                )
    assert (len(flipped), len(unproved)) == (74, 68)
    counts = [sample_certificate(c, samples=samples, seed=SEED) for c in flipped + unproved]
    assert counts == [_fraction_violations(c, samples, SEED) for c in flipped + unproved]
    assert counts[: len(flipped)] == [samples] * len(flipped)
    mixed = [n for n in counts[len(flipped):] if 0 < n < samples]
    assert (len(mixed), sum(counts)) == (50, 3240)  # recorded with the Fraction sampler


def test_sampler_tally_is_shared_across_coefficients_signs_and_calls():
    """Interleaved claims on plain and tied orders and their im mirrors,
    every coefficient, both signs, two seeds and two sample counts: each
    count equals the `Fraction` reference, whichever call drew the
    configurations first, and a coefficient that vanishes violates both
    signs."""
    orders = [
        ModuliOrder("PNPPNN"), ModuliOrder("NNPNPP"), ModuliOrder("PPPNNN"),
        TiedOrder("PPNNNP", (5,)), TiedOrder("NPPPNN", (1,)),
        TiedOrder("PNPN", (1, 3)),  # (x²−a²)(x²−b²): odd coefficients vanish
    ]
    claims = [
        (ForcedSignCertificate(o, k, sign), samples, seed)
        for order in orders
        for o in (order, apply_im(order))
        for k in range(o.degree + 1)
        for sign in (1, -1)
        for samples in (20, 35)
        for seed in (SEED, 7)
    ]
    certify._sampled_sign_counts.cache_clear()
    random.Random(SEED).shuffle(claims)
    for cert, samples, seed in claims:
        expected = _fraction_violations(cert, samples, seed)
        assert sample_certificate(cert, samples=samples, seed=seed) == expected, (cert, seed)
    cert = claims[0][0]
    assert sample_certificate(cert, samples=0, seed=SEED) == 0
    with pytest.raises(ValueError, match="non-negative"):
        sample_certificate(cert, samples=-1, seed=SEED)


def test_sampler_kernels_cover_every_level_shape():
    """Every plain order of degrees 1-7, every single-tie order of degree 6
    (all five tie shapes), and a double and a triple tie: for both claimed
    signs and every k, at 0 and 1 samples and two seeds, each count equals
    the `Fraction` reference."""
    orders = [
        ModuliOrder("".join(letters))
        for d in range(1, 8)
        for letters in itertools.product("PN", repeat=d)
    ]
    orders += list(_single_tie_orders(6))
    orders += [TiedOrder("PNPN", (1, 3)), TiedOrder("PNPNPN", (1, 3, 5))]
    certify._sampled_sign_counts.cache_clear()
    for order in orders:
        for k in range(order.degree + 1):
            for sign in (1, -1):
                cert = ForcedSignCertificate(order, k, sign)
                for samples in (0, 1):
                    for seed in (0, 7):
                        expected = _fraction_violations(cert, samples, seed)
                        got = sample_certificate(cert, samples=samples, seed=seed)
                        assert got == expected, (order, k, sign, samples, seed)


def test_sampler_builds_one_kernel_per_level_shape():
    """Tallying the 224 orders of the benchmark's certificate corpus, the
    64 plain degree-6 orders and the 160 single-tie wall orders, builds one
    kernel per level shape: one plain and five single-tie shapes, never one
    per order."""
    orders = [ModuliOrder("".join(letters)) for letters in itertools.product("PN", repeat=6)]
    orders += list(_single_tie_orders(6))
    assert len(orders) == 224
    certify._sampled_sign_counts.cache_clear()
    certify._tally_kernel.cache_clear()
    for order in orders:
        certify._sampled_sign_counts(order, 10, SEED)
    assert certify._tally_kernel.cache_info().currsize == 6


def test_sampler_rejects_coefficient_index_out_of_range():
    for k in (-1, 7):
        cert = ForcedSignCertificate(ModuliOrder("PNPPNN"), k, 1)
        with pytest.raises(ValueError, match="out of range"):
            sample_certificate(cert, samples=50, seed=SEED)


# ------------------------------------------------------- gap certificates


def _blocks(tied, sp):
    cert = gap_certificate(tied)
    return cert is not None and cert.applies_to(sp)


# The pair lemma: on a degree-6 wall whose free roots +a, −f, −g, +b have
# moduli a<f<g<b, q_5 > 0 (a+b < f+g) and q_1 < 0 exclude each other.  The
# gap certificates on q_1, q_5 carry it for the walls a sweep asks.


def test_pair_lemma_bottom_tie():
    tied = TiedOrder.wall(U(0, 1, 2, 0), U(1, 0, 2, 0))
    assert str(tied) == "P=NPNNP"
    assert _blocks(tied, SignPattern.parse("2,1,2,2"))


def test_pair_lemma_top_tie():
    tied = TiedOrder.wall(U(0, 2, 1, 0), U(0, 2, 0, 1))
    assert str(tied) == "PNNPN=P"
    assert _blocks(tied, SignPattern.parse("2,1,2,2"))


def test_pair_lemma_mirror_shape():
    assert _blocks(TiedOrder("NPNPPN", (1,)), SignPattern.parse("1,3,2,1"))
    # each shape takes only its own outer signs
    assert not _blocks(TiedOrder("NPNPPN", (1,)), SignPattern.parse("2,1,2,2"))
    assert not _blocks(TiedOrder("PNPNNP", (1,)), SignPattern.parse("1,3,2,1"))


def test_pair_lemma_rejects_other_shapes():
    assert gap_certificate(TiedOrder("PPNNNP", (5,))) is None
    # the shape is shipped but the pattern's outer signs do not match
    assert not _blocks(TiedOrder("PNPNNP", (1,)), SignPattern.parse("3,1,2,1"))
    # nothing ships for two ties or for another degree
    assert gap_certificate(TiedOrder("PNPNNP", (1, 3))) is None
    assert gap_certificate(TiedOrder("PNNNP", (1,))) is None


def _single_tie_orders(d):
    for letters in itertools.product("PN", repeat=d):
        for r in range(1, d):
            if letters[r - 1] != letters[r]:
                yield TiedOrder("".join(letters), (r,))


def _shipped_with_mirrors():
    orders = [o for c in certify._SHIPPED_GAP_CERTIFICATES for o in (c.order, apply_im(c.order))]
    return [gap_certificate(o) for o in orders]


def test_shipped_gap_certificates_verify():
    shipped = certify._SHIPPED_GAP_CERTIFICATES
    assert [str(c.order) for c in shipped] == ["PNP=NNN", "NNN=PNP", "P=NPNNP", "PNNPN=P"]
    for cert in shipped:
        assert verify_gap_certificate(cert)
        assert gap_certificate(cert.order) == cert
        mirror = gap_certificate(apply_im(cert.order))
        assert mirror.terms == cert.terms and verify_gap_certificate(mirror)
    assert [str(c) for c in shipped] == [
        "gap certificate on q_1, q_4", "gap certificate on q_2, q_5",
        "gap certificate on q_1, q_5", "gap certificate on q_1, q_5",
    ]


def test_gap_certificates_hold_on_exact_configurations():
    """No exact integer configuration on a certificate's tied order carries
    all the signs it rules out, while each sign alone does occur: 2,000
    configurations per tied order, mirrors included."""
    rng = random.Random(SEED)
    for cert in _shipped_with_mirrors():
        tied, d = cert.order, cert.order.degree
        levels = list(itertools.accumulate(
            0 if rank - 1 in tied.tied else 1 for rank in range(1, d + 1)
        ))
        seen = Counter()
        for _ in range(2_000):
            values = sorted(rng.sample(range(1, 201), max(levels)))
            roots = tuple(
                Fraction(values[lvl - 1] if ch == "P" else -values[lvl - 1])
                for lvl, ch in zip(levels, tied.letters)
            )
            coeffs = expand(RootConfiguration(roots))
            carried = [k for k, sign in cert.signs if coeffs[d - k] * sign > 0]
            assert len(carried) < len(cert.signs), (tied, roots)
            seen.update(carried)
        assert set(seen) == {k for k, _ in cert.signs}, tied


def _tampered(cert):
    """(defect, tampered copy, the verifier's message) for each defect; the
    first two keep every coefficient of the sum ≤ 0, so only the check
    they name can catch them."""
    signs = dict(cert.signs)
    # the first other shipped order; these terms fail there, though some
    # other orders admit them
    swapped = next(c.order for c in certify._SHIPPED_GAP_CERTIFICATES if c.order != cert.order)
    yield "negative multipliers on flipped signs", dataclasses.replace(
        cert,
        signs=tuple((k, -s) for k, s in cert.signs),
        terms=tuple((k, mu, -lam) for k, mu, lam in cert.terms),
    ), "negative multiplier"
    yield "every multiplier one degree too high", dataclasses.replace(
        cert, terms=tuple((k, (mu[0] + 1, *mu[1:]), lam) for k, mu, lam in cert.terms)
    ), "not of degree"
    for k in signs:
        yield f"flipped sign of q_{k}", dataclasses.replace(
            cert, signs=tuple((j, -s if j == k else s) for j, s in cert.signs)
        ), "positive"
    yield "mirror order, same signs", dataclasses.replace(
        cert, order=apply_im(cert.order)), "positive"
    yield f"swapped order {swapped}", dataclasses.replace(cert, order=swapped), "positive"
    yield "all multipliers zero", dataclasses.replace(
        cert, terms=tuple((k, mu, Fraction(0)) for k, mu, _ in cert.terms)
    ), "positive multiplier"
    mu0 = cert.terms[0][1]
    yield "unsigned coefficient", dataclasses.replace(
        cert, terms=((0, (0,) * len(mu0), Fraction(1)), *cert.terms)
    ), "carries no sign"
    yield "a coefficient signed twice", dataclasses.replace(
        cert, signs=(*cert.signs, cert.signs[0])
    ), "exactly one sign"
    (k0, s0), *rest = cert.signs
    yield f"sign {2 * s0} on q_{k0}", dataclasses.replace(
        cert, signs=((k0, 2 * s0), *rest)
    ), "bad sign"


def test_tampered_gap_certificates_are_rejected():
    for cert in certify._SHIPPED_GAP_CERTIFICATES:
        for defect, bad, message in _tampered(cert):
            with pytest.raises(CertificateError, match=message):
                verify_gap_certificate(bad)
                pytest.fail(f"{cert.order}: {defect} verified")


def test_gap_certificate_needs_every_used_sign():
    # a pattern that disagrees on one used coefficient is not covered, and a
    # certificate rewritten to that pattern's signs fails verification
    cert = gap_certificate(TiedOrder("PNPNNN", (3,)))
    sp = SignPattern.parse("2,4,1")
    assert cert.applies_to(sp)
    for k, sign in cert.signs:
        signs = list(sp.signs)
        signs[6 - k] = -sign
        other = SignPattern(tuple(signs))
        assert not cert.applies_to(other)
        rewritten = dataclasses.replace(
            cert, signs=tuple((j, other.signs[6 - j]) for j, _ in cert.signs))
        with pytest.raises(CertificateError, match="positive"):
            verify_gap_certificate(rewritten)
    assert not cert.applies_to(SignPattern.parse("2,4"))


def test_every_shipped_gap_certificate_closes_a_wall_of_the_degree_six_sweep():
    used = set()
    for changes in range(7):
        for sp in enumerate_patterns(6, changes):
            for verdict in settle(sp).values():
                if verdict.evidence_kind == "frontier":
                    used |= {
                        str(TiedOrder.wall(u, v)) for u, v, why in verdict.evidence.blocks
                        if why.startswith("boundary infeasible by gap certificate")
                    }
    assert used == {str(c.order) for c in _shipped_with_mirrors()}


def test_gap_certificate_is_verified_once_on_first_use(monkeypatch):
    calls = []
    original = certify.verify_gap_certificate

    def counted(cert):
        calls.append(cert.order)
        return original(cert)

    monkeypatch.setattr(certify, "verify_gap_certificate", counted)
    gap_certificate.cache_clear()
    try:
        tied = TiedOrder("NNNPNP", (3,))
        assert gap_certificate(tied) is gap_certificate(tied)
        assert calls == [tied]
    finally:
        gap_certificate.cache_clear()


def test_a_shipped_gap_certificate_that_fails_raises(monkeypatch):
    # a bad shipped certificate is an error, never a wall left open
    flipped = tuple(
        dataclasses.replace(c, signs=tuple((k, -s) for k, s in c.signs))
        for c in certify._SHIPPED_GAP_CERTIFICATES
    )
    monkeypatch.setattr(certify, "_SHIPPED_GAP_CERTIFICATES", flipped)
    gap_certificate.cache_clear()
    try:
        with pytest.raises(CertificateError):
            gap_certificate(TiedOrder("PNPNNN", (3,)))
        with pytest.raises(CertificateError):
            settle(SignPattern.parse("2,4,1"))
    finally:
        gap_certificate.cache_clear()


# ------------------------------------------------------------ refute


def test_refute_kinds_and_abstentions():
    def kind(comp, order):
        v = refute(Couple(SignPattern.parse(comp), ModuliOrder(order)))
        assert v is None or v.status is Status.NON_REALIZABLE
        return None if v is None else v.evidence_kind

    assert kind("2,2,2,1", "NPNPNP") == "rigid-order"
    assert kind("2,2,2,1", "PNPNPN") is None  # the rigid order's own pattern
    assert kind("4,1,1,1", "PPNPNN") == "canonical-pattern"
    assert kind("4,1,1,1", "PPPNNN") is None  # the canonical order
    assert kind("2,2,1", "NNPP") == "forced-sign"
    assert kind("2,4,1", "PPNNNN") is None  # only frontier exclusion decides it


def test_contradicting_certificate_is_the_first_against_the_pattern():
    sp, order = SignPattern.parse("2,2,1"), ModuliOrder("NNPP")
    cert = contradicting_certificate(order, sp)
    assert cert is not None and cert.order == order
    assert cert.sign != sp.signs[sp.degree - cert.k]
    for k in range(cert.k):
        earlier = forced_sign(order, k)
        assert earlier is None or earlier.sign == sp.signs[sp.degree - k]
    assert refute(Couple(sp, order)).evidence == cert
    # the canonical order is realizable, so nothing may contradict it
    assert contradicting_certificate(canonical_order(sp), sp) is None


def test_refute_is_classify_patterns_certificate_stage(cfg, store):
    sp = SignPattern.parse("2,2,2,1")
    table = classify_pattern(sp, cfg, store)
    staged = ("rigid-order", "canonical-pattern", "forced-sign")
    for order, verdict in table.items():
        refuted = refute(Couple(sp, order))
        if verdict.evidence_kind in staged:
            assert refuted == verdict
        else:
            assert refuted is None


# ------------------------------------------------------------ propagation


def _seed_table(sp, nonreal, real):
    table = {}
    for order in compatible_orders(sp):
        couple = Couple(sp, order)
        if order in nonreal:
            table[order] = Verdict(couple, Status.NON_REALIZABLE, "forced-sign")
        elif order in real:
            table[order] = Verdict(couple, Status.REALIZABLE, "witness")
        else:
            table[order] = Verdict(couple, Status.UNKNOWN, "none")
    return table


def test_propagation_kills_enclosed_order():
    sp = SignPattern.parse("3,1,2,1")
    walls = {U(1, 1, 0, 1), U(2, 0, 1, 0)}
    table = propagate(sp, _seed_table(sp, walls, {canonical_order(sp)}))
    verdict = table[U(2, 0, 0, 1)]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "propagation"
    assert set(verdict.evidence) == walls


def test_propagation_needs_a_realizable_order():
    sp = SignPattern.parse("3,1,2,1")
    table = propagate(sp, _seed_table(sp, {U(1, 1, 0, 1), U(2, 0, 1, 0)}, set()))
    assert table[U(2, 0, 0, 1)].status is Status.UNKNOWN


def test_propagation_requires_full_coverage():
    sp = SignPattern.parse("3,1,2,1")
    table = _seed_table(sp, set(), {canonical_order(sp)})
    del table[U(2, 0, 0, 1)]
    with pytest.raises(ValueError):
        propagate(sp, table)


def test_frontier_does_not_seal_crossable_regions():
    # stage-one table for the pattern with five non-realizable orders: the
    # Unknown region still contains twelve realizable orders, so at least
    # one exit wall must stay open and the exclusion must do nothing
    sp = SignPattern.parse("2,2,2,1")
    nonreal = {U(1, 1, 1, 0), U(3, 0, 0, 0), U(2, 1, 0, 0), U(1, 2, 0, 0), U(2, 0, 1, 0)}
    table = _seed_table(sp, nonreal, {U(0, 1, 1, 1)})
    after = frontier_exclusion(sp, table)
    assert {o: v.status for o, v in after.items()} == {
        o: v.status for o, v in table.items()
    }


def test_frontier_needs_an_anchor():
    sp = SignPattern.parse("3,1,2,1")
    table = _seed_table(sp, {U(1, 1, 0, 1), U(2, 0, 1, 0)}, set())
    assert frontier_exclusion(sp, table) == table


def _stage_one(sp):
    # classify_pattern's first stage: constructions and certificates,
    # before the exclusion round and any witness search
    table = {}
    for order in compatible_orders(sp):
        couple = Couple(sp, order)
        w = constructive_witness(couple)
        if w is not None:
            table[order] = Verdict(couple, Status.REALIZABLE, "witness", w)
        else:
            table[order] = refute(couple) or Verdict(couple, Status.UNKNOWN, "none")
    return table


def test_frontier_seals_the_blocked_part_of_an_open_region():
    # before Monte Carlo, the Unknown region of 2,4,1 holds two realizable
    # orders with open walls and three non-realizable ones whose exit walls
    # are all blocked; only the latter are sealed
    sp = SignPattern.parse("++----+")
    table = settle(sp)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.UNKNOWN} == {"PNNPNN", "PNNNNP"}
    sealed = table[ModuliOrder("PPNNNN")]
    assert sealed.evidence_kind == "frontier"
    assert isinstance(sealed.evidence, FrontierEvidence)
    assert table[ModuliOrder("NPPNNN")].evidence == sealed.evidence
    assert [o.letters for o in sealed.evidence.region] == ["PPNNNN", "PNPNNN", "NPPNNN"]
    assert table[sealed.evidence.anchor].status is Status.REALIZABLE
    # the same walls and reasons as the seal after Monte Carlo
    assert [(u.letters, v.letters, why) for u, v, why in sealed.evidence.blocks] == [
        ("PNPNNN", "PNNPNN", "boundary infeasible by gap certificate on q_1, q_4"),
        ("NPPNNN", "NPNPNN", "target [1,1,2] non-realizable"),
    ]


def test_a_wall_is_blocked_by_its_target_then_by_its_tied_order():
    # the wall PPNNN=P forces q_4 negative against 3,1,2,1; it blocks the
    # crossing while the chamber beyond is not known to be non-realizable
    sp = SignPattern.parse("3,1,2,1")
    u, v = ModuliOrder("PPNNNP"), ModuliOrder("PPNNPN")
    table = _seed_table(sp, set(), {canonical_order(sp)})
    assert certify._wall_block_reason(sp, u, v, table) == "boundary forces q_4 negative"
    table = _seed_table(sp, {v}, {canonical_order(sp)})
    assert certify._wall_block_reason(sp, u, v, table) == "target [0,0,2,1] non-realizable"
    # nothing blocks the wall PPP=NNN between two realizable orders
    assert certify._wall_block_reason(sp, canonical_order(sp), ModuliOrder("PPNPNN"), table) is None


def test_a_tied_order_forced_sign_seals_a_degree_eight_region(monkeypatch):
    # the forced-sign branch of `_wall_block_reason` decides nothing at
    # degrees 4-7; at degree 8 it blocks the one exit wall of this region
    # that no non-realizable target blocks, so without it the five orders
    # stay Unknown
    sp = SignPattern.parse("5,2,1,1")
    region = ["NPPPNNNN", "NPPNPNNN", "NPPNNPNN", "NPNPPNNN", "NNPPPNNN"]
    table = settle(sp)
    assert [o.letters for o, v in table.items() if v.evidence_kind == "frontier"] == region
    (evidence,) = {table[ModuliOrder(o)].evidence for o in region}
    blocks = [(u.letters, v.letters, why) for u, v, why in evidence.blocks]
    assert ("NPPPNNNN", "PNPPNNNN", "boundary forces q_2 positive") in blocks
    plain = certify.contradicting_certificate
    monkeypatch.setattr(
        certify,
        "contradicting_certificate",
        lambda order, sp: None if isinstance(order, TiedOrder) else plain(order, sp),
    )
    table = settle(sp)
    assert all(table[ModuliOrder(o)].status is Status.UNKNOWN for o in region)


def test_frontier_before_monte_carlo_seals_only_non_realizable_couples():
    reference = builtin_table(6)
    partial = set()
    for changes in range(7):
        for sp in enumerate_patterns(6, changes):
            table = settle(sp)
            sealed = {o for o, v in table.items() if v.evidence_kind == "frontier"}
            for order in sealed:
                assert reference.status(Couple(sp, order)) is Status.NON_REALIZABLE
            if any(v.status is Status.UNKNOWN for v in table.values()):
                partial |= {(str(sp), o.letters) for o in sealed}
    # the seals that leave part of the Unknown region open; the first 12
    # close a region whose one open exit wall only a gap certificate
    # blocks, and the last 16 lie in the orbit of the published-store
    # pattern 2,1,2,2, whose realizable orders are witnessed only after
    # exclusion
    assert partial == {
        ("++----+", "PPNNNN"), ("++----+", "PNPNNN"), ("++----+", "NPPNNN"),
        ("+----++", "NNNNPP"), ("+----++", "NNNPNP"), ("+----++", "NNNPPN"),
        ("++-+--+", "PPPPNN"), ("++-+--+", "PPPNPN"), ("++-+--+", "PPPNNP"),
        ("+--+-++", "NNPPPP"), ("+--+-++", "NPNPPP"), ("+--+-++", "PNNPPP"),
        ("++-++--", "PNNNPP"), ("++-++--", "PNNPNP"),
        ("++-++--", "PNPNNP"), ("++-++--", "PPNNNP"),
        ("++--+--", "PNNNPP"), ("++--+--", "PNNPNP"),
        ("++--+--", "PNPNNP"), ("++--+--", "PPNNNP"),
        ("+--+++-", "NNPPPN"), ("+--+++-", "NPNPPN"),
        ("+--+++-", "NPPNPN"), ("+--+++-", "NPPPNN"),
        ("+---++-", "NNPPPN"), ("+---++-", "NPNPPN"),
        ("+---++-", "NPPNPN"), ("+---++-", "NPPPNN"),
    }


# ------------------------------------------------ full pattern classification


def _statuses(table):
    return {order.letters: verdict.status for order, verdict in table.items()}


def test_classify_three_changes_first(cfg, store):
    table = classify_pattern(SignPattern.parse("3,1,2,1"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.REALIZABLE} == {
        "PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN", "NPPPNN"
    }
    assert Status.UNKNOWN not in statuses.values()

    prop = table[U(0, 3, 0, 0)]
    assert prop.evidence_kind == "propagation"
    assert set(prop.evidence) == {U(0, 2, 1, 0), U(1, 2, 0, 0)}

    # the gap expansion certifies q_4 < 0 directly on every order that
    # frontier exclusion or propagation would otherwise have to cover but
    # the one above, including [0,0,3,0], the order of the wall PPNNN=P
    for u in ((0, 0, 3, 0), (0, 1, 2, 0), (0, 2, 1, 0), (2, 0, 0, 1)):
        direct = table[U(*u)]
        assert direct.evidence_kind == "forced-sign"
        assert direct.evidence.k == 4 and direct.evidence.sign == -1
    assert "frontier" not in {v.evidence_kind for v in table.values()}


def test_classify_second_pattern_uses_pair_lemma(cfg, store):
    table = classify_pattern(SignPattern.parse("2,1,2,2"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.REALIZABLE} == {
        "PNNPPN", "NPPPNN", "NPPNPN", "NPPNNP", "NPNPPN", "NNPPPN"
    }
    assert Status.UNKNOWN not in statuses.values()

    sealed = table[U(0, 3, 0, 0)]
    assert sealed.evidence_kind == "frontier"
    assert {order_to_uvector(o).u for o in sealed.evidence.region} == {
        (0, 0, 3, 0), (0, 1, 2, 0), (0, 2, 1, 0), (0, 3, 0, 0)
    }
    reasons = {(u.letters, v.letters): why for u, v, why in sealed.evidence.blocks}
    assert reasons[("PNPNNP", "NPPNNP")] == "boundary infeasible by gap certificate on q_1, q_5"
    assert reasons[("PNNPNP", "PNNPPN")] == "boundary infeasible by gap certificate on q_1, q_5"


def test_classify_fifteen_of_twenty(cfg, store):
    table = classify_pattern(SignPattern.parse("2,2,2,1"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.NON_REALIZABLE} == {
        "NPNPNP", "NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"
    }
    assert Status.UNKNOWN not in statuses.values()
    for letters in ("NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"):
        verdict = table[ModuliOrder(letters)]
        assert verdict.evidence_kind == "forced-sign"
        assert verdict.evidence.k == 1 and verdict.evidence.sign == -1
    assert table[ModuliOrder("NPNPNP")].evidence_kind == "rigid-order"


def test_classify_fourth_pattern(cfg, store):
    table = classify_pattern(SignPattern.parse("3,2,1,1"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.REALIZABLE} == {
        "PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN"
    }
    assert Status.UNKNOWN not in statuses.values()
    # the two orders a frontier seal used to cover, through the walls whose
    # tied orders force q_2 > 0 and q_4 < 0, carry those signs themselves
    for letters, k, sign in (("NPPPNN", 2, 1), ("PPNNNP", 4, -1)):
        direct = table[ModuliOrder(letters)]
        assert direct.evidence_kind == "forced-sign"
        assert (direct.evidence.k, direct.evidence.sign) == (k, sign)
    assert {v.evidence_kind for v in table.values()} == {"witness", "forced-sign", "rigid-order"}


def test_one_exclusion_round_is_a_fixed_point():
    rounds_that_decide = 0
    for d in range(3, 7):
        for changes in range(d + 1):
            for sp in enumerate_patterns(d, changes):
                table = _stage_one(sp)
                once = frontier_exclusion(sp, propagate(sp, table))
                twice = frontier_exclusion(sp, propagate(sp, once))
                statuses = {o: v.status for o, v in once.items()}
                assert {o: v.status for o, v in twice.items()} == statuses, sp
                rounds_that_decide += statuses != {o: v.status for o, v in table.items()}
    assert rounds_that_decide > 0


def test_no_exclusion_round_after_the_witness_search_changes_a_verdict(store):
    # the witness search only turns Unknown into Realizable, so another
    # exclusion round after it seals and propagates nothing
    cfg = SamplerConfig(seed=0, budget=10_000)
    sampled = 0
    for d in range(1, 7):
        for changes in range(d + 1):
            for sp in enumerate_patterns(d, changes):
                table = classify_pattern(sp, cfg, store if d == 6 else {})
                assert frontier_exclusion(sp, propagate(sp, table)) == table, sp
                sampled += any(
                    v.evidence_kind == "witness" and v.evidence.provenance.startswith("mc-search")
                    for v in table.values()
                )
    assert sampled > 0


def test_no_search_below_degree_six_exhausts(monkeypatch):
    exhausted = []
    original = search.mc_search

    def counted(target, cfg):
        outcome = original(target, cfg)
        if isinstance(outcome, Exhausted):
            exhausted.append(target)
        return outcome

    monkeypatch.setattr(search, "mc_search", counted)
    for d in range(1, 6):
        for changes in range(d + 1):
            for sp in enumerate_patterns(d, changes):
                classify_pattern(sp, SamplerConfig(), {})
    assert exhausted == []


def test_classification_commutes_with_sign_flip(cfg, store):
    sp = SignPattern.parse("3,1,2,1")
    base = classify_pattern(sp, cfg, store)
    image = classify_pattern(apply_im(sp), cfg, store)
    for order, verdict in base.items():
        assert image[apply_im(order)].status is verdict.status


# ------------------------------------------------------------ single couples


def test_decide_rigid_order(cfg, store):
    verdict = classify_pattern(SignPattern.parse("3,1,2,1"), cfg, store)[ModuliOrder("PNPNPN")]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "rigid-order"
    assert verdict.citation == "rigid-orders"


def test_decide_canonical_couple(cfg, store):
    verdict = classify_pattern(SignPattern.parse("1,3,1,2"), cfg, store)[ModuliOrder("NPPNNP")]
    assert verdict.status is Status.REALIZABLE
    assert verdict.citation == "canonical-realizable"
    assert verdict.evidence.is_valid()


def test_decide_forced_sign(cfg, store):
    verdict = classify_pattern(SignPattern.parse("2,1,2,2"), cfg, store)[U(2, 1, 0, 0)]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "forced-sign"
    assert verdict.evidence.k == 5 and verdict.evidence.sign == -1


def test_contradiction_on_corrupt_store(cfg, store):
    killed = Couple(SignPattern.parse("2,1,2,2"), U(2, 1, 0, 0))
    corrupt = dict(store)
    corrupt[killed] = constructive_witness(RIGID)
    with pytest.raises(ContradictionError):
        classify_pattern(killed.sp, cfg, corrupt)


def test_stored_witness_contradiction_is_raised_before_monte_carlo(monkeypatch, cfg, store):
    def no_sampling(*args, **kwargs):
        raise AssertionError("mc_search ran before the contradiction check")

    monkeypatch.setattr(search, "mc_search", no_sampling)
    # 2,4,1 has orders only Monte Carlo decides; PPNNNN is sealed by frontier
    killed = Couple(SignPattern.parse("2,4,1"), ModuliOrder("PPNNNN"))
    corrupt = dict(store)
    corrupt[killed] = constructive_witness(RIGID)
    with pytest.raises(ContradictionError, match="PPNNNN.*frontier evidence"):
        settle(killed.sp, corrupt)
    with pytest.raises(ContradictionError, match="PPNNNN.*frontier evidence"):
        classify_pattern(killed.sp, cfg, corrupt)


def test_a_stored_claim_with_a_vanishing_coefficient_or_a_tie_is_ignored():
    """Both records fail `validate` with a `WitnessError`, so `settle` treats
    them as no witness instead of crashing the sweep."""
    claim = Couple(SignPattern.parse("2,2,1"), ModuliOrder("NPNP"))
    no_store = settle(claim.sp)
    assert no_store[claim.order].status is Status.NON_REALIZABLE
    # 1 + 2 + 4 - 7 = 0: the x^3 coefficient vanishes
    vanishing = Witness(claim, RootConfiguration((1, 2, 4, -7)), "x")
    # x^4 + x^3 - 11x^2 - 9x + 18 carries the claimed signs, but |3| = |-3|
    tied = Witness(claim, RootConfiguration((1, -2, 3, -3)), "x")
    for w, message in ((vanishing, "vanishing coefficient of x^3"), (tied, "tie between moduli")):
        assert not w.is_valid()
        with pytest.raises(WitnessError, match=re.escape(message)):
            w.validate()
        assert settle(claim.sp, {claim: w}) == no_store


def test_stored_witnesses_check_exclusion_verdicts(monkeypatch, store):
    # exclusion runs before stored witnesses are looked up, so an unsound
    # wall lemma that seals a stored-witness order is caught
    monkeypatch.setattr(certify, "gap_certificate", lambda tied: GapCertificate(tied, (), ()))
    with pytest.raises(ContradictionError, match="PPPNNN.*frontier evidence"):
        classify_pattern(SignPattern.parse("3,1,2,1"), SamplerConfig(seed=SEED, budget=1000), store)
