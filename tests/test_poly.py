import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmoduli.patterns import Couple, ModuliOrder, SignPattern
from hypmoduli.poly import (
    ModuliTieError,
    Polynomial,
    RootConfiguration,
    Witness,
    WitnessError,
    append_witnesses,
    couple_of,
    expand,
    format_exact,
    integer_product,
    load_witnesses,
    make_witness,
    moduli_order_of,
    parse_exact,
    resolve_ties,
    save_witnesses,
    sign_pattern_of,
    tied_pairs_of,
)


def rc(*texts):
    return RootConfiguration.parse(texts)


def test_parse_exact_decimals_and_fractions():
    assert parse_exact("0.39") == Fraction(39, 100)
    assert parse_exact("-1.01") == Fraction(-101, 100)
    assert parse_exact("7/3") == Fraction(7, 3)
    assert parse_exact("-2") == -2
    assert parse_exact("  4.52 ") == Fraction(452, 100)


@pytest.mark.parametrize("bad", ["1e3", "2.5e-1", "", "1/0x", "0x10", "nan", "1.2.3", "--1"])
def test_parse_exact_rejects_non_literals(bad):
    with pytest.raises(ValueError):
        parse_exact(bad)


def test_format_exact_round_trips():
    for text in ["0.39", "-1.01", "7/3", "-2", "1000", "0.5", "-0.00125", "12/7"]:
        v = parse_exact(text)
        assert parse_exact(format_exact(v)) == v
    assert format_exact(Fraction(1, 2)) == "0.5"
    assert format_exact(Fraction(1, 3)) == "1/3"
    assert format_exact(Fraction(-5)) == "-5"


def test_root_configuration_sorted_by_modulus():
    c = rc("-5", "0.2", "3.1", "-10", "1", "-1")
    assert [format_exact(r) for r in c.roots] == ["0.2", "-1", "1", "3.1", "-5", "-10"]
    assert c.degree == 6
    assert c == rc("1", "-1", "0.2", "-10", "3.1", "-5")


def test_root_configuration_rejects_zero():
    with pytest.raises(ValueError):
        rc("1", "0", "2")


def naive_expand(roots):
    # independent oracle: elementary symmetric sums via explicit subsets
    d = len(roots)
    coeffs = [Fraction(1)]
    for k in range(1, d + 1):
        total = Fraction(0)
        for combo in itertools.combinations(roots, k):
            prod = Fraction(1)
            for r in combo:
                prod *= r
            total += prod
        coeffs.append((-1) ** k * total)
    return coeffs


def test_expand_published_row():
    c = rc("0.2", "1", "-1", "3.1", "-5", "-10")
    p = expand(c)
    assert [format_exact(x) for x in p.coefficients] == [
        "1", "11.7", "0.12", "-167.4", "29.88", "155.7", "-31",
    ]


def test_expand_golden_with_tied_moduli():
    c = rc("-4", "5", "6", "-8.74", "-9.41", "9.59")
    p = expand(c)
    assert [format_exact(x) for x in p.coefficients] == [
        "1", "1.56", "-165.7351", "-145.848506", "7833.610842", "24.186884", "-94645.70472",
    ]


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=50).filter(lambda f: f != 0),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_expand_matches_symmetric_function_oracle(roots):
    c = RootConfiguration(tuple(roots))
    assert list(expand(c).coefficients) == naive_expand(list(c.roots))


def _fraction_product(pairs):
    # independent oracle: multiply the linear factors (b*x - a) in Fraction
    coeffs = [Fraction(1)]
    for a, b in pairs:
        coeffs = [
            Fraction(b) * hi - Fraction(a) * lo
            for hi, lo in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)
        ]
    return coeffs


@given(
    st.lists(
        st.tuples(st.integers(-10**12, 10**12), st.integers(2, 10**12)),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_integer_product_matches_fraction_product(pairs):
    product = integer_product(pairs)
    assert all(type(c) is int for c in product)
    assert product == _fraction_product(pairs)


_WIDE_DENOMINATORS = st.one_of(
    st.builds(
        Fraction,
        st.integers(-(2**60), 2**60).filter(lambda n: n != 0),
        st.integers(2**50, 2**53),
    ),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    .filter(lambda f: f != 0)
    .map(Fraction),
)


@given(st.lists(_WIDE_DENOMINATORS, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_expand_matches_oracle_on_wide_denominators(roots):
    """Float-derived MC witnesses carry denominators near 2^52; the integer
    expansion must clear and restore them exactly."""
    c = RootConfiguration(tuple(roots))
    assert list(expand(c).coefficients) == naive_expand(list(c.roots))


def test_polynomial_must_be_monic():
    with pytest.raises(ValueError):
        Polynomial((Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        Polynomial((Fraction(1),))


def test_sign_pattern_of_normalizes_and_detects_zero():
    assert str(sign_pattern_of(expand(rc("0.2", "1", "-1", "3.1", "-5", "-10"))).composition()) == "3,1,2,1"
    # (x-1)(x+1) = x^2 - 1 has a vanishing middle coefficient
    with pytest.raises(ValueError, match="vanishing coefficient"):
        sign_pattern_of(expand(rc("1", "-1")))


def test_moduli_order_and_ties():
    assert moduli_order_of(rc("0.2", "1", "-1.5", "3.1", "-5", "-10")).letters == "PPNPNN"
    with pytest.raises(ModuliTieError) as exc:
        moduli_order_of(rc("0.2", "1", "-1", "3.1", "-5", "-10"))
    assert exc.value.pairs == ((Fraction(-1), Fraction(1)),)
    assert tied_pairs_of(rc("2", "-2", "3", "-3")) == [
        (Fraction(-2), Fraction(2)),
        (Fraction(-3), Fraction(3)),
    ]
    assert tied_pairs_of(rc("1", "2", "-3")) == []


def test_couple_of_small_example():
    assert str(couple_of(rc("1", "2"))) == "(1,1,1, PP)"
    assert couple_of(rc("1", "2")).order == ModuliOrder("PP")


def test_plan_for_target_picks_shrinking_root():
    """The target letter at the lower tied rank names the root that shrinks."""
    c = rc("0.2", "1", "-1", "3.1", "-5", "-10")
    p_below = couple_of(rc("0.2", "0.5", "-1", "3.1", "-5", "-10"))
    assert p_below.order == ModuliOrder("PPNPNN")
    assert resolve_ties(c, p_below) == rc("0.2", "0.5", "-1", "3.1", "-5", "-10")
    n_below = couple_of(rc("0.2", "1", "-0.5", "3.1", "-5", "-10"))
    assert n_below.order == ModuliOrder("PNPPNN")
    assert resolve_ties(c, n_below) == rc("0.2", "1", "-0.5", "3.1", "-5", "-10")
    with pytest.raises(ValueError, match="does not split"):
        resolve_ties(c, Couple(p_below.sp, ModuliOrder("PPPNNN"[::-1])))  # NN at the tied ranks
    with pytest.raises(ValueError, match="equal sign"):
        resolve_ties(rc("1", "1", "2"), couple_of(rc("1", "2", "3")))


def test_resolve_ties_reaches_target_couple():
    c = rc("0.2", "1", "-1", "3.1", "-5", "-10")
    target = Couple(SignPattern.parse("3,1,2,1"), ModuliOrder("PPNPNN"))
    out = resolve_ties(c, target)
    assert couple_of(out) == target
    assert not tied_pairs_of(out)
    # double tie, both pairs resolved in one pass
    c2 = rc("2", "-2", "3", "-3")
    target2 = couple_of(rc("7/4", "-2", "-21/8", "3"))
    out2 = resolve_ties(c2, target2)
    assert couple_of(out2) == target2 and target2.order == ModuliOrder("PNNP")


def test_resolve_ties_untied_input_must_match():
    c = rc("1", "2")
    assert resolve_ties(c, couple_of(c)) == c
    with pytest.raises(ValueError, match="realizes"):
        resolve_ties(c, Couple(SignPattern.parse("1,1,1"), ModuliOrder("NP")))


def test_witness_validation_and_tampering():
    c = rc("0.2", "1", "-1.5", "3.1", "-5", "-10")
    w = make_witness(c, "unit-test")
    w.validate()
    assert w.is_valid()
    bad = Witness(w.couple, w.roots, expand(rc("1", "2", "3", "-4", "5", "-6")), w.provenance)
    with pytest.raises(WitnessError):
        bad.validate()
    wrong_couple = Witness(
        Couple(w.couple.sp, ModuliOrder("NNNNNN")), w.roots, w.polynomial, w.provenance
    )
    assert not wrong_couple.is_valid()


def test_store_round_trip_and_last_write_wins(tmp_path):
    path = tmp_path / "store.tsv"
    w1 = make_witness(rc("0.2", "1", "-1.5", "3.1", "-5", "-10"), "mc")
    w2 = make_witness(rc("1", "2"), "mc")
    save_witnesses(path, [w1, w2])
    loaded = load_witnesses(path)
    assert sorted(map(str, (w.couple for w in loaded))) == sorted(map(str, (w1.couple, w2.couple)))
    for w in loaded:
        w.validate()
    # same key appended later replaces the earlier record
    w1b = make_witness(rc("0.25", "1", "-1.5", "3.1", "-5", "-10"), "mc")
    assert w1b.couple == w1.couple
    append_witnesses(path, [w1b])
    final = {(w.couple, w.provenance): w for w in load_witnesses(path)}
    assert final[(w1.couple, "mc")].roots == w1b.roots
    # distinct provenance keeps both records
    w1c = make_witness(rc("0.2", "1", "-1.5", "3.1", "-5", "-10"), "published-example")
    append_witnesses(path, [w1c])
    assert len(load_witnesses(path)) == 3


def test_store_header_checked(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("some other file\n")
    with pytest.raises(ValueError, match="header"):
        load_witnesses(path)


def test_append_creates_header(tmp_path):
    path = tmp_path / "fresh.tsv"
    append_witnesses(path, [make_witness(rc("1", "2"), "mc")])
    assert path.read_text().startswith("hypmoduli-witness-store v1\n")
    assert len(load_witnesses(path)) == 1
