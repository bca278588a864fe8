import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmoduli.patterns import Couple, ModuliOrder, SignPattern
from hypmoduli.poly import (
    ModuliTieError,
    RootConfiguration,
    Witness,
    WitnessError,
    _integer_expansion,
    _signs_of,
    _witness_line,
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
    tied_pairs_of,
)
from hypmoduli.published import published_witnesses
from hypmoduli.search import canonical_witness


def rc(*texts):
    return RootConfiguration.parse(texts)


def test_parse_exact_decimals_and_fractions():
    assert parse_exact("0.39") == Fraction(39, 100)
    assert parse_exact("-1.01") == Fraction(-101, 100)
    assert parse_exact("7/3") == Fraction(7, 3)
    assert parse_exact("-2") == -2
    assert parse_exact("  4.52 ") == Fraction(452, 100)


@pytest.mark.parametrize("bad", ["1e3", "2.5e-1", "", "1/0x", "0x10", "nan", "1.2.3", "--1", "1/0", "-3/00"])
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


def test_root_configuration_rejects_non_rational_roots():
    with pytest.raises(ValueError, match=r"root 0\.5 is not an exact rational"):
        RootConfiguration((0.5, Fraction(-1, 3), 2))
    with pytest.raises(ValueError, match=r"root 'x' is not an exact rational"):
        RootConfiguration((Fraction(1), "x"))
    # ints are rationals and stay accepted
    assert RootConfiguration((2, Fraction(-1, 3))).roots == (Fraction(-1, 3), 2)


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
    assert [format_exact(x) for x in p] == [
        "1", "11.7", "0.12", "-167.4", "29.88", "155.7", "-31",
    ]


def test_expand_golden_with_tied_moduli():
    c = rc("-4", "5", "6", "-8.74", "-9.41", "9.59")
    p = expand(c)
    assert [format_exact(x) for x in p] == [
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
    assert list(expand(c)) == naive_expand(list(c.roots))


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
    assert list(expand(c)) == naive_expand(list(c.roots))


# Moduli for the integer-path property test: small ones built from
# unreduced numerator/denominator pairs (2/4 next to -1/2), and wide
# float-like denominators mixed in.
_MODULI = st.one_of(
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 2**60), st.integers(2**50, 2**53)),
)


@st.composite
def _roots_with_modulus_ties(draw):
    """Up to six non-zero roots, some in +-pairs of equal modulus, each pair
    entered once reduced and once scaled by a common factor; shuffled."""
    roots = []
    for n, d in draw(st.lists(_MODULI, min_size=1, max_size=4)):
        k = draw(st.integers(1, 5))
        kind = draw(st.sampled_from(["P", "N", "pair", "pair-int"]))
        if kind == "P":
            roots.append(Fraction(n * k, d * k))
        elif kind == "N":
            roots.append(Fraction(-n, d))
        elif kind == "pair":
            roots += [Fraction(n * k, d * k), Fraction(-n, d)]
        else:  # an int next to an unreduced Fraction of the same modulus
            roots += [-n, Fraction(n * k, k)]
    return draw(st.permutations(roots[:6]))


@given(_roots_with_modulus_ties())
@settings(max_examples=300, deadline=None)
def test_integer_path_matches_fraction_reference(roots):
    """Sorting, ties, signs and witness validation read integer numerators
    and denominators; they must agree with Fraction operators."""
    config = RootConfiguration(tuple(roots))
    reference = sorted(roots, key=lambda r: (abs(r), r))
    assert list(config.roots) == reference
    ties = [(a, b) for a, b in zip(reference, reference[1:]) if abs(a) == abs(b)]
    assert tied_pairs_of(config) == ties
    coeffs = naive_expand(reference)
    assert list(expand(config)) == coeffs
    vanishing = any(c == 0 for c in coeffs)
    if vanishing:
        with pytest.raises(ValueError, match="vanishing coefficient"):
            couple_of(config)
    else:
        signs = tuple(1 if c > 0 else -1 for c in coeffs)
        assert _signs_of(_integer_expansion(config)) == signs
        if not ties:
            assert couple_of(config).sp.signs == signs
    if ties:
        with pytest.raises(ModuliTieError) as exc:
            moduli_order_of(config)
        assert list(exc.value.pairs) == ties
    else:
        assert moduli_order_of(config).letters == "".join("P" if r > 0 else "N" for r in reference)
    if vanishing or ties:
        with pytest.raises(ValueError):
            make_witness(config, "property")
    else:
        w = make_witness(config, "property")
        assert w.roots == config and w.couple == couple_of(config)
        assert _witness_line(w).split("\t")[3] == ",".join(map(format_exact, coeffs))
        w.validate()


def test_couple_of_signs_normalize_and_detect_zero():
    # moduli 1 and -1 tie, so the signs are read off the integer expansion
    tied = rc("0.2", "1", "-1", "3.1", "-5", "-10")
    assert str(SignPattern(_signs_of(_integer_expansion(tied))).composition()) == "3,1,2,1"
    assert str(couple_of(rc("0.2", "1", "-1.5", "3.1", "-5", "-10")).sp.composition()) == "3,2,1,1"
    # (x-1)(x+1) = x^2 - 1 has a vanishing middle coefficient
    with pytest.raises(ValueError, match="vanishing coefficient"):
        couple_of(rc("1", "-1"))


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
    bad = Witness(w.couple, rc("1", "2", "3", "-4", "5", "-6"), w.provenance)
    with pytest.raises(WitnessError):
        bad.validate()
    wrong_couple = Witness(Couple(w.couple.sp, ModuliOrder("NNNNNN")), w.roots, w.provenance)
    assert not wrong_couple.is_valid()
    wrong_signs = Witness(Couple(SignPattern.parse("++++++-"), w.couple.order), w.roots, w.provenance)
    with pytest.raises(WitnessError, match=re.escape("expansion defines +++--+-, claimed ++++++-")):
        wrong_signs.validate()


def _load_with_coefficients(path, w, coefficients):
    """Load a one-record store of `w` whose coefficient column is replaced."""
    fields = _witness_line(w).split("\t")
    fields[3] = ",".join(format_exact(c) for c in coefficients)
    path.write_text("hypmoduli-witness-store v1\n" + "\t".join(fields) + "\n")
    return load_witnesses(path)


def test_validate_rejects_a_missing_or_extra_coefficient(tmp_path):
    """A cross-multiplied check over zip would stop at the shorter side; a
    column with a leading 2 is not the monic expansion."""
    path = tmp_path / "store.tsv"
    w = make_witness(rc("0.2", "1", "-1.5", "3.1", "-5", "-10"), "unit-test")
    coeffs = expand(w.roots)
    assert _load_with_coefficients(path, w, coeffs) == [w]
    for tampered in (
        coeffs[:-1],
        coeffs + (Fraction(1),),
        coeffs + (Fraction(0),),
        (Fraction(2),) + coeffs[1:],
    ):
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: stored polynomial is not the expansion")):
            _load_with_coefficients(path, w, tampered)


def test_validate_rejects_a_coefficient_off_by_half_a_unit(tmp_path):
    path = tmp_path / "store.tsv"
    w = make_witness(rc("0.2", "1", "-1.5", "3.1", "-5", "-10"), "unit-test")
    lead = integer_product((r.numerator, r.denominator) for r in w.roots.roots)[0]
    coeffs = list(expand(w.roots))
    for i in range(1, len(coeffs)):
        tampered = coeffs[:i] + [coeffs[i] + Fraction(1, 2 * lead)] + coeffs[i + 1 :]
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: stored polynomial is not the expansion")):
            _load_with_coefficients(path, w, tampered)


def test_store_lines_are_pinned():
    """The coefficient column is written from the expansion of the roots."""
    assert _witness_line(published_witnesses()[0]) == (
        "+++-++-\tPPPNNN\t0.39,0.4,0.984375,-1,-1.01,-9\t"
        "1,9.235625,0.4977875,-14.6745696875,0.0130425,5.5538915625,-1.395883125\t"
        "published-example\t-"
    )
    chain = canonical_witness(SignPattern.parse("2,2,2,1"))
    assert chain.couple.order == ModuliOrder("PNPNPN")
    assert _witness_line(chain) == (
        "++--++-\tPNPNPN\t0.03125,-0.0625,0.125,-0.25,0.5,-1\t"
        "1,0.65625,-0.451171875,-0.093994140625,0.01409912109375,0.000640869140625,"
        "-0.000030517578125\tconcatenation((2,2,2, NPNPN))\t-"
    )


def test_load_witnesses_names_the_line_of_a_short_coefficient_list(tmp_path):
    path = tmp_path / "store.tsv"
    append_witnesses(
        path,
        [make_witness(rc("1", "2"), "mc"), make_witness(rc("0.2", "1", "-1.5", "3.1", "-5", "-10"), "mc")],
    )
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    assert len(fields[3].split(",")) == 7
    fields[3] = ",".join(fields[3].split(",")[:6])
    path.write_text("\n".join(lines[:2] + ["\t".join(fields)]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: stored polynomial is not the expansion")):
        load_witnesses(path)


def test_store_round_trip_and_last_write_wins(tmp_path):
    path = tmp_path / "store.tsv"
    w1 = make_witness(rc("0.2", "1", "-1.5", "3.1", "-5", "-10"), "mc")
    w2 = make_witness(rc("1", "2"), "mc")
    append_witnesses(path, [w1, w2])
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


def test_append_refuses_a_file_that_is_not_a_store(tmp_path):
    path = tmp_path / "verdicts.tsv"
    path.write_text("hypmoduli-verdicts v1\n+\t0\t\t[]\tRealizable\twitness\t-\n")
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"{path}: unrecognized witness store header")):
        append_witnesses(path, [make_witness(rc("1", "2"), "mc")])
    assert path.read_bytes() == before
    # an existing empty file is a fresh store
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    append_witnesses(empty, [])
    assert empty.read_text() == "hypmoduli-witness-store v1\n"
