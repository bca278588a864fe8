from fractions import Fraction

from hypmoduli.patterns import Couple, ModuliOrder, SignPattern
from hypmoduli.poly import couple_of, expand, format_exact, parse_exact, tied_pairs_of
from hypmoduli.published import (
    PUBLISHED_PROVENANCE,
    published_rows,
    published_witnesses,
)


def test_corpus_shape():
    rows = published_rows()
    assert len(rows) == 13
    assert sorted({r.composition for r in rows}) == ["2,1,2,2", "2,2,2,1", "3,1,2,1", "3,2,1,1"]
    for row in rows:
        assert len(row.root_texts) == 6
        assert len(row.printed_tail) == 6


def test_tied_rows_are_the_unit_modulus_ones():
    tied = [r for r in published_rows() if tied_pairs_of(r.configuration())]
    assert len(tied) == 7
    for row in tied:
        pairs = []
        rc = row.configuration()
        assert {abs(a) for a in rc.roots if abs(a) == 1} == {1}


def test_every_row_expands_to_its_claimed_sign_pattern():
    for row in published_rows():
        signs = SignPattern(tuple((c > 0) - (c < 0) for c in expand(row.configuration())))
        assert str(signs.composition()) == row.composition
        if not tied_pairs_of(row.configuration()):
            assert couple_of(row.configuration()).sp == signs


def test_witnesses_validate_and_cover_all_claimed_couples():
    witnesses = published_witnesses()
    assert len(witnesses) == 13
    claimed = [r.couple for r in published_rows()]
    assert [w.couple for w in witnesses] == claimed
    for w in witnesses:
        w.validate()
        assert w.provenance == PUBLISHED_PROVENANCE


def test_untied_rows_expand_to_printed_values_exactly():
    # the no-tie rows print their exact expansions (up to rounding at the
    # printed precision); the PPNPNN and NPPNNP rows are even digit-exact
    by_key = {(r.composition, r.order): r for r in published_rows()}
    row = by_key[("3,1,2,1", "PPNPNN")]
    assert [format_exact(c) for c in expand(row.configuration())[1:]] == list(row.printed_tail)
    row = by_key[("2,2,2,1", "NPPNNP")]
    assert [format_exact(c) for c in expand(row.configuration())[1:]] == list(row.printed_tail)


def test_resolved_ties_keep_roots_close_to_printed():
    # each resolved witness differs from the verbatim roots only in one
    # member of each tied pair, shrunk by less than 1/2
    rows = {(r.composition, r.order): r for r in published_rows()}
    for w in published_witnesses():
        row = rows[(str(w.couple.sp.composition()), w.couple.order.letters)]
        verbatim = {parse_exact(t) for t in row.root_texts}
        got = set(w.roots.roots)
        if tied_pairs_of(row.configuration()):
            removed = verbatim - got
            added = got - verbatim
            assert len(removed) == len(added) == 1
            (a,), (b,) = removed, added
            assert abs(a) == 1 and Fraction(1, 2) <= abs(b) < 1 and (a > 0) == (b > 0)
        else:
            assert verbatim == got
