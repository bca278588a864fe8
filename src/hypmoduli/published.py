"""Published degree-6 witness corpus.

Thirteen root configurations from the literature, each realizing a stated
(sign pattern, order of moduli) couple.  Roots and printed coefficients are
kept verbatim as decimal strings; several configurations carry a +-1 tied
root pair whose printed order presumes an infinitesimal symmetry break, so
the loader resolves those ties exactly before validating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .patterns import Couple, ModuliOrder, SignPattern
from .poly import (
    RootConfiguration,
    Witness,
    make_witness,
    resolve_ties,
    tied_pairs_of,
)

PUBLISHED_PROVENANCE = "published-example"

# (composition, order, roots, printed coefficients q_{d-1}..q_0; q_d = 1)
_ROWS = [
    ("3,1,2,1", "PPPNNN", ["0.39", "0.4", "1", "-1", "-1.01", "-9"],
     ["8.23", "0.1902", "-13.26928", "0.08276", "5.03928", "-1.27296"]),
    ("3,1,2,1", "PPNPNN", ["0.2", "1", "-1", "3.1", "-5", "-10"],
     ["11.7", "0.12", "-167.4", "29.88", "155.7", "-31"]),
    ("3,1,2,1", "PPNNPN", ["0.39", "0.4", "-0.99", "-1", "1", "-9"],
     ["9.2", "0.1739", "-14.68046", "0.21606", "5.48046", "-1.38996"]),
    ("3,1,2,1", "NPPPNN", ["-1", "1", "2", "2.1", "-5", "-20"],
     ["20.9", "0.7", "-325.9", "418.3", "305", "-420"]),
    ("2,1,2,2", "PNNPPN", ["4.52", "-5.02", "-5.32", "7.002", "8.003", "-9.32"],
     ["0.135", "-136.926694", "27.6529548", "5404.574382", "-344.273285", "-63044.12478"]),
    ("2,1,2,2", "NPPPNN", ["-2.5", "4.95", "6.47", "8.19", "-8.57", "-9.05"],
     ["0.51", "-147.3884", "73.049286", "6188.991502", "-7552.653247", "-50858.41147"]),
    ("2,1,2,2", "NPPNPN", ["-1.49", "1.87", "5.77", "-5.96", "7.58", "-8.07"],
     ["0.3", "-98.5114", "5.90954", "2380.426651", "-720.0363792", "-5861.282963"]),
    ("2,1,2,2", "NPPNNP", ["-1.34", "3.43", "5.34", "-7.86", "-9", "9.4"],
     ["0.03", "-136.6074", "60.496052", "4547.732428", "-6518.600281", "-16320.4859"]),
    ("2,1,2,2", "NNPPPN", ["-2.5", "-3.03", "4.28", "4.4", "5.6", "-9.4"],
     ["0.65", "-86.2034", "122.15104", "1425.210824", "-1478.768374", "-7509.222336"]),
    ("2,2,2,1", "NPPNNP", ["-4", "5", "6", "-8.74", "-9.41", "9.59"],
     ["1.56", "-165.7351", "-145.848506", "7833.610842", "24.186884", "-94645.70472"]),
    ("3,2,1,1", "PPPNNN", ["0.039", "0.4", "1", "-1", "-1.001", "-4"],
     ["4.562", "0.824161", "-6.2417404", "-1.7616986", "1.6797404", "-0.0624624"]),
    ("3,2,1,1", "PPNNPN", ["0.09", "0.19", "-0.8", "-1", "1", "-13"],
     ["13.52", "5.5531", "-16.19602", "-6.37526", "2.67602", "-0.17784"]),
    ("3,2,1,1", "PNPPNN", ["0.02", "-1", "1", "3.1", "-5", "-20"],
     ["21.88", "21.062", "-332.33", "-15.862", "310.45", "-6.2"]),
]


@dataclass(frozen=True, slots=True)
class PublishedRow:
    """One verbatim table row: claimed couple, roots, printed coefficients."""

    composition: str
    order: str
    root_texts: tuple[str, ...]
    printed_tail: tuple[str, ...]

    @property
    def couple(self) -> Couple:
        return Couple(SignPattern.parse(self.composition), ModuliOrder(self.order))

    def configuration(self) -> RootConfiguration:
        return RootConfiguration.parse(self.root_texts)


def published_rows() -> list[PublishedRow]:
    return [PublishedRow(c, o, tuple(r), tuple(p)) for c, o, r, p in _ROWS]


@cache
def published_witnesses() -> tuple[Witness, ...]:
    """Validated witnesses for all thirteen rows.

    Rows with a tied +-1 pair get the tie resolved toward the claimed
    order; untied rows are used as-is.  Every result is re-validated
    exactly, so a corpus transcription error would fail loudly here.
    """
    out = []
    for row in published_rows():
        rc = row.configuration()
        if tied_pairs_of(rc):
            rc = resolve_ties(rc, row.couple)
        w = make_witness(rc, PUBLISHED_PROVENANCE)
        if w.couple != row.couple:
            raise ValueError(f"row for {row.couple} realizes {w.couple} instead")
        w.validate()
        out.append(w)
    return tuple(out)
