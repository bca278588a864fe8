"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs one operation per call
into the program, checks every output exactly after the timed region, and
reduces the outputs to a fingerprint that must repeat exactly for one
commit and one seed.  The program modules are passed in after import, so
the caller controls when `hypmoduli` is loaded and which functions are
wrapped.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter

# The sweep budget is the one the ROADMAP baseline uses per couple at seed 0:
# 278 MC searches, 120 exhausted, exactly the 12 encoded-only couples left
# Unknown.  5k leaves 15 Unknown at seed 0.  At other seeds a few realizable
# couples need more than 10k draws, so 12 to 14 stay Unknown.
DEG6_BUDGET = 10_000
SEARCH_BUDGET = 20_000
CERT_SAMPLES = 100

DECIDED_KINDS = (
    "witness",
    "forced-sign",
    "rigid-order",
    "canonical-pattern",
    "propagation",
    "frontier",
)


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class Workload:
    """One set of inputs and the operation applied to each.

    `units(x)` is how many operations input x counts for, and
    `decisions(x, result)` returns (questions asked, questions left
    undecided) for it.  When `request_per_input` is false the whole pass is
    one request, as in a single CLI invocation over every input.
    """

    name = ""
    request_per_input = True

    def __init__(self, hm, table, store, seed: int):
        self.hm = hm
        self.table = table
        self.store = store
        self.seed = seed
        self.inputs: list = []

    def units(self, x) -> int:
        return 1

    def run(self, x):
        raise NotImplementedError

    def decisions(self, x, result) -> tuple[int, int]:
        raise NotImplementedError

    def check(self, x, result) -> list[str]:
        """Failed exact checks for one input's result (empty when correct)."""
        raise NotImplementedError

    def fingerprint(self, results) -> dict:
        raise NotImplementedError


class Deg6Classify(Workload):
    """`hypmoduli decide --all --degree 6`: classify_pattern on all 64
    degree-6 patterns (924 couples) with the published witness store."""

    name = "deg6-classify"
    request_per_input = False

    def __init__(self, hm, table, store, seed):
        super().__init__(hm, table, store, seed)
        self.cfg = hm.search.SamplerConfig(seed=seed, budget=DEG6_BUDGET)
        patterns = hm.patterns
        self.inputs = [sp for c in range(7) for sp in patterns.enumerate_patterns(6, c)]

    def units(self, sp) -> int:
        return len(self.hm.patterns.compatible_orders(sp))

    def run(self, sp):
        return self.hm.certify.classify_pattern(sp, self.cfg, self.store)

    def decisions(self, sp, verdicts):
        unknown = self.hm.certify.Status.UNKNOWN
        return len(verdicts), sum(v.status is unknown for v in verdicts.values())

    def check(self, sp, verdicts):
        certify = self.hm.certify
        Couple = self.hm.patterns.Couple
        failures = []
        if set(verdicts) != set(self.hm.patterns.compatible_orders(sp)):
            failures.append(f"{sp}: verdicts do not cover the compatible orders")
        d = sp.degree
        for order, v in verdicts.items():
            couple = Couple(sp, order)
            where = f"{couple} [{v.evidence_kind}]"
            if v.couple != couple:
                failures.append(f"{where}: verdict is for {v.couple}")
                continue
            if v.status is certify.Status.UNKNOWN:
                continue
            if v.status is not self.table.status(couple):
                failures.append(f"{where}: {v.status.value} contradicts the encoded table")
            if v.status is certify.Status.REALIZABLE:
                failures.extend(f"{where}: {m}" for m in _witness_failures(v.evidence, couple))
            elif v.evidence_kind == "forced-sign":
                cert = v.evidence
                if cert.order != order or cert.sign == sp.signs[d - cert.k]:
                    failures.append(f"{where}: certificate does not contradict the pattern")
                failures.extend(
                    f"{where}: {m}" for m in _certificate_failures(certify, cert, self.seed)
                )
        return failures

    def fingerprint(self, results):
        verdicts = [v for table in results for v in table.values()]
        kinds = Counter(
            v.evidence_kind for v in verdicts if v.status is not self.hm.certify.Status.UNKNOWN
        )
        evidence = []
        for v in sorted(verdicts, key=lambda v: (str(v.couple.sp), v.couple.order.letters)):
            if v.evidence_kind == "witness":
                evidence.append(f"{v.couple}\t{v.evidence.roots}")
            elif v.evidence_kind == "forced-sign":
                evidence.append(f"{v.couple}\t{v.evidence}")
        return {
            "decided": {k: kinds.get(k, 0) for k in DECIDED_KINDS},
            "undecided": sum(
                v.status is self.hm.certify.Status.UNKNOWN for v in verdicts
            ),
            "verdict_rows_sha256": hashlib.sha256(
                self.hm.results.verdict_rows(verdicts).encode()
            ).hexdigest(),
            "evidence_sha256": _sha256(evidence),
        }


class SearchRequests(Workload):
    """`hypmoduli search` once per realizable degree-6 couple whose order is
    neither rigid nor canonical (202 couples), with the published store."""

    name = "search-requests"

    def __init__(self, hm, table, store, seed):
        super().__init__(hm, table, store, seed)
        self.cfg = hm.search.SamplerConfig(seed=seed, budget=SEARCH_BUDGET)
        p = hm.patterns
        self.inputs = [
            couple
            for couple in table.entries
            if table.status(couple) is hm.certify.Status.REALIZABLE
            and not p.is_rigid_order(couple.order)
            and couple.order != p.canonical_order(couple.sp)
        ]

    def run(self, couple):
        return self.hm.search.witness_for(couple, self.cfg, self.store)

    def decisions(self, couple, witness):
        return 1, int(witness is None)

    def check(self, couple, witness):
        if witness is None:
            return []
        return [f"{couple}: {m}" for m in _witness_failures(witness, couple)]

    def fingerprint(self, results):
        lines = [
            f"{couple}\t{'-' if w is None else w.roots}"
            for couple, w in zip(self.inputs, results)
        ]
        return {
            "no_witness": sum(w is None for w in results),
            "witness_sha256": _sha256(lines),
        }


class CertCorpus(Workload):
    """`hypmoduli certify --samples 100` on every degree-6 order and every
    single-tie wall order: forced_sign for each k < 6, and each certificate
    found through verify_certificate and sample_certificate."""

    name = "cert-corpus"

    def __init__(self, hm, table, store, seed):
        super().__init__(hm, table, store, seed)
        orders = [
            hm.patterns.ModuliOrder("".join(letters))
            for letters in itertools.product("PN", repeat=6)
        ]
        walls = [
            hm.certify.TiedOrder(o.letters, (r,))
            for o in orders
            for r in range(1, 6)
            if o.letters[r - 1] != o.letters[r]
        ]
        self.inputs = orders + walls

    def run(self, order):
        certify = self.hm.certify
        found = []
        for k in range(order.degree):
            cert = certify.forced_sign(order, k)
            if cert is None:
                continue
            verified = certify.verify_certificate(cert)
            violations = certify.sample_certificate(cert, samples=CERT_SAMPLES, seed=self.seed)
            found.append((k, cert, verified, violations))
        return found

    def decisions(self, order, found):
        return order.degree, order.degree - len(found)

    def check(self, order, found):
        failures = []
        for k, cert, verified, violations in found:
            where = f"{order} q_{k}"
            if cert.order != order or cert.k != k:
                failures.append(f"{where}: certificate is for {cert.order} q_{cert.k}")
            if verified is not True:
                failures.append(f"{where}: verify_certificate returned {verified!r}")
            if violations:
                failures.append(f"{where}: {violations} sampled violations")
        return failures

    def fingerprint(self, results):
        lines = [str(cert) for found in results for _, cert, _, _ in found]
        return {
            "certificates": len(lines),
            "violations": sum(v for found in results for _, _, _, v in found),
            "certificate_sha256": _sha256(lines),
        }


def _witness_failures(witness, couple) -> list[str]:
    failures = []
    if witness.couple != couple:
        failures.append(f"witness claims {witness.couple}")
    try:
        witness.validate()
    except ValueError as exc:
        failures.append(f"witness fails validation: {exc}")
    return failures


def _certificate_failures(certify, cert, seed) -> list[str]:
    try:
        certify.verify_certificate(cert)
    except certify.CertificateError as exc:
        return [f"certificate fails verification: {exc}"]
    violations = certify.sample_certificate(cert, samples=CERT_SAMPLES, seed=seed)
    return [f"{violations} sampled violations"] if violations else []


WORKLOADS = {w.name: w for w in (Deg6Classify, SearchRequests, CertCorpus)}
