"""Strict positive definiteness diagnostics on complex spheres.

Strict positive definiteness of an expansion with nonnegative coefficients
is governed by the set of index differences carrying positive mass,
``{m - n : a_{m,n} > 0}``: the kernel is strictly positive definite exactly
when that set intersects every arithmetic progression of the integers.

A truncated sequence can only ever witness failures of this condition: a
progression missed within the truncation certifies a violation relative to
the available support, while meeting every progression up to some modulus
is merely consistency, never a proof. The verdicts here are labeled
accordingly, and the class-transfer helper only consumes evidence that was
supplied to it; it never upgrades "consistent" to "strict".

``transfer_class`` states the four class-transfer rules as one table:
each row names a rule, whether its premises hold, the premise texts and
the concluded class, and every row that holds becomes a
``ClassImplication``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .quadrature import _integer, _real
from .sequences import ComplexSchoenbergSequence

__all__ = [
    "SupportPattern",
    "SpdReport",
    "ClassEvidence",
    "ClassImplication",
    "support_pattern",
    "check_progressions",
    "transfer_class",
]

DEFAULT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class SupportPattern:
    """Index differences m - n carrying coefficient mass above a threshold."""

    diffs: frozenset
    threshold: float
    truncation: int

    def to_dict(self) -> dict:
        return {
            "diffs": sorted(self.diffs),
            "threshold": self.threshold,
            "truncation": self.truncation,
        }


@dataclass(frozen=True)
class SpdReport:
    """Progression verdicts for one support pattern.

    ``hits[k][r]`` says whether the support meets residue r modulo k.
    ``summary`` is one of ``"consistent-with-SPD"`` (all progressions met up
    to ``max_modulus``; not a proof), ``"violates-at-(k,r)"`` (a certified
    miss relative to the truncated support), or ``"inconclusive"`` (empty
    pattern).
    """

    max_modulus: int
    hits: dict
    violations: tuple
    summary: str
    transfer_notes: tuple = ()

    @property
    def certified_violation(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> dict:
        return {
            "max_modulus": self.max_modulus,
            "hits": {str(k): list(v) for k, v in self.hits.items()},
            "violations": [list(v) for v in self.violations],
            "summary": self.summary,
            "transfer_notes": list(self.transfer_notes),
        }


@dataclass(frozen=True)
class ClassEvidence:
    """Membership evidence for one positive definiteness class.

    ``space`` is "complex" (sphere parameter ``dim`` = q) or "real"
    (``dim`` = d). ``member`` / ``strict`` are True, False or None for
    unknown; evidence is consumed, never derived, by the transfer rules.
    """

    space: str
    dim: int
    member: bool | None = None
    strict: bool | None = None
    source: str = ""

    def describe(self) -> str:
        where = (
            f"complex sphere (q={self.dim})"
            if self.space == "complex"
            else f"real sphere S^{self.dim}"
        )
        parts = []
        if self.member is not None:
            parts.append(("member" if self.member else "non-member"))
        if self.strict is not None:
            parts.append("strictly PD" if self.strict else "not strictly PD")
        return f"{' and '.join(parts) or 'no information'} on the {where}"


@dataclass(frozen=True)
class ClassImplication:
    rule: str
    premises: tuple
    conclusion: ClassEvidence

    @property
    def statement(self) -> str:
        return f"[{self.rule}] {' + '.join(self.premises)} => {self.conclusion.describe()}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "premises": list(self.premises),
            "conclusion": self.conclusion.describe(),
        }


def support_pattern(
    seq: ComplexSchoenbergSequence, threshold: float = DEFAULT_THRESHOLD
) -> SupportPattern:
    """Extract the difference set of the coefficients above ``threshold``.

    Requires a mass-valid sequence; the diagnostics are statements about
    nonnegative expansions and are meaningless otherwise. The threshold
    must be a real number in [0, inf): below 0, roundoff entries count as
    support.
    """
    threshold = _real("threshold", threshold, least=0)
    if not seq.valid_mass:
        raise ValueError("support_pattern requires a mass-valid sequence")
    return SupportPattern(
        diffs=frozenset(seq.diagonals(threshold)),
        threshold=threshold,
        truncation=seq.max_degree,
    )


def check_progressions(pattern: SupportPattern, max_modulus: int | None = None) -> SpdReport:
    """Test the difference set against every progression of modulus <= K.

    A missed progression is a certified failure witness relative to the
    truncated support; an all-pass is reported as consistency only.
    """
    if max_modulus is None:
        max_modulus = max(pattern.truncation, 1)
    max_modulus = _integer("max_modulus", max_modulus, 1)
    diffs = pattern.diffs
    hits = {}
    violations = []
    for k in range(1, max_modulus + 1):
        residues_hit = [False] * k
        for x in diffs:
            residues_hit[x % k] = True
        hits[k] = tuple(residues_hit)
        for r, ok in enumerate(residues_hit):
            if not ok:
                violations.append((k, r))
    if not diffs:
        summary = "inconclusive"
    elif violations:
        k, r = violations[0]
        summary = f"violates-at-({k},{r})"
    else:
        summary = "consistent-with-SPD"
    return SpdReport(
        max_modulus=max_modulus,
        hits=hits,
        violations=tuple(violations),
        summary=summary,
    )


def transfer_class(
    seq_q: ComplexSchoenbergSequence,
    verdicts: SpdReport,
    q_prime: int,
    q_prime_member: bool | None = None,
    strict_at_q: bool | None = None,
    real_evidence: ClassEvidence | None = None,
) -> tuple[ClassImplication, ...]:
    """Deductions linking positive definiteness classes across dimensions.

    The rules applied, each purely propositional:

    * strict membership at q plus membership at q' gives strict membership
      at q';
    * membership-without-strictness at q plus membership at q' gives
      membership-without-strictness at q';
    * membership at q plus strictness of the composed real restriction at
      any real dimension gives strictness of that restriction on the real
      sphere of dimension 2q - 1;
    * strict membership at q plus membership of the composed real
      restriction at real dimension d gives strictness at that same d.

    Evidence handling: membership at q is read off ``seq_q.valid_mass``;
    strictness at q defaults to False when ``verdicts`` certifies a
    violation and to unknown otherwise, overridable through
    ``strict_at_q`` when outside evidence exists. Membership at q' < q
    follows from class nesting; for q' > q it must be supplied. Rules whose
    premises are unknown are simply not emitted.
    """
    q_prime = _integer("q_prime", q_prime, 2)
    if real_evidence is None:
        real_evidence = ClassEvidence("real", 0)  # membership and strictness unknown
    elif real_evidence.space != "real":
        raise ValueError("real_evidence must concern a real sphere")
    q, d = seq_q.q, real_evidence.dim
    member_q = bool(seq_q.valid_mass)
    strict_q = False if strict_at_q is None and verdicts.certified_violation else strict_at_q
    if q_prime_member is None and q_prime <= q and member_q:
        q_prime_member = True

    pd_q = f"positive definite on the complex sphere (q={q})"
    strict_pd_q = f"strictly positive definite on the complex sphere (q={q})"
    pd_q_prime = f"positive definite on the complex sphere (q={q_prime})"
    # (rule, premises hold, premise texts, concluded (space, dim, strict))
    rules = (
        ("strict-transfer-complex", strict_q is True and q_prime_member,
         (strict_pd_q, pd_q_prime), ("complex", q_prime, True)),
        ("non-strict-transfer-complex", strict_q is False and member_q and q_prime_member,
         (pd_q + ", not strictly", pd_q_prime), ("complex", q_prime, False)),
        ("real-strictness-lifts", member_q and real_evidence.strict,
         (pd_q, f"composed restriction strictly positive definite on S^{d}"),
         ("real", 2 * q - 1, True)),
        ("complex-strictness-descends", strict_q is True and real_evidence.member,
         (strict_pd_q, f"composed restriction positive definite on S^{d}"), ("real", d, True)),
    )
    return tuple(
        ClassImplication(
            rule, texts, ClassEvidence(space, dim, member=True, strict=strict, source="transfer")
        )
        for rule, holds, texts, (space, dim, strict) in rules
        if holds
    )


def report_with_notes(report: SpdReport, implications) -> SpdReport:
    """Copy of a report carrying the implication statements as notes."""
    return replace(report, transfer_notes=tuple(i.statement for i in implications))
