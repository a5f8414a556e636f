"""Subweb specifications: declarative traversal scopes.

A specification is an ordered list of :class:`SubwebRule` — glob patterns
over document URLs with an ``allow``/``deny`` action and an optional
depth cap — plus an origin-admission policy.  It answers "may this link
be dereferenced at all?" independently of any query, after the
distributed subweb-specification proposal (arXiv:2302.14411): data
publishers (or the querying user, via ``--subweb file.json``) declare
which parts of the Web a traversal should range over, instead of the
engine discovering that the hard way one dereference at a time.

Rule matching is first-match-wins in rule order; a URL no rule matches
gets ``default_action``.  Globs use ``*`` (within one path segment),
``**`` (across segments), and ``?`` (one character).

Origin admission is the spec's second axis: with ``origins="any"`` every
origin is fair game (the paper's open-Web default); ``origins="declared"``
denies documents from origins that are neither seed origins nor *declared*
by already-traversed data — an origin becomes declared when a traversed
document mentions it as the object of one of the ``admit_origins_via``
predicates (e.g. ``snvoc:likes``: the things a profile points at are part
of the query's subweb; unrelated origins are not).

Specifications are plain frozen data — picklable, so
:class:`~repro.service.shards.ShardSpec` can carry one to worker
processes, and composable with ``compose`` (CLI spec + specs discovered
inside pods).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from ...rdf.document import ParsedDocument
from ...rdf.namespaces import SUBWEB
from ...rdf.terms import Literal, NamedNode

__all__ = ["SubwebRule", "SubwebSpecification", "glob_to_regex"]


def glob_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a URL glob: ``**`` crosses ``/``, ``*`` does not."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "*":
            if pattern.startswith("**", i):
                out.append(".*")
                i += 2
            else:
                out.append("[^/]*")
                i += 1
        elif ch == "?":
            out.append("[^/]")
            i += 1
        else:
            out.append(re.escape(ch))
            i += 1
    return re.compile("".join(out) + r"\Z")


@dataclass(frozen=True, slots=True)
class SubwebRule:
    """One allow/deny rule over document URLs.

    ``max_depth`` (when > 0) further restricts an ``allow`` rule: a
    matching link deeper than the cap is denied.  ``label`` names the rule
    in pruning statistics (``pruned_by_rule``); it defaults to the glob.
    """

    match: str
    action: str = "allow"
    max_depth: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.action not in ("allow", "deny"):
            raise ValueError(f"rule action must be allow|deny, got {self.action!r}")
        if not self.label:
            object.__setattr__(self, "label", f"{self.action}:{self.match}")

    def matches(self, url: str) -> bool:
        return _compiled(self.match).search(url) is not None


#: The predicates of a spec document that carry its declarations.
_SPEC_VOCABULARY = (
    SUBWEB.defaultAction,
    SUBWEB.origins,
    SUBWEB.admitVia,
    SUBWEB.sourceDepth,
    SUBWEB.match,
    SUBWEB.action,
    SUBWEB.maxDepth,
)

# Compiled-glob cache, keyed by pattern text.  Rules are frozen dataclasses
# that travel through pickle (ShardSpec), so the compiled form lives here
# rather than on the instance.
_GLOB_CACHE: dict[str, "re.Pattern[str]"] = {}


def _compiled(pattern: str) -> "re.Pattern[str]":
    regex = _GLOB_CACHE.get(pattern)
    if regex is None:
        regex = _GLOB_CACHE[pattern] = glob_to_regex(pattern)
    return regex


@dataclass(frozen=True, slots=True)
class SubwebSpecification:
    """An ordered rule list plus the origin-admission policy."""

    rules: tuple[SubwebRule, ...] = ()
    default_action: str = "allow"
    #: ``"any"`` (open Web) or ``"declared"`` (sources must be seed
    #: sources or declared via ``admit_origins_via`` predicates in
    #: traversed data).
    origins: str = "any"
    #: Predicate IRIs whose objects declare admitted sources.
    admit_origins_via: tuple[str, ...] = ()
    #: Granularity of a "source" for admission: 0 means the network
    #: origin; N > 0 appends the first N path segments — e.g. 2 makes
    #: ``https://host/pods/alice/`` one source, which is what Solid needs
    #: when many pods share one host.
    source_depth: int = 0

    def __post_init__(self) -> None:
        if self.default_action not in ("allow", "deny"):
            raise ValueError(f"default_action must be allow|deny, got {self.default_action!r}")
        if self.origins not in ("any", "declared"):
            raise ValueError(f"origins must be any|declared, got {self.origins!r}")

    # -- evaluation -----------------------------------------------------------

    def decide(self, url: str, depth: int = 0) -> tuple[bool, str]:
        """``(allowed, rule_label)`` for a document URL at traversal depth.

        First matching rule wins; the label of the denying rule (or
        ``"default"``) feeds pruning attribution.
        """
        for rule in self.rules:
            if not rule.matches(url):
                continue
            if rule.action == "deny":
                return False, rule.label
            if rule.max_depth and depth > rule.max_depth:
                return False, f"depth>{rule.max_depth}:{rule.label}"
            return True, rule.label
        if self.default_action == "deny":
            return False, "default"
        return True, "default"

    @property
    def restricts(self) -> bool:
        """Whether this spec can ever deny anything."""
        return (
            self.default_action == "deny"
            or self.origins == "declared"
            or any(rule.action == "deny" or rule.max_depth for rule in self.rules)
        )

    # -- composition ----------------------------------------------------------

    def compose(self, other: "SubwebSpecification") -> "SubwebSpecification":
        """This spec refined by ``other`` (e.g. one discovered in a pod).

        Rules concatenate (this spec's rules keep precedence), the
        stricter origin policy wins, and origin-admission predicates
        union.  ``default_action`` stays this spec's — a discovered spec
        narrows, it does not re-open.
        """
        origins = "declared" if "declared" in (self.origins, other.origins) else "any"
        return SubwebSpecification(
            rules=self.rules + other.rules,
            default_action=self.default_action,
            origins=origins,
            admit_origins_via=tuple(
                dict.fromkeys(self.admit_origins_via + other.admit_origins_via)
            ),
            source_depth=max(self.source_depth, other.source_depth),
        )

    # -- JSON round-trip (the ``--subweb`` file format) ----------------------

    def to_json(self) -> dict:
        return {
            "default": self.default_action,
            "origins": self.origins,
            "admit_origins_via": list(self.admit_origins_via),
            "source_depth": self.source_depth,
            "rules": [
                {
                    "match": rule.match,
                    "action": rule.action,
                    **({"max_depth": rule.max_depth} if rule.max_depth else {}),
                    **({"label": rule.label} if rule.label != f"{rule.action}:{rule.match}" else {}),
                }
                for rule in self.rules
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SubwebSpecification":
        rules = tuple(
            SubwebRule(
                match=entry["match"],
                action=entry.get("action", "allow"),
                max_depth=int(entry.get("max_depth", 0)),
                label=entry.get("label", ""),
            )
            for entry in data.get("rules", ())
        )
        return cls(
            rules=rules,
            default_action=data.get("default", "allow"),
            origins=data.get("origins", "any"),
            admit_origins_via=tuple(data.get("admit_origins_via", ())),
            source_depth=int(data.get("source_depth", 0)),
        )

    @classmethod
    def from_file(cls, path: str) -> "SubwebSpecification":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    # -- RDF form (specs discovered as documents inside pods) ----------------

    @classmethod
    def from_document(cls, document: ParsedDocument) -> Optional["SubwebSpecification"]:
        """Parse a spec document (``subweb:`` vocabulary); None if absent.

        Shape::

            <> subweb:defaultAction "allow" ;
               subweb:origins "declared" ;
               subweb:admitVia snvoc:likes .
            <#r0> a subweb:Rule ; subweb:match "…/noise/**" ;
                  subweb:action "deny" ; subweb:maxDepth 4 .

        Rules order by subject IRI for determinism.
        """
        default_action = None
        origins = None
        source_depth = 0
        admit_via: list[str] = []
        rule_fields: dict[object, dict[str, object]] = {}
        for triple in document.select(_SPEC_VOCABULARY):
            predicate = triple.predicate
            obj = triple.object
            if predicate == SUBWEB.defaultAction and isinstance(obj, Literal):
                default_action = obj.value
            elif predicate == SUBWEB.origins and isinstance(obj, Literal):
                origins = obj.value
            elif predicate == SUBWEB.admitVia and isinstance(obj, NamedNode):
                admit_via.append(obj.value)
            elif predicate == SUBWEB.sourceDepth and isinstance(obj, Literal):
                try:
                    source_depth = int(obj.value)
                except ValueError:
                    pass
            elif predicate == SUBWEB.match and isinstance(obj, Literal):
                rule_fields.setdefault(triple.subject, {})["match"] = obj.value
            elif predicate == SUBWEB.action and isinstance(obj, Literal):
                rule_fields.setdefault(triple.subject, {})["action"] = obj.value
            elif predicate == SUBWEB.maxDepth and isinstance(obj, Literal):
                try:
                    rule_fields.setdefault(triple.subject, {})["max_depth"] = int(obj.value)
                except ValueError:
                    pass
        if default_action is None and origins is None and not rule_fields:
            return None
        rules = tuple(
            SubwebRule(
                match=str(fields["match"]),
                action=str(fields.get("action", "allow")),
                max_depth=int(fields.get("max_depth", 0)),
            )
            for _, fields in sorted(rule_fields.items(), key=lambda item: str(item[0]))
            if "match" in fields
        )
        return cls(
            rules=rules,
            default_action=default_action or "allow",
            origins=origins or "any",
            admit_origins_via=tuple(dict.fromkeys(admit_via)),
            source_depth=source_depth,
        )
