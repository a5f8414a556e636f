"""Seeded hostile-pod generator — the adversarial half of the test suite.

"A Prospective Analysis of Security Vulnerabilities within LTQP"
(PAPERS.md) enumerates what an open, untrusted web of pods can do to a
link-traversal engine.  This module plants those attacks in the simulated
universe so the hardening layers (origin budgets, read/parse caps, fair
queueing — see DESIGN.md §4e) can be exercised deterministically:

* ``link-trap``     — an infinite chain of LDP containers (with periodic
  back-edges) that a breadth-first traversal would follow forever;
* ``growing-doc``   — a document that is larger on every re-fetch and
  serves a *different* validator each time, defeating both the HTTP
  cache and validator-keyed document-store dedup (includes a two-node
  container cycle with mutating ETags, the regression case for
  seen-URL-set termination);
* ``oversized-doc`` — one enormous document intended to exhaust memory
  and parser CPU in a single response;
* ``slow-trickle``  — an origin that drips bytes pathologically slowly
  (rigged through the existing :class:`~repro.net.faults.FaultPlan`
  trickle rule, so the client's per-attempt timeout is the defense);
* ``poison``        — cross-pod documents asserting triples about benign
  pods' subjects, trying to smuggle fabricated facts into results and
  lure traversal deeper into hostile territory.

Every hostile pod lives on its **own origin** (``https://adv-<kind>-<i>.
example``), unlike the benign pods which share the SolidBench host —
that is what makes per-origin budgets a meaningful containment boundary.
Deployment never touches benign documents: traversal reaches an attack
only through *lure seeds* (:attr:`AdversaryDeployment.lures`) appended
to a query's seed list, which is how the benign-equivalence property can
demand byte-identical results over benign pods.

Everything is a pure function of :class:`AdversaryPlan` (seeded), so any
observed behaviour replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..net.faults import FaultPlan, FaultRule
from ..net.message import Request, Response
from ..net.router import App, Internet
from ..rdf.namespaces import LDP, RDF, RDFS, SNVOC
from ..rdf.terms import Literal, NamedNode
from ..rdf.triples import Triple
from ..rdf.writer import serialize_turtle

__all__ = [
    "ATTACK_KINDS",
    "POISON_WATERMARK",
    "is_tainted_binding",
    "restrict_to_benign",
    "AdversaryPlan",
    "AdversaryDeployment",
    "deploy_adversary",
    "LinkTrapApp",
    "GrowingDocApp",
    "OversizedDocApp",
    "TrickleChainApp",
    "PoisonApp",
]

#: The five attack classes of the threat model (DESIGN.md §4e).
ATTACK_KINDS = ("link-trap", "growing-doc", "oversized-doc", "slow-trickle", "poison")

#: Every literal a poisoning document fabricates embeds this marker, and
#: every hostile IRI lives on an ``https://<prefix>-…`` origin — so a
#: result binding is attributable to the adversary iff
#: :func:`is_tainted_binding` says so.  This is what "results restricted
#: to benign pods" means operationally in the equivalence property.
POISON_WATERMARK = "~adv-poison~"


def is_tainted_binding(binding, origin_prefix: str = "adv") -> bool:
    """Does this result binding carry any adversary-attributable term?

    True when a term is an IRI on a hostile origin
    (``https://<origin_prefix>-…``) or a literal carrying the
    :data:`POISON_WATERMARK`.  Bindings built purely from benign
    documents can contain neither."""
    text = repr(binding)
    return POISON_WATERMARK in text or f"://{origin_prefix}-" in text


def restrict_to_benign(bindings, origin_prefix: str = "adv"):
    """Drop adversary-attributable bindings (see :func:`is_tainted_binding`)."""
    return [b for b in bindings if not is_tainted_binding(b, origin_prefix)]


@dataclass(frozen=True, slots=True)
class AdversaryPlan:
    """A seeded description of which attacks to plant, and how nasty.

    ``kinds`` selects attack classes (default: all five);
    ``pods_per_kind`` replicates each attack on that many distinct
    origins.  The remaining knobs size the individual attacks.  The plan
    is frozen and hashable — two equal plans deploy identical adversaries.
    """

    seed: int = 42
    kinds: tuple[str, ...] = ATTACK_KINDS
    pods_per_kind: int = 1
    #: Origins are ``https://<origin_prefix>-<kind>-<index>.example``;
    #: vary the prefix to deploy several adversaries side by side.
    origin_prefix: str = "adv"
    # -- link trap -----------------------------------------------------
    #: Containers listed per trap document (branching factor).
    trap_fanout: int = 2
    #: Every document also links back to the trap root (a cycle on top
    #: of the infinite chain, so dedup alone never terminates it).
    trap_cycle: bool = True
    # -- growing document ---------------------------------------------
    #: Triples added per re-fetch of the growing document.
    growth_step_triples: int = 32
    # -- oversized document -------------------------------------------
    #: Approximate serialized size of the oversized document.
    oversized_bytes: int = 1 << 20
    # -- slow trickle --------------------------------------------------
    #: Length of the document chain behind the trickling origin.
    trickle_chain: int = 32
    #: Fixed extra delay per response (simulated seconds).
    trickle_delay: float = 0.05
    #: When > 0, delay additionally scales with body size (bytes/second).
    drip_bytes_per_second: float = 0.0
    # -- poisoning -----------------------------------------------------
    #: Number of poison documents per poisoning origin.
    poison_docs: int = 8

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in ATTACK_KINDS:
                raise ValueError(f"unknown attack kind {kind!r} (one of {ATTACK_KINDS})")

    def origin_for(self, kind: str, index: int) -> str:
        return f"https://{self.origin_prefix}-{kind}-{index}.example"

    def origins(self) -> list[str]:
        return [
            self.origin_for(kind, index)
            for kind in self.kinds
            for index in range(self.pods_per_kind)
        ]


def _turtle_response(triples: list[Triple], etag: Optional[str] = None) -> Response:
    headers = {"content-type": "text/turtle"}
    if etag:
        headers["etag"] = etag
    return Response(200, headers, serialize_turtle(triples).encode("utf-8"))


def _container(url: str, members: Sequence[str]) -> list[Triple]:
    node = NamedNode(url)
    triples = [Triple(node, RDF.type, LDP.Container)]
    triples.extend(Triple(node, LDP.contains, NamedNode(member)) for member in members)
    return triples


class _HostileApp(App):
    """Base: a hostile pod mounted on one origin, counting its requests."""

    def __init__(self, origin: str) -> None:
        self.origin = origin.rstrip("/")
        self.requests = 0
        self.requests_by_path: dict[str, int] = {}

    def url(self, path: str) -> str:
        return f"{self.origin}{path}"

    async def handle(self, request: Request) -> Response:
        self.requests += 1
        path = request.path
        self.requests_by_path[path] = self.requests_by_path.get(path, 0) + 1
        if request.method not in ("GET", "HEAD"):
            return Response(405, {"content-type": "text/plain"}, b"Method not allowed")
        response = self.get(path)
        if request.method == "HEAD":
            return Response(response.status, dict(response.headers), b"")
        return response

    def get(self, path: str) -> Response:
        raise NotImplementedError


class LinkTrapApp(_HostileApp):
    """An infinite LDP container chain: ``/trap/n`` contains
    ``/trap/{n*fanout+1} … /trap/{n*fanout+fanout}`` (and, with
    ``cycle``, a back-edge to ``/trap/0``).  Every URL is distinct, so
    URL dedup never terminates it — only a budget can."""

    def __init__(self, origin: str, fanout: int = 2, cycle: bool = True) -> None:
        super().__init__(origin)
        self._fanout = max(1, fanout)
        self._cycle = cycle

    def get(self, path: str) -> Response:
        if path == "/":
            return _turtle_response(_container(self.url("/"), [self.url("/trap/0")]))
        if not path.startswith("/trap/"):
            return Response.not_found(self.url(path))
        try:
            index = int(path[len("/trap/"):])
        except ValueError:
            return Response.not_found(self.url(path))
        members = [
            self.url(f"/trap/{index * self._fanout + child + 1}")
            for child in range(self._fanout)
        ]
        if self._cycle:
            members.append(self.url("/trap/0"))
        return _turtle_response(_container(self.url(path), members), etag=f'W/"trap-{index}"')


class GrowingDocApp(_HostileApp):
    """A document that grows by ``step`` triples on every re-fetch, with
    a validator that mutates per request (defeating cache revalidation
    *and* validator-keyed document-store dedup), plus a two-node
    container cycle (``/cycle/a`` ⇄ ``/cycle/b``) whose ETags also
    mutate — the regression case for seen-URL-set termination."""

    def __init__(self, origin: str, step: int = 32) -> None:
        super().__init__(origin)
        self._step = max(1, step)

    def get(self, path: str) -> Response:
        serial = self.requests_by_path.get(path, 1)
        if path == "/":
            return _turtle_response(
                _container(self.url("/"), [self.url("/doc"), self.url("/cycle/a")])
            )
        if path == "/doc":
            node = NamedNode(self.url("/doc"))
            triples = [
                Triple(
                    NamedNode(f"{self.url('/doc')}#gen{i}"),
                    SNVOC.content,
                    Literal(f"generated filler triple {i} of revision {serial}"),
                )
                for i in range(self._step * serial)
            ]
            triples.append(Triple(node, RDFS.label, Literal(f"revision {serial}")))
            return _turtle_response(triples, etag=f'W/"grow-{serial}"')
        if path == "/cycle/a":
            return _turtle_response(
                _container(self.url("/cycle/a"), [self.url("/cycle/b")]),
                etag=f'W/"a-{serial}"',
            )
        if path == "/cycle/b":
            return _turtle_response(
                _container(self.url("/cycle/b"), [self.url("/cycle/a")]),
                etag=f'W/"b-{serial}"',
            )
        return Response.not_found(self.url(path))


class OversizedDocApp(_HostileApp):
    """One enormous document (~``target_bytes`` of serialized Turtle),
    generated once and served whole — the memory/CPU-exhaustion case the
    client read cap and parse cap must abort."""

    def __init__(self, origin: str, target_bytes: int = 1 << 20) -> None:
        super().__init__(origin)
        self._target_bytes = max(1024, target_bytes)
        self._body: Optional[bytes] = None

    def _oversized_body(self) -> bytes:
        if self._body is None:
            filler = "x" * 200
            triples = []
            size = 0
            index = 0
            while size < self._target_bytes:
                triple = Triple(
                    NamedNode(f"{self.url('/huge')}#s{index}"),
                    SNVOC.content,
                    Literal(f"{filler}{index}"),
                )
                triples.append(triple)
                size += 260  # close enough; the exact size is checked below
                index += 1
            body = serialize_turtle(triples).encode("utf-8")
            while len(body) < self._target_bytes:
                triples.extend(triples[: max(1, len(triples) // 4)])
                body = serialize_turtle(triples).encode("utf-8")
            self._body = body
        return self._body

    def get(self, path: str) -> Response:
        if path == "/":
            return _turtle_response(_container(self.url("/"), [self.url("/huge")]))
        if path == "/huge":
            return Response(
                200,
                {"content-type": "text/turtle", "etag": 'W/"huge"'},
                self._oversized_body(),
            )
        return Response.not_found(self.url(path))


class TrickleChainApp(_HostileApp):
    """A chain of small documents (``/t/0`` → … → ``/t/n-1``) served
    behind a :class:`~repro.net.faults.FaultPlan` trickle rule: each
    response is held back (optionally proportionally to its size), so an
    unhardened engine pays the full drip for every link while a
    per-attempt timeout cuts each one off."""

    def __init__(self, origin: str, chain: int = 32) -> None:
        super().__init__(origin)
        self._chain = max(1, chain)

    def get(self, path: str) -> Response:
        if path == "/":
            return _turtle_response(_container(self.url("/"), [self.url("/t/0")]))
        if not path.startswith("/t/"):
            return Response.not_found(self.url(path))
        try:
            index = int(path[len("/t/"):])
        except ValueError:
            return Response.not_found(self.url(path))
        if index >= self._chain:
            return Response.not_found(self.url(path))
        node = NamedNode(self.url(path))
        triples = [Triple(node, RDFS.label, Literal(f"trickle document {index}"))]
        members = []
        if index + 1 < self._chain:
            members = [self.url(f"/t/{index + 1}")]
        triples.extend(_container(self.url(path), members))
        return _turtle_response(triples, etag=f'W/"t-{index}"')


class PoisonApp(_HostileApp):
    """Cross-pod poisoning: each document asserts fabricated triples
    *about benign subjects* (e.g. that a benign person ``snvoc:knows`` a
    hostile-minted one) and lures traversal onward to the next poison
    document.  The fabricated facts always involve at least one
    hostile-origin term, so results restricted to benign pods must be
    unchanged — which is exactly what the equivalence property checks."""

    def __init__(
        self,
        origin: str,
        targets: Sequence[str],
        documents: int = 8,
        seed: int = 42,
    ) -> None:
        super().__init__(origin)
        self._targets = list(targets)
        self._documents = max(1, documents)
        self._seed = seed

    def get(self, path: str) -> Response:
        if path == "/":
            return _turtle_response(
                _container(self.url("/"), [self.url(f"/p/{i}") for i in range(self._documents)])
            )
        if not path.startswith("/p/"):
            return Response.not_found(self.url(path))
        try:
            index = int(path[len("/p/"):])
        except ValueError:
            return Response.not_found(self.url(path))
        if index >= self._documents:
            return Response.not_found(self.url(path))
        rng = random.Random(f"{self._seed}/poison/{self.origin}/{index}")
        node = NamedNode(self.url(path))
        impostor = NamedNode(f"{self.url(path)}#impostor")
        triples = [
            Triple(impostor, RDF.type, SNVOC.Person),
            Triple(impostor, SNVOC.firstName, Literal(f"Impostor{index} {POISON_WATERMARK}")),
            Triple(node, RDFS.label, Literal(f"poison document {index}")),
        ]
        if self._targets:
            # Fabricated claims *about* benign subjects: a fake Post whose
            # snvoc:hasCreator is a benign WebID matches the very pattern
            # the Discover templates anchor on, so an engine that trusts
            # this document emits fabricated (watermarked) results.
            for target in rng.sample(self._targets, min(3, len(self._targets))):
                victim = NamedNode(target)
                fake_post = NamedNode(f"{self.url(path)}#msg-{len(triples)}")
                triples.extend(
                    [
                        Triple(fake_post, SNVOC.hasCreator, victim),
                        Triple(fake_post, RDF.type, SNVOC.Post),
                        Triple(
                            fake_post,
                            SNVOC.content,
                            Literal(f"{POISON_WATERMARK} fabricated post {index}"),
                        ),
                        Triple(
                            fake_post,
                            SNVOC.creationDate,
                            Literal(f"{POISON_WATERMARK} 2026-01-01"),
                        ),
                        Triple(fake_post, SNVOC.id, Literal(f"{POISON_WATERMARK}{index}")),
                        Triple(victim, SNVOC.knows, impostor),
                        Triple(impostor, SNVOC.knows, victim),
                    ]
                )
        members = []
        if index + 1 < self._documents:
            members = [self.url(f"/p/{index + 1}")]
        triples.extend(_container(self.url(path), members))
        return _turtle_response(triples, etag=f'W/"p-{index}"')


@dataclass
class AdversaryDeployment:
    """A deployed adversary: its origins, apps, lures, and fault plan.

    ``lures`` are the hostile entry URLs; append them to a query's seed
    list to expose that execution to the adversary (benign documents are
    never modified).  ``uninstall`` retracts every origin and restores
    the fault plan that was installed before deployment.
    """

    plan: AdversaryPlan
    apps: dict[str, _HostileApp] = field(default_factory=dict)
    lures: list[str] = field(default_factory=list)
    fault_plan: Optional[FaultPlan] = None
    _displaced_fault_plan: Optional[FaultPlan] = None
    _internet: Optional[Internet] = None

    @property
    def origins(self) -> list[str]:
        return sorted(self.apps)

    def total_requests(self) -> int:
        """Requests the adversary answered — the attack's cost measure."""
        return sum(app.requests for app in self.apps.values())

    def uninstall(self) -> None:
        if self._internet is None:
            return
        for origin in self.apps:
            self._internet.unregister(origin)
        if self.fault_plan is not None and self._internet.fault_plan is self.fault_plan:
            self._internet.install_fault_plan(self._displaced_fault_plan)
        self._internet = None


def deploy_adversary(
    internet: Internet,
    plan: Optional[AdversaryPlan] = None,
    targets: Sequence[str] = (),
) -> AdversaryDeployment:
    """Plant ``plan``'s hostile pods on ``internet`` and return the deployment.

    ``targets`` are benign IRIs (WebIDs) for the poisoning documents to
    fabricate claims about; without them, poison documents still mint
    impostors but make no cross-pod assertions.  A trickle attack
    installs a :class:`FaultPlan` scoped to its own origins; any
    previously installed plan is displaced and restored on
    ``uninstall``.
    """
    if plan is None:
        plan = AdversaryPlan()
    deployment = AdversaryDeployment(plan=plan)
    deployment._internet = internet
    trickle_rules: list[FaultRule] = []
    for kind in plan.kinds:
        for index in range(plan.pods_per_kind):
            origin = plan.origin_for(kind, index)
            app: _HostileApp
            if kind == "link-trap":
                app = LinkTrapApp(origin, fanout=plan.trap_fanout, cycle=plan.trap_cycle)
            elif kind == "growing-doc":
                app = GrowingDocApp(origin, step=plan.growth_step_triples)
            elif kind == "oversized-doc":
                app = OversizedDocApp(origin, target_bytes=plan.oversized_bytes)
            elif kind == "slow-trickle":
                app = TrickleChainApp(origin, chain=plan.trickle_chain)
                trickle_rules.append(
                    FaultRule(
                        kind="trickle",
                        origin=origin,
                        delay_seconds=plan.trickle_delay,
                        drip_bytes_per_second=plan.drip_bytes_per_second,
                    )
                )
            elif kind == "poison":
                app = PoisonApp(
                    origin, targets=targets, documents=plan.poison_docs, seed=plan.seed
                )
            else:  # pragma: no cover - guarded by AdversaryPlan.__post_init__
                raise ValueError(f"unknown attack kind {kind!r}")
            internet.register(origin, app)
            deployment.apps[origin] = app
            deployment.lures.append(f"{origin}/")
    if trickle_rules:
        deployment._displaced_fault_plan = internet.fault_plan
        deployment.fault_plan = FaultPlan(trickle_rules, seed=plan.seed)
        internet.install_fault_plan(deployment.fault_plan)
    return deployment
