"""The Solid pod server: an :class:`~repro.net.router.App` serving pods.

One :class:`SolidServer` instance serves many pods under one origin
(matching SolidBench's layout ``https://host/pods/<id>/...``).  It
implements the subset of the Solid protocol the LTQP engine exercises:

* ``GET``/``HEAD`` on documents → Turtle with correct content type
* ``GET`` on containers → generated LDP listing (paper Listing 1) plus a
  ``Link: <...#BasicContainer>; rel="type"`` header
* WAC enforcement (401 for anonymous, 403 for unauthorized WebIDs)
* ``.acl`` documents for ACL introspection
* content negotiation: Turtle (default) or N-Triples via ``Accept``
"""

from __future__ import annotations

from typing import Optional

from ..net.message import Request, Response
from ..net.router import App
from ..rdf.document import ParsedDocument
from ..rdf.ntriples import serialize_ntriples
from ..rdf.writer import serialize_turtle
from .acl import AccessControlList, AccessMode, acl_document_triples
from .auth import IdentityProvider
from .index import INDEX_PATH, SourceIndex, index_url
from .pod import Pod, PodDocument

__all__ = ["SolidServer"]

_LDP_CONTAINER_LINK = '<http://www.w3.org/ns/ldp#BasicContainer>; rel="type"'
_LDP_RESOURCE_LINK = '<http://www.w3.org/ns/ldp#Resource>; rel="type"'

#: Deterministic write clock origin: every accepted write advances the
#: server's clock by exactly one second from this fixed epoch, so
#: ``Last-Modified`` stamps are monotone *and* reproducible run to run
#: (no wall-clock dependence) — 2025-08-01T00:00:00Z.
_WRITE_EPOCH = 1754006400


def _http_date(timestamp: int) -> str:
    from email.utils import formatdate

    return formatdate(timestamp, usegmt=True)


class SolidServer(App):
    """Serves a set of pods mounted at path prefixes under one origin."""

    def __init__(self, origin: str, idp: Optional[IdentityProvider] = None) -> None:
        self.origin = origin.rstrip("/")
        self.idp = idp
        self._pods: dict[str, Pod] = {}
        self._acls: dict[str, AccessControlList] = {}
        # Rendered representations keyed by (pod, path, content type).
        # Documents are static between writes, so serialization — the
        # dominant per-GET cost — is paid once per representation; any
        # PATCH/PUT invalidates the whole cache (writes are rare).
        self._render_cache: dict[tuple[str, str, str], bytes] = {}
        # Write bookkeeping: document URL → monotone write version and
        # write-clock stamp.  The version rides the ETag so *every*
        # accepted write yields a distinct validator, even a write that
        # leaves the body byte-identical (insert-then-delete PATCHes).
        self._versions: dict[str, int] = {}
        self._modified: dict[str, int] = {}
        self._write_clock = 0
        # Called with the document URL after every accepted write — the
        # change-notification hook standing queries subscribe through.
        self._change_listeners: list = []
        # Pod base → (its index document, the index it declares), kept so
        # a write checks the written document alone.
        self._indexes: dict[str, tuple[PodDocument, Optional[SourceIndex]]] = {}

    # ------------------------------------------------------------------
    # change notification
    # ------------------------------------------------------------------

    def add_change_listener(self, listener) -> None:
        """Register ``listener(url)`` to fire after each accepted write."""
        self._change_listeners.append(listener)

    def remove_change_listener(self, listener) -> None:
        try:
            self._change_listeners.remove(listener)
        except ValueError:
            pass

    def document_version(self, url: str) -> int:
        """How many accepted writes ``url`` has seen (0 = pristine)."""
        return self._versions.get(url, 0)

    def login_owner(self, path: str) -> dict[str, str]:
        """Auth headers for the owner of the pod serving ``path``.

        The simulation driver's "the pod owner edits their pod" helper:
        update traffic (:meth:`~repro.service.QueryService.apply_update`)
        authenticates with these.  Empty when the server runs without an
        identity provider or the path matches no pod.
        """
        if self.idp is None:
            return {}
        resolved = self._resolve(path)
        if resolved is None:
            return {}
        pod, _, _ = resolved
        return dict(self.idp.login(pod.webid).headers)

    def _record_write(self, url: str) -> None:
        self._write_clock += 1
        self._versions[url] = self._versions.get(url, 0) + 1
        self._modified[url] = self._write_clock
        for listener in list(self._change_listeners):
            listener(url)

    def _written(self, pod: Pod, relative: str) -> None:
        """An accepted write to ``relative`` is in place: drop renderings,
        stamp the document — and, when it now says something the pod's
        published source index does not, the widened index too (a new
        validator, so caches and standing queries see it)."""
        self._render_cache.clear()
        self._record_write(pod.base_url + relative)
        if relative == INDEX_PATH:  # rewritten as a document: read it afresh
            self._indexes.pop(pod.base_url, None)
        index = self._published_index(pod)
        if index is None:
            return
        widened = index.widened(relative, pod.document(relative).triples)
        if widened is not index:
            document = pod.add_document(INDEX_PATH, widened.to_triples())
            self._indexes[pod.base_url] = (document, widened)
            self._record_write(index_url(pod.base_url))

    def _published_index(self, pod: Pod) -> Optional[SourceIndex]:
        """The source index ``pod`` serves, read once per document it holds
        there (``None``: it publishes none, or one that is not its own)."""
        published = pod.document(INDEX_PATH)
        if published is None:
            return None
        held = self._indexes.get(pod.base_url)
        if held is None or held[0] is not published:
            try:
                index = SourceIndex.from_document(
                    index_url(pod.base_url), ParsedDocument(published.triples)
                )
            except ValueError:
                index = None
            held = self._indexes[pod.base_url] = (published, index)
        return held[1]

    # ------------------------------------------------------------------
    # pod management
    # ------------------------------------------------------------------

    def mount(self, pod: Pod, acl: Optional[AccessControlList] = None) -> None:
        """Mount a pod; its base URL must live under this server's origin."""
        if not pod.base_url.startswith(self.origin + "/") and pod.base_url != self.origin + "/":
            raise ValueError(f"pod {pod.base_url} does not belong to origin {self.origin}")
        prefix = pod.base_url[len(self.origin):]
        self._pods[prefix] = pod
        effective_acl = acl if acl is not None else AccessControlList(pod.webid)
        # Documents flagged non-public get an owner-only ACL unless the
        # caller supplied explicit rules for them.
        for document in pod.documents():
            if not document.public and not effective_acl.has_rule(document.path):
                effective_acl.restrict(document.path)
        self._acls[prefix] = effective_acl

    def pods(self) -> list[Pod]:
        return [self._pods[prefix] for prefix in sorted(self._pods)]

    def acl_for(self, pod: Pod) -> AccessControlList:
        prefix = pod.base_url[len(self.origin):]
        return self._acls[prefix]

    def _resolve(self, path: str) -> Optional[tuple[Pod, AccessControlList, str]]:
        """Longest-prefix match of a request path to a mounted pod."""
        best: Optional[str] = None
        for prefix in self._pods:
            if path.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        if best is None:
            return None
        return self._pods[best], self._acls[best], path[len(best):]

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        if request.method not in ("GET", "HEAD", "PATCH", "PUT"):
            return Response(405, {"content-type": "text/plain"}, b"Method not allowed")
        resolved = self._resolve(request.path)
        if resolved is None:
            return Response.not_found(request.url)
        pod, acl, relative = resolved

        webid: Optional[str] = None
        if self.idp is not None:
            webid = self.idp.resolve_authorization_header(request.header("authorization"))

        if request.method == "PATCH":
            return self._handle_patch(request, pod, acl, relative, webid)
        if request.method == "PUT":
            return self._handle_put(request, pod, acl, relative, webid)

        if relative.endswith(".acl"):
            return self._serve_acl(request, pod, acl, relative, webid)

        is_container = relative == "" or relative.endswith("/")
        if is_container:
            container_path = relative
            if not pod.is_container(container_path):
                return Response.not_found(request.url)
            if not acl.allows(container_path, webid, AccessMode.READ):
                return Response.unauthorized() if webid is None else Response.forbidden()
            content_type = self._content_type(request)
            cache_key = (pod.base_url, container_path, content_type)
            body = self._render_cache.get(cache_key)
            if body is None:
                body = self._render(pod.container_triples(container_path), pod, request)
                self._render_cache[cache_key] = body
            headers = {
                "content-type": content_type,
                "link": _LDP_CONTAINER_LINK,
            }
            return self._finish(request, headers, body, url=pod.base_url + container_path)

        document = pod.document(relative)
        if document is None:
            # A URL without trailing slash may still denote a container.
            if pod.is_container(relative + "/"):
                location = pod.base_url + relative + "/"
                return Response(301, {"location": location, "content-type": "text/plain"}, b"")
            return Response.not_found(request.url)
        if not acl.allows(relative, webid, AccessMode.READ):
            return Response.unauthorized() if webid is None else Response.forbidden()
        content_type = self._content_type(request)
        cache_key = (pod.base_url, relative, content_type)
        body = self._render_cache.get(cache_key)
        if body is None:
            body = self._render(document.triples, pod, request)
            self._render_cache[cache_key] = body
        headers = {"content-type": content_type, "link": _LDP_RESOURCE_LINK}
        return self._finish(request, headers, body, url=pod.base_url + relative)

    def _serve_acl(
        self,
        request: Request,
        pod: Pod,
        acl: AccessControlList,
        relative: str,
        webid: Optional[str],
    ) -> Response:
        # Only pod owners may read ACL documents (WAC Control semantics).
        if webid != acl.owner:
            return Response.unauthorized() if webid is None else Response.forbidden()
        resource_path = relative[: -len(".acl")]
        resource_url = pod.base_url + resource_path
        acl_url = pod.base_url + relative
        triples = acl_document_triples(resource_url, acl_url, acl.rules_for(resource_path))
        body = self._render(triples, pod, request)
        return self._finish(
            request, {"content-type": self._content_type(request)}, body, url=acl_url
        )

    # ------------------------------------------------------------------
    # writes (Solid protocol: SPARQL-Update PATCH, Turtle PUT)
    # ------------------------------------------------------------------

    def _handle_patch(
        self,
        request: Request,
        pod: Pod,
        acl: AccessControlList,
        relative: str,
        webid: Optional[str],
    ) -> Response:
        from ..rdf.dataset import Graph
        from ..sparql.parser import SparqlParseError
        from ..sparql.update import DeleteData, DeleteWhere, InsertData, apply_update, parse_update

        if request.header("content-type").split(";")[0].strip() != "application/sparql-update":
            return Response(415, {"content-type": "text/plain"}, b"expected application/sparql-update")
        document = pod.document(relative)
        if document is None:
            return Response.not_found(request.url)
        try:
            operations = parse_update(request.body.decode("utf-8"))
        except (SparqlParseError, UnicodeDecodeError) as error:
            return Response(400, {"content-type": "text/plain"}, str(error).encode("utf-8"))

        # Pure additions need Append; anything that deletes needs Write.
        deletes = any(isinstance(op, (DeleteData, DeleteWhere)) or
                      (hasattr(op, "delete_template") and op.delete_template)
                      for op in operations)
        required = AccessMode.WRITE if deletes else AccessMode.APPEND
        if not (acl.allows(relative, webid, required) or acl.allows(relative, webid, AccessMode.WRITE)):
            return Response.unauthorized() if webid is None else Response.forbidden()

        graph = Graph(document.triples)
        counts = apply_update(graph, operations)
        document.triples[:] = list(graph)
        self._written(pod, relative)
        body = f"added {counts['added']}, removed {counts['removed']}".encode("utf-8")
        return Response(200, {"content-type": "text/plain"}, body)

    def _handle_put(
        self,
        request: Request,
        pod: Pod,
        acl: AccessControlList,
        relative: str,
        webid: Optional[str],
    ) -> Response:
        from ..rdf.turtle import TurtleParseError, parse_turtle

        if relative == "" or relative.endswith("/"):
            return Response(409, {"content-type": "text/plain"}, b"cannot PUT a container")
        if not acl.allows(relative, webid, AccessMode.WRITE):
            return Response.unauthorized() if webid is None else Response.forbidden()
        content_type = request.header("content-type").split(";")[0].strip()
        if content_type not in ("text/turtle", ""):
            return Response(415, {"content-type": "text/plain"}, b"expected text/turtle")
        try:
            triples = parse_turtle(
                request.body.decode("utf-8"), base_iri=pod.base_url + relative
            )
        except (TurtleParseError, UnicodeDecodeError) as error:
            return Response(400, {"content-type": "text/plain"}, str(error).encode("utf-8"))
        existed = pod.has_document(relative)
        pod.add_document(relative, triples)
        self._written(pod, relative)
        return Response(204 if existed else 201, {"content-type": "text/plain"}, b"")

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    @staticmethod
    def _wants_ntriples(request: Request) -> bool:
        accept = request.header("accept")
        if "application/n-triples" not in accept:
            return False
        # Crude content negotiation: explicit n-triples preference wins only
        # when turtle is absent or lower-quality.
        return "text/turtle" not in accept.split("application/n-triples")[0]

    def _content_type(self, request: Request) -> str:
        return "application/n-triples" if self._wants_ntriples(request) else "text/turtle"

    def _render(self, triples, pod: Pod, request: Request) -> bytes:
        if self._wants_ntriples(request):
            return serialize_ntriples(triples).encode("utf-8")
        return serialize_turtle(triples, base_iri=pod.base_url).encode("utf-8")

    def _finish(
        self, request: Request, headers: dict[str, str], body: bytes, url: str = ""
    ) -> Response:
        # Validator over the representation, enabling client caching (the
        # browser disk cache visible in the paper's Fig. 4).  The body
        # hash is salted with the document's write version so every
        # accepted write — even one leaving the body byte-identical —
        # yields a distinct, monotone validator.
        import hashlib

        version = self._versions.get(url, 0)
        digest = hashlib.sha1(body).hexdigest()[:16]
        etag = f'"{digest}-v{version}"' if version else f'"{digest}"'
        headers = dict(headers)
        headers["etag"] = etag
        stamp = self._modified.get(url)
        if stamp is not None:
            headers["last-modified"] = _http_date(_WRITE_EPOCH + stamp)
        if request.header("if-none-match") == etag:
            return Response(304, headers, b"")
        if request.method == "HEAD":
            headers["content-length"] = str(len(body))
            return Response(200, headers, b"")
        return Response(200, headers, body)
