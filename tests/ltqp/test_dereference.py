"""Unit tests for the dereferencer."""

import asyncio

import pytest

from repro.ltqp.dereference import Dereferencer
from repro.net import HttpClient, Internet, NoLatency, StaticApp


def make_client():
    internet = Internet()
    app = StaticApp()
    app.put("/good", "<https://h/good#a> <https://h/p> <https://h/good#b> .")
    app.put("/relative", "<> <https://h/p> <child> .")
    app.put("/broken", "this is not turtle @@@")
    app.put("/ntriples", "<https://h/a> <https://h/p> <https://h/b> .\n", "application/n-triples")
    app.put("/binary", b"\x00\x01", "application/octet-stream")
    internet.register("https://h", app)
    return HttpClient(internet, latency=NoLatency())


def deref(url, lenient=True, client=None):
    dereferencer = Dereferencer(client or make_client(), lenient=lenient)
    return asyncio.run(dereferencer.dereference(url))


class TestDereference:
    def test_parses_turtle(self):
        result = deref("https://h/good")
        assert result.ok and len(result.document.triples) == 1

    def test_fragment_stripped(self):
        result = deref("https://h/good#me")
        assert result.url == "https://h/good"
        assert result.ok

    def test_relative_iris_resolved_against_document_url(self):
        result = deref("https://h/relative")
        assert result.document.triples[0].subject.value == "https://h/relative"
        assert result.document.triples[0].object.value == "https://h/child"

    def test_ntriples_content_type(self):
        result = deref("https://h/ntriples")
        assert result.ok and len(result.document.triples) == 1

    def test_404_is_lenient_failure(self):
        result = deref("https://h/missing")
        assert not result.ok and result.status == 404 and "404" in result.error

    def test_unknown_origin_is_lenient_failure(self):
        result = deref("https://unknown.example/x")
        assert not result.ok and result.status == 0

    def test_parse_error_is_lenient_failure(self):
        result = deref("https://h/broken")
        assert not result.ok and "parse error" in result.error

    def test_unsupported_content_type(self):
        result = deref("https://h/binary")
        assert not result.ok and "content type" in result.error

    def test_strict_mode_raises(self):
        with pytest.raises(RuntimeError):
            deref("https://h/missing", lenient=False)

    def test_blank_nodes_distinct_across_documents(self):
        internet = Internet()
        app = StaticApp()
        app.put("/d1", "_:b <https://h/p> 1 .")
        app.put("/d2", "_:b <https://h/p> 2 .")
        internet.register("https://h", app)
        client = HttpClient(internet, latency=NoLatency())
        dereferencer = Dereferencer(client)
        first = asyncio.run(dereferencer.dereference("https://h/d1"))
        second = asyncio.run(dereferencer.dereference("https://h/d2"))
        assert first.document.triples[0].subject != second.document.triples[0].subject
        # ... and stable per document: another dereferencer (a later
        # service lifetime, another shard worker) labels it identically.
        other = Dereferencer(HttpClient(internet, latency=NoLatency()))
        asyncio.run(other.dereference("https://h/d2"))  # a different parse order
        again = asyncio.run(other.dereference("https://h/d1"))
        assert again.document.triples == first.document.triples

    def test_auth_headers_forwarded(self):
        from repro.net import FunctionApp, Request, Response

        seen = {}

        def handler(request: Request) -> Response:
            seen["auth"] = request.header("authorization")
            return Response.ok_turtle("")

        internet = Internet()
        internet.register("https://h", FunctionApp(handler))
        client = HttpClient(internet, latency=NoLatency())
        dereferencer = Dereferencer(client, extra_headers={"authorization": "Bearer tok"})
        asyncio.run(dereferencer.dereference("https://h/x"))
        assert seen["auth"] == "Bearer tok"


class TestRedirects:
    def make_redirecting_client(self, hops=1):
        from repro.net import FunctionApp, Request, Response

        def handler(request: Request) -> Response:
            path = request.path
            if path.startswith("/hop"):
                index = int(path[4:])
                if index < hops:
                    return Response(301, {"location": f"https://h/hop{index + 1}"})
                return Response.ok_turtle(f"<https://h/final> <https://h/p> {index} .")
            if path == "/loop":
                return Response(302, {"location": "https://h/loop"})
            if path == "/no-location":
                return Response(301, {})
            return Response.not_found(request.url)

        internet = Internet()
        internet.register("https://h", FunctionApp(handler))
        return HttpClient(internet, latency=NoLatency())

    def test_follows_single_redirect(self):
        client = self.make_redirecting_client(hops=1)
        result = deref("https://h/hop0", client=client)
        assert result.ok
        assert result.url == "https://h/hop1"  # final URL is the provenance

    def test_follows_redirect_chain(self):
        client = self.make_redirecting_client(hops=3)
        result = deref("https://h/hop0", client=client)
        assert result.ok and result.url == "https://h/hop3"

    def test_redirect_loop_bounded(self):
        client = self.make_redirecting_client()
        result = deref("https://h/loop", client=client)
        assert not result.ok and "redirect" in result.error

    def test_redirect_without_location_fails_leniently(self):
        client = self.make_redirecting_client()
        result = deref("https://h/no-location", client=client)
        assert not result.ok

    def test_container_redirect_resolves_members(self, tiny_universe):
        """The Solid server 301s slash-less container URLs; traversal must
        land on the container and resolve member IRIs against it."""
        from repro.ltqp.dereference import Dereferencer
        from repro.net import NoLatency

        pod = tiny_universe.pod_of(0)
        slashless = pod.base_url + "posts"  # no trailing slash
        dereferencer = Dereferencer(tiny_universe.client(latency=NoLatency()))
        result = asyncio.run(dereferencer.dereference(slashless))
        assert result.ok
        assert result.url == pod.base_url + "posts/"
        member_subjects = {t.subject.value for t in result.document.triples}
        assert pod.base_url + "posts/" in member_subjects


class TestLenientSymmetry:
    """Regression tests: every failure class honours the lenient flag.

    Historically redirect loops warned leniently while a malformed or
    relative ``Location`` escaped as a raw ``ValueError`` even with
    ``lenient=True`` — the two sides of the same contract must agree.
    """

    def make_client(self):
        from repro.net import FunctionApp, Request, Response

        def handler(request: Request) -> Response:
            if request.path == "/relative-redirect":
                return Response(301, {"location": "target"})  # relative Location
            if request.path == "/target":
                return Response.ok_turtle("<https://h/a> <https://h/p> <https://h/b> .")
            if request.path == "/bad-scheme":
                return Response(301, {"location": "ftp://h/elsewhere"})
            if request.path == "/loop":
                return Response(302, {"location": "https://h/loop"})
            return Response.not_found(request.url)

        internet = Internet()
        internet.register("https://h", FunctionApp(handler))
        return HttpClient(internet, latency=NoLatency())

    def test_relative_location_resolved_not_crashed(self):
        result = deref("https://h/relative-redirect", client=self.make_client())
        assert result.ok
        assert result.url == "https://h/target"

    def test_unfetchable_scheme_is_lenient_failure(self):
        result = deref("https://h/bad-scheme", client=self.make_client())
        assert not result.ok
        assert "invalid URL" in result.error

    def test_unfetchable_scheme_raises_in_strict_mode(self):
        from repro.ltqp.dereference import DereferenceError

        with pytest.raises(DereferenceError):
            deref("https://h/bad-scheme", lenient=False, client=self.make_client())

    def test_redirect_loop_raises_in_strict_mode(self):
        from repro.ltqp.dereference import DereferenceError

        with pytest.raises(DereferenceError):
            deref("https://h/loop", lenient=False, client=self.make_client())

    def test_parse_error_raises_in_strict_mode(self):
        from repro.ltqp.dereference import DereferenceError

        with pytest.raises(DereferenceError):
            deref("https://h/broken", lenient=False)

    def test_dereference_error_is_runtime_error_with_url(self):
        from repro.ltqp.dereference import DereferenceError

        with pytest.raises(RuntimeError) as excinfo:
            deref("https://h/missing", lenient=False)
        assert excinfo.value.url == "https://h/missing"


class TestRetryableClassification:
    def test_503_failure_is_retryable(self):
        from repro.net import FunctionApp, Response

        internet = Internet()
        internet.register(
            "https://h",
            FunctionApp(lambda r: Response(503, {"content-type": "text/plain"}, b"")),
        )
        from repro.net.resilience import NetworkPolicy

        client = HttpClient(internet, latency=NoLatency(), policy=NetworkPolicy.no_retry())
        result = deref("https://h/doc", client=client)
        assert not result.ok and result.retryable

    def test_404_failure_is_not_retryable(self):
        result = deref("https://h/missing")
        assert not result.ok and not result.retryable

    def test_unknown_origin_is_not_retryable(self):
        result = deref("https://unknown.example/x")
        assert not result.ok and not result.retryable

    def test_parse_error_is_not_retryable(self):
        result = deref("https://h/broken")
        assert not result.ok and not result.retryable


class TestLineFormats:
    """N-Triples and N-Quads bodies are documents like Turtle ones: their
    blank nodes are their own, and graph terms flatten into the document."""

    NAMES = "SELECT ?name ?age WHERE { ?x <https://h/name> ?name . ?x <https://h/age> ?age }"

    def _rows(self, content_type: str) -> int:
        from repro.ltqp import LinkTraversalEngine

        internet = Internet()
        app = StaticApp()
        app.put("/d1", '_:x <https://h/name> "A" .\n_:x <https://h/age> "1" .\n', content_type)
        app.put("/d2", '_:x <https://h/name> "B" .\n_:x <https://h/age> "2" .\n', content_type)
        internet.register("https://h", app)
        engine = LinkTraversalEngine(Dereferencer(HttpClient(internet, latency=NoLatency())))
        return len(engine.query(self.NAMES, seeds=["https://h/d1", "https://h/d2"]).run_sync())

    def test_ntriples_blank_nodes_are_scoped_to_their_document(self):
        assert self._rows("text/turtle") == 2
        assert self._rows("application/n-triples") == 2

    def test_ntriples_blank_node_labels_follow_the_document_url(self):
        internet = Internet()
        app = StaticApp()
        app.put("/d1", "_:x <https://h/p> _:y .\n", "application/n-triples")
        app.put("/t1", "_:x <https://h/p> _:y .\n")
        internet.register("https://h", app)
        client = HttpClient(internet, latency=NoLatency())
        lines = asyncio.run(Dereferencer(client).dereference("https://h/d1")).document.triples
        turtle = asyncio.run(Dereferencer(client).dereference("https://h/t1")).document.triples
        assert lines[0].subject.value.endswith("_x") and lines[0].object.value.endswith("_y")
        assert lines[0].subject.value.startswith("d") and lines[0].subject != turtle[0].subject

    def test_nquads_graph_terms_flatten_into_the_document(self):
        internet = Internet()
        app = StaticApp()
        app.put(
            "/quads",
            "<https://h/a> <https://h/p> <https://h/b> <https://h/g1> .\n"
            "<https://h/a> <https://h/p> <https://h/c> .\n"
            '_:n <https://h/p> "x" <https://h/g2> .\n',
            "application/n-quads",
        )
        internet.register("https://h", app)
        result = asyncio.run(
            Dereferencer(HttpClient(internet, latency=NoLatency())).dereference("https://h/quads")
        )
        assert result.ok, result.error
        assert [t.object.value for t in result.document.triples] == [
            "https://h/b",
            "https://h/c",
            "x",
        ]
