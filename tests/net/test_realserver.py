"""Integration tests: simulated apps served over real sockets."""

import json
import urllib.request

import pytest

from repro.net import FunctionApp, Internet, RealHttpServer, Response, StaticApp


def make_internet():
    internet = Internet()
    app = StaticApp()
    app.put("/profile/card", "<https://pod.example/profile/card#me> a <http://x/Person> .")
    internet.register("https://pod.example", app)
    return internet


class TestRealHttpServer:
    def test_serves_registered_origin_over_sockets(self):
        with RealHttpServer(make_internet()) as server:
            url = server.url_for("https://pod.example/profile/card")
            with urllib.request.urlopen(url, timeout=5) as response:
                body = response.read().decode("utf-8")
                assert response.status == 200
                assert "Person" in body
                assert response.headers["content-type"] == "text/turtle"

    def test_404_passthrough(self):
        with RealHttpServer(make_internet()) as server:
            url = server.url_for("https://pod.example/nope")
            try:
                urllib.request.urlopen(url, timeout=5)
            except urllib.error.HTTPError as error:
                assert error.code == 404
            else:
                raise AssertionError("expected 404")

    def test_single_origin_shorthand_path(self):
        with RealHttpServer(make_internet()) as server:
            url = f"{server.base_url}/profile/card"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200


def echo(request):
    """An app answering what the bridge handed it; 404 off ``/echo``."""
    if request.path.split("?")[0] != "/echo":
        return Response.not_found(request.url)
    document = {"method": request.method, "path": request.path, "body": request.body.decode()}
    return Response(200, {"content-type": "application/json"}, json.dumps(document).encode())


class TestBridge:
    """One app behind the socket: one Request in, one Response out."""

    @pytest.fixture(scope="class")
    def server(self):
        with RealHttpServer(FunctionApp(echo)) as server:
            yield server

    def test_get(self, server):
        with urllib.request.urlopen(f"{server.base_url}/echo?x=1", timeout=5) as response:
            assert response.headers["content-type"] == "application/json"
            document = json.loads(response.read())
        assert document == {"method": "GET", "path": "/echo?x=1", "body": ""}

    def test_post_body(self, server):
        request = urllib.request.Request(f"{server.base_url}/echo", data=b"payload")
        with urllib.request.urlopen(request, timeout=5) as response:
            document = json.loads(response.read())
        assert document["method"] == "POST" and document["body"] == "payload"

    def test_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(f"{server.base_url}/nope", timeout=5)
        assert raised.value.code == 404
