"""HTTP request/response messages for the simulated Web."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional
from urllib.parse import urlsplit

__all__ = ["Request", "Response", "split_url", "TURTLE_CONTENT_TYPE"]

TURTLE_CONTENT_TYPE = "text/turtle"


@lru_cache(maxsize=8192)
def split_url(url: str) -> tuple[str, str, str]:
    """Split an absolute http(s) URL into (origin, path, fragmentless url).

    The fragment is the client's business; the path keeps its query string.
    Memoized (bounded; strings in, strings out): every layer that accounts
    per origin — link queue, client, simulated server — splits the same URL,
    and a service splits the same few thousand for every query.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"unsupported URL scheme in {url!r}")
    origin = f"{parts.scheme}://{parts.netloc}"
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    return origin, path, f"{origin}{path}"


@dataclass(slots=True)
class Request:
    """An HTTP request as seen by simulated servers."""

    method: str
    url: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        self.headers = {k.lower(): v for k, v in self.headers.items()}

    @property
    def origin(self) -> str:
        return split_url(self.url)[0]

    @property
    def path(self) -> str:
        return split_url(self.url)[1]

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


@dataclass(slots=True)
class Response:
    """An HTTP response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self) -> None:
        self.headers = {k.lower(): v for k, v in self.headers.items()}

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def content_type(self) -> str:
        value = self.headers.get("content-type", "")
        return value.split(";", 1)[0].strip()

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    @classmethod
    def ok_turtle(cls, text: str, extra_headers: Optional[Mapping[str, str]] = None) -> "Response":
        headers = {"content-type": TURTLE_CONTENT_TYPE}
        if extra_headers:
            headers.update({k.lower(): v for k, v in extra_headers.items()})
        return cls(200, headers, text.encode("utf-8"))

    @classmethod
    def not_found(cls, url: str = "") -> "Response":
        message = f"Not found: {url}" if url else "Not found"
        return cls(404, {"content-type": "text/plain"}, message.encode("utf-8"))

    @classmethod
    def unauthorized(cls) -> "Response":
        return cls(
            401,
            {"content-type": "text/plain", "www-authenticate": "Bearer"},
            b"Unauthorized",
        )

    @classmethod
    def forbidden(cls) -> "Response":
        return cls(403, {"content-type": "text/plain"}, b"Forbidden")
