import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest

from ragmark.corpus import WhitespacePunctCounter
from ragmark.embed import LocalHashEmbedder


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        status, body = self.server.app(self.path, payload)
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    """Factory for throwaway local HTTP endpoints.

    The app callable gets (path, json_payload) and returns (status, json_body).
    """
    servers = []

    def make(app):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        server.app = app
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}"

    yield make
    for server in servers:
        server.shutdown()
        server.server_close()


class _StubResponse:
    def __init__(self, status, body):
        self.status_code = status
        self._body = body

    def json(self):
        return self._body


class _StubSession:
    def __init__(self, app):
        self.app = app

    def post(self, url, json, timeout):
        return _StubResponse(*self.app(urlsplit(url).path, json))


@pytest.fixture
def stub_session():
    """Factory for in-process stand-ins of ``requests.Session``.

    Same app contract as ``http_stub``, but the body reaches the client as
    is, with no JSON encoding and no socket in between.
    """
    return _StubSession


@pytest.fixture
def counter():
    return WhitespacePunctCounter()


@pytest.fixture
def embedder():
    return LocalHashEmbedder(dim=64)
