"""Pluggable completion backends: HTTP transport with retries, recorded
replay fixtures, and a template-solving oracle."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import __version__
from ..demos import build_from_trace
from ..meta_lang.ast import frozen
from ..meta_lang.interpreter import eval_program
from ..resolution import FieldError, TaskInstance, TemplateMismatchError, config_number
from ..resolution import config_reader, config_string, config_text, read_jsonl, resolve_any, setting
from .prompts import HarnessError


log = logging.getLogger(__name__)


class TransportError(HarnessError):
    """HTTP completion failed after exhausting retries."""


class FixtureMissError(HarnessError):
    """No recorded completion for this prompt."""


class OracleUnresolvableError(HarnessError):
    """The oracle backend cannot reduce the target question."""


class ConfigError(HarnessError):
    """Malformed evaluation or backend configuration."""


@contextmanager
def bad_config():
    """Raise a ``FieldError`` of the block as a ``ConfigError`` that starts ``bad config: ``."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError(f"bad config: {exc}") from None


@dataclass(frozen=True)
class HttpBackend:
    endpoint_url: str = setting(config_text)
    model_name: str = setting(config_text)
    auth_token_env_var: str | None = setting(config_text, default=None)
    temperature: float = setting(config_number(float, 0), default=0.0)
    max_tokens: int = setting(config_number(int, 1), default=512)
    timeout: float = setting(config_number(float, 0, above=True), default=60.0)
    max_retries: int = setting(config_number(int, 0), default=3)
    parallelism: int = setting(config_number(int, 1), default=1)


@dataclass(frozen=True)
class ReplayBackend:
    fixture_path: str = setting(config_text)
    # prompt SHA-256 → completion, read from fixture_path at first use.
    _fixtures: dict[str, str] | None = field(
        default=None, init=False, compare=False, repr=False
    )


@dataclass(frozen=True)
class OracleBackend:
    # (question, options) → rationale: every paradigm's prompt for an item
    # ends with the same target question, so each is solved once. Unbounded,
    # because it holds one string per distinct question and the run's
    # records already hold that same string.
    _solved: dict[tuple[str, tuple[str, ...] | None], str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


BackendSpec = HttpBackend | ReplayBackend | OracleBackend


def backend_from_config(config: dict, name: str = "backend") -> BackendSpec:
    kinds = {"http": HttpBackend, "replay": ReplayBackend, "oracle": OracleBackend}
    kind = config.get("kind") if isinstance(config, dict) else "http"  # its reader refuses a non-object
    # Oracle and replay run on the calling thread: threads would only contend for the GIL.
    extra = ("kind",) if kind == "http" else ("kind", "parallelism")
    with bad_config():
        if not isinstance(kind, str) or kind not in kinds:
            raise FieldError(f"{name}.kind must be one of {', '.join(kinds)}, got {kind!r}")
        spec = config_reader(kinds[kind], extra)(config, name)
    if kind != "http" and "parallelism" in config:
        value = config["parallelism"]
        log.warning(
            "the %s backend runs on the calling thread; ignoring parallelism=%r", kind, value,
            extra={"backend": kind, "parallelism": value},
        )
    return spec


def backend_fingerprint(backend: BackendSpec) -> dict:
    """What shapes a backend's completions: its kind, and for HTTP the model
    settings (not auth, timeout, retries or parallelism), for replay the
    fixture file."""
    if isinstance(backend, HttpBackend):
        return {
            "kind": "http", "endpoint_url": backend.endpoint_url,
            "model_name": backend.model_name, "temperature": backend.temperature,
            "max_tokens": backend.max_tokens,
        }
    if isinstance(backend, ReplayBackend):
        return {"kind": "replay", "fixture_path": os.path.abspath(backend.fixture_path)}
    if isinstance(backend, OracleBackend):
        return {"kind": "oracle"}
    raise ConfigError(f"unknown backend {backend!r}")


def prompt_sha256(prompt: str) -> str:
    """SHA-256 of the UTF-8 bytes; a lone surrogate is hashed as its ``surrogatepass`` bytes."""
    return hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()


@frozen
class _Fixture:  # the table of a fixture line
    prompt_sha256: str = setting(config_string)
    completion: str = setting(config_string)


def load_fixtures(path) -> dict[str, str]:
    lines = read_jsonl(path, config_reader(_Fixture))
    return {fixture.prompt_sha256: fixture.completion for fixture in lines}


def _replay_complete(backend: ReplayBackend, digest: str) -> str:
    fixtures = backend._fixtures
    if fixtures is None:  # frozen guards the backend's identity, not this cache
        fixtures = load_fixtures(backend.fixture_path)
        object.__setattr__(backend, "_fixtures", fixtures)
    if digest not in fixtures:
        raise FixtureMissError(f"no fixture for prompt {digest[:12]}…")
    return fixtures[digest]


_RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


def load_transport() -> None:
    """Import the modules of the transport below into this module. ``runner._run_http``, the one
    sender of requests, calls it on its own thread before the first: an oracle or replay run, and
    an HTTP run with nothing left to send, never pay for http.client and the ssl and email modules."""
    global http, select, urllib, weakref
    import http.client
    import select
    import urllib.parse
    import urllib.request
    import weakref


class _ThreadConnection:
    """The calling thread's keep-alive connection to one endpoint.

    The runner bounds concurrency with its worker threads, so one connection
    per thread keeps at most ``parallelism`` connections open per endpoint.
    """

    def __init__(self, backend: HttpBackend):
        url = urllib.parse.urlsplit(backend.endpoint_url)
        try:
            port = url.port or (443 if url.scheme == "https" else 80)
        except ValueError:  # a port that is not a number in range
            port = None
        if url.scheme not in ("http", "https") or not url.hostname or port is None:
            raise TransportError(f"unsupported endpoint URL {backend.endpoint_url!r}")
        self.key = (backend.endpoint_url, backend.timeout)
        # The request target is the path, or the absolute URI when an
        # http proxy forwards it; https goes through a CONNECT tunnel.
        self.target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self.conn = connection_class(
                proxy_url.hostname, proxy_url.port or 80, timeout=backend.timeout
            )
            if url.scheme == "https":
                self.conn.set_tunnel(url.hostname, port)
            else:
                self.target = urllib.parse.urlunsplit(url._replace(fragment=""))
        else:
            self.conn = connection_class(url.hostname, port, timeout=backend.timeout)
        # Close the socket when the owning thread ends or moves to another
        # endpoint, and at interpreter exit.
        weakref.finalize(self, self.conn.close)

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """Send one request and read the whole response; any exception
        closes the connection so that the next attempt dials afresh."""
        sock = self.conn.sock
        # An idle socket that reads as ready has been closed by the peer
        # (or holds data nobody asked for): dial afresh rather than fail.
        if sock is not None and select.select([sock], [], [], 0)[0]:
            self.conn.close()
        try:
            self.conn.request("POST", self.target, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except BaseException:
            self.conn.close()
            raise
        if response.will_close:
            self.conn.close()
        return response.status, data


_local = threading.local()


def _thread_connection(backend: HttpBackend) -> _ThreadConnection:
    current = getattr(_local, "connection", None)
    if current is None or current.key != (backend.endpoint_url, backend.timeout):
        current = _local.connection = _ThreadConnection(backend)
    return current


def request_headers(backend: HttpBackend) -> dict[str, str]:
    """The headers of every request to ``backend``. A token variable that is named but unset
    or empty is a ``ConfigError`` here, not a 401 from the server after every retry."""
    headers = {"Content-Type": "application/json", "User-Agent": f"metareason/{__version__}"}
    if variable := backend.auth_token_env_var:
        if not os.environ.get(variable):
            raise ConfigError(f"backend.auth_token_env_var names {variable}, which is not set")
        headers["Authorization"] = f"Bearer {os.environ[variable]}"
    return headers


class _HttpRequest:
    """One prompt's completion request, sent one attempt at a time: the body
    is built once, and the run's scheduler, ``runner._run_http``, waits out each backoff."""

    def __init__(self, backend: HttpBackend, prompt: str, headers: dict[str, str]):
        self.backend, self.headers = backend, headers
        payload = {"model": backend.model_name, "prompt": prompt,
                   "temperature": backend.temperature, "max_tokens": backend.max_tokens}
        self.body = json.dumps(payload).encode("utf-8")
        self.attempts_made = 0

    def attempt(self) -> str | float:
        """Send the request once on the calling thread's connection. Returns the
        completion text, or the backoff in seconds before the next attempt; raises
        ``TransportError`` on a non-retryable status or once the attempts are used up."""
        attempt, attempts = self.attempts_made, self.backend.max_retries + 1
        self.attempts_made += 1
        try:
            status, data = _thread_connection(self.backend).post(self.body, self.headers)
        except (OSError, http.client.HTTPException) as exc:
            error = str(exc) or type(exc).__name__
            failure = {"error": error}
        else:
            if status == 200:
                return _completion_text(data)
            error = f"HTTP {status}"
            if status not in _RETRYABLE_STATUS:
                raise TransportError(f"completion failed: {error}")
            failure = {"status": status}
        if attempt + 1 >= attempts:
            raise TransportError(f"completion failed after {attempts} attempts: {error}")
        backoff_s = min(8.0, 0.5 * (2**attempt))
        log.warning(
            "completion attempt %d/%d failed (%s); retrying in %gs",
            attempt + 1, attempts, error, backoff_s,
            extra={"attempt": attempt + 1, **failure, "backoff_s": backoff_s},
        )
        return backoff_s


def _completion_text(data: bytes) -> str:
    try:
        body = json.loads(data)
    except ValueError as exc:
        raise TransportError(f"non-JSON completion response: {exc}") from exc
    try:
        choice = body["choices"][0]
    except (KeyError, IndexError, TypeError):
        if isinstance(body, dict) and isinstance(body.get("text"), str):
            return body["text"]
        raise TransportError("completion response has no choices") from None
    if isinstance(choice, dict):
        if isinstance(choice.get("text"), str):
            return choice["text"]
        message = choice.get("message")
        if isinstance(message, dict) and isinstance(message.get("content"), str):
            return message["content"]
    raise TransportError("completion choice has no text")


def _target_question(prompt: str) -> tuple[str, tuple[str, ...] | None]:
    """The last Q block of a prompt, split into question text and options."""
    block = prompt.rpartition("\n\nQ: ")[2]
    if block.startswith("Q: "):
        block = block[len("Q: "):]
    body = block.rsplit("\nA:", 1)[0]
    if "\nOptions:\n" in body:
        question, options_text = body.split("\nOptions:\n", 1)
        options = tuple(
            line.split(") ", 1)[1]
            for line in options_text.splitlines()
            if ") " in line
        )
        return question.strip(), options
    return body.strip(), None


def _oracle_complete(backend: OracleBackend, prompt: str) -> str:
    target = _target_question(prompt)
    rationale = backend._solved.get(target)
    if rationale is None:  # an unresolvable question raises and is not stored
        rationale = backend._solved[target] = _oracle_solve(*target)
    return rationale


def _oracle_solve(question: str, options: tuple[str, ...] | None) -> str:
    try:
        task, mq = resolve_any(question, options)
    except TemplateMismatchError as exc:
        raise OracleUnresolvableError(f"target question is not template-resolvable: {exc}") from exc
    # The builders read the trace for the answer, never the instance's gold.
    inst = TaskInstance(id="oracle", task=task, question=question, options=options, gold="")
    return build_from_trace(inst, mq, eval_program(mq.program)).rationale


def complete(backend: BackendSpec, prompt: str, digest: str) -> str:
    """The completion text of one prompt from a replay or oracle backend; ``digest`` is the
    prompt's ``prompt_sha256``, which replay looks up. Only ``runner._run_http`` sends HTTP,
    so an ``HttpBackend``, like any other, is a ``ConfigError`` here."""
    if isinstance(backend, ReplayBackend):
        return _replay_complete(backend, digest)
    if isinstance(backend, OracleBackend):
        return _oracle_complete(backend, prompt)
    raise ConfigError(f"complete() answers a replay or oracle backend, not {backend!r}; run_eval sends HTTP")
