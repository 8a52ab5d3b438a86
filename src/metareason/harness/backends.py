"""Pluggable completion backends: HTTP transport with retries, recorded
replay fixtures, and a template-solving oracle."""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import os
import select
import threading
import time
import urllib.parse
import urllib.request
import weakref
from dataclasses import dataclass, field

from .. import __version__
from ..demos import build_from_trace
from ..meta_lang import eval_program
from ..resolution import TaskInstance, TemplateMismatchError, check_field, read_jsonl, resolve_any
from ..resolution import write_jsonl
from .prompts import COT_TRIGGER, HarnessError


log = logging.getLogger(__name__)


class TransportError(HarnessError):
    """HTTP completion failed after exhausting retries."""


class FixtureMissError(HarnessError):
    """No recorded completion for this prompt."""


class OracleUnresolvableError(HarnessError):
    """The oracle backend cannot reduce the target question."""


class ConfigError(HarnessError):
    """Malformed evaluation or backend configuration."""


@dataclass(frozen=True)
class HttpBackend:
    endpoint_url: str
    model_name: str
    auth_token_env_var: str | None = None
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0
    max_retries: int = 3
    parallelism: int = 1


@dataclass(frozen=True)
class ReplayBackend:
    fixture_path: str
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


def config_int(name: str, value) -> int:
    """An integer setting, read by ``int``, except that a bool or a number with
    a fractional part is refused rather than read as 1, 0 or truncated."""
    if isinstance(value, bool) or isinstance(value, float) and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def backend_from_config(config: dict) -> BackendSpec:
    kind = config.get("kind")
    if kind == "http":
        for key in ("endpoint_url", "model_name"):
            if key not in config:
                raise ConfigError(f"http backend needs {key!r}")
        spec = HttpBackend(
            endpoint_url=config["endpoint_url"],
            model_name=config["model_name"],
            auth_token_env_var=config.get("auth_token_env_var"),
            temperature=float(config.get("temperature", 0.0)),
            max_tokens=config_int("max_tokens", config.get("max_tokens", 512)),
            timeout=float(config.get("timeout", 60.0)),
            max_retries=config_int("max_retries", config.get("max_retries", 3)),
            parallelism=config_int("parallelism", config.get("parallelism", 1)),
        )
        if spec.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        # Chained comparisons are false for NaN, so these reject it too.
        if not 0 <= spec.temperature < math.inf:
            raise ConfigError("temperature must be finite and >= 0")
        if not 0 < spec.timeout < math.inf:
            raise ConfigError("timeout must be finite and > 0")
        if spec.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if spec.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        return spec
    if kind == "replay":
        path = config.get("fixture_path")
        if not isinstance(path, str) or not path:  # open() takes an int as a descriptor
            raise ConfigError(
                f"replay backend needs 'fixture_path', a non-empty string, got {path!r}"
            )
        spec = ReplayBackend(fixture_path=path)
    elif kind == "oracle":
        spec = OracleBackend()
    else:
        raise ConfigError(f"unknown backend kind {kind!r}")
    if "parallelism" in config:  # CPU-bound: threads would only contend for the GIL
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
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _fixture(fields: dict) -> tuple[str, str]:
    for name in ("prompt_sha256", "completion"):
        check_field(name, fields[name], str, "a string")
    return fields["prompt_sha256"], fields["completion"]


def load_fixtures(path) -> dict[str, str]:
    return dict(read_jsonl(path, _fixture))


def save_fixtures(path, pairs: dict[str, str]) -> None:
    """Write prompt→completion pairs as replay fixture records."""
    write_jsonl(path, ({"prompt_sha256": prompt_sha256(p), "completion": c} for p, c in pairs.items()))


def _replay_complete(backend: ReplayBackend, digest: str) -> str:
    fixtures = backend._fixtures
    if fixtures is None:  # frozen guards the backend's identity, not this cache
        fixtures = load_fixtures(backend.fixture_path)
        object.__setattr__(backend, "_fixtures", fixtures)
    if digest not in fixtures:
        raise FixtureMissError(f"no fixture for prompt {digest[:12]}…")
    return fixtures[digest]


_RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


_USER_AGENT = f"metareason/{__version__}"


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


class _HttpRequest:
    """One prompt's completion request, sent one attempt at a time: the body
    and headers are built once, and the caller waits out each backoff."""

    def __init__(self, backend: HttpBackend, prompt: str):
        self.backend = backend
        self.headers = {"Content-Type": "application/json", "User-Agent": _USER_AGENT}
        if backend.auth_token_env_var:
            token = os.environ.get(backend.auth_token_env_var, "")
            if token:
                self.headers["Authorization"] = f"Bearer {token}"
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


def _http_complete(backend: HttpBackend, prompt: str) -> str:
    request = _HttpRequest(backend, prompt)
    while not isinstance(result := request.attempt(), str):
        time.sleep(result)
    return result


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
    if body.endswith(COT_TRIGGER):
        body = body[: -len(COT_TRIGGER)].rstrip()
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
    """Dispatch one prompt to the backend and return the completion text.
    ``digest`` is the prompt's ``prompt_sha256``, which replay looks up."""
    if isinstance(backend, HttpBackend):
        return _http_complete(backend, prompt)
    if isinstance(backend, ReplayBackend):
        return _replay_complete(backend, digest)
    if isinstance(backend, OracleBackend):
        return _oracle_complete(backend, prompt)
    raise ConfigError(f"unknown backend {backend!r}")
