"""Harness tests: prompt assembly, backends, runner, scoring, reports."""

from __future__ import annotations

import json
import logging
import os
import random
import re
import socket
import threading
import time
from dataclasses import MISSING, fields, replace
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metareason
from metareason.cli import _configure_logging, main
from metareason.demos import (
    Demonstration,
    build_demonstration,
    load_demonstrations,
    save_demonstrations,
    select_demos,
)
from metareason.harness.backends import (
    ConfigError,
    FixtureMissError,
    HttpBackend,
    OracleBackend,
    OracleUnresolvableError,
    ReplayBackend,
    TransportError,
    _completion_text,
    _Fixture,
    _HttpRequest,
    _target_question,
    backend_from_config,
    complete,
    load_fixtures,
    load_transport,
    prompt_sha256,
    request_headers,
)
from metareason.harness.extraction import is_correct
from metareason.harness.prompts import (
    COT_TRIGGER,
    IncompatibleDemosError,
    Paradigm,
    assemble_prompt,
    paradigm_from_string,
)
from metareason.harness.reporting import format_pct, render_table, report_csv, report_json
from metareason.harness.runner import (
    DatasetSpec,
    DemoSpec,
    EvalConfig,
    EvalRecord,
    EvalReport,
    RecordLineError,
    RecordStore,
    load_records,
    run_eval,
    score,
)
from metareason import resolution
from metareason.harness import runner
from metareason.harness.runner import _read_records
from metareason.resolution import FieldError, MalformedLineError, Task, load_instances
from metareason.resolution import TaskInstance, config_reader, json_fields, read_jsonl, save_instances
from metareason.resolution import task_from_string
from metareason.taskgen import GenConfig, generate
from support import save_fixtures


def _record(dataset, task, paradigm, instance_id, extracted, gold):
    return EvalRecord(
        instance_id=instance_id,
        dataset=dataset,
        task=task,
        paradigm=paradigm,
        prompt_sha256="p",
        completion="c",
        extracted=extracted,
        gold=gold,
        correct=extracted == gold,
        latency_ms=1.0,
    )


class TestPrompts:
    def test_zero_shot_ends_with_answer_cue(self, eggs_instance):
        prompt = assemble_prompt(Paradigm.ZERO_SHOT, [], eggs_instance)
        assert prompt.endswith("\nA:")
        assert prompt.startswith("Q: ")

    def test_zero_shot_cot_trigger(self, eggs_instance):
        prompt = assemble_prompt(Paradigm.ZERO_SHOT_COT, [], eggs_instance)
        assert prompt.endswith(f"A: {COT_TRIGGER}")

    def test_meta_reasoning_two_blocks(self, dance_instance):
        demo = build_demonstration(dance_instance)
        prompt = assemble_prompt(Paradigm.META_REASONING, [demo], dance_instance)
        blocks = prompt.split("\n\n")
        assert len(blocks) == 2
        assert "The question can be simplified to:" in blocks[0]
        assert blocks[1].endswith("\nA:")

    def test_options_rendered_under_question(self, dance_instance):
        prompt = assemble_prompt(Paradigm.ZERO_SHOT, [], dance_instance)
        assert "\nOptions:\n(A) Lola\n(B) Rodrigo\n(C) Patrick\nA:" in prompt

    def test_few_shot_uses_bare_answers(self, dance_instance):
        demo = build_demonstration(dance_instance)
        prompt = assemble_prompt(Paradigm.FEW_SHOT, [demo], dance_instance)
        assert f"\nA: {demo.answer}\n" in prompt
        assert "simplified" not in prompt

    def test_demo_compatibility(self, dance_instance):
        demo = build_demonstration(dance_instance)
        with pytest.raises(IncompatibleDemosError):
            assemble_prompt(Paradigm.ZERO_SHOT, [demo], dance_instance)
        with pytest.raises(IncompatibleDemosError):
            assemble_prompt(Paradigm.META_REASONING, [], dance_instance)


class TestNames:
    def test_task_and_paradigm_names_fold_case_and_underscores(self):
        assert task_from_string("wol") is Task.WOL
        assert task_from_string(" TSO7 ") is Task.TSO7
        assert paradigm_from_string("few_shot_cot") is Paradigm.FEW_SHOT_COT
        assert paradigm_from_string(" Meta-Reasoning ") is Paradigm.META_REASONING
        with pytest.raises(ValueError, match="unknown task 'TSO4'"):
            task_from_string("TSO4")
        with pytest.raises(ValueError, match="unknown paradigm 'one-shot'"):
            paradigm_from_string("one-shot")


class TestOracleBackend:
    def test_tracking_prompt(self, dance_instance):
        prompt = assemble_prompt(Paradigm.ZERO_SHOT, [], dance_instance)
        completion = complete(OracleBackend(), prompt, prompt_sha256(prompt))
        assert completion.rstrip(".").endswith("the answer is (C)")

    def test_target_is_last_block(self, dance_instance, coin_instance):
        demo = build_demonstration(dance_instance)
        prompt = assemble_prompt(Paradigm.META_REASONING, [demo], coin_instance)
        completion = complete(OracleBackend(), prompt, prompt_sha256(prompt))
        assert completion.endswith("the answer is: no.")

    def test_strips_cot_trigger_from_target(self, truth_chain_instance):
        prompt = assemble_prompt(Paradigm.ZERO_SHOT_COT, [], truth_chain_instance)
        completion = complete(OracleBackend(), prompt, prompt_sha256(prompt))
        assert completion.endswith("the answer is: no.")

    @pytest.mark.parametrize("paradigm", [Paradigm.ZERO_SHOT, Paradigm.ZERO_SHOT_COT])
    def test_a_question_that_ends_in_the_trigger_is_read_whole(self, truth_chain_instance, paradigm):
        # The paradigm's trigger follows the answer cue; one before it is the question's own.
        inst = replace(truth_chain_instance, question=f"{truth_chain_instance.question} {COT_TRIGGER}")
        assert _target_question(assemble_prompt(paradigm, [], inst)) == (inst.question, None)

    def test_unresolvable_prompt(self):
        backend = OracleBackend()
        prompt = "Q: What is the meaning of life?\nA:"
        for _ in range(2):  # a failed solve is not stored, so it raises every time
            with pytest.raises(OracleUnresolvableError):
                complete(backend, prompt, prompt_sha256(prompt))

    def test_a_run_solves_each_target_question_once(self, tmp_path, monkeypatch):
        from metareason.harness import backends

        config, instances = _write_eval_setup(tmp_path)
        config["paradigms"] = [paradigm.value for paradigm in Paradigm]
        questions = []
        real_resolve_any = backends.resolve_any

        def counting_resolve_any(question, options=None):
            questions.append(question)
            return real_resolve_any(question, options)

        monkeypatch.setattr(backends, "resolve_any", counting_resolve_any)
        report = run_eval(EvalConfig.from_json_dict(config))
        assert len(report.records) == 5 * len(instances)
        assert all(cell.accuracy == 1.0 for cell in report.cells.values())
        assert sorted(questions) == sorted(inst.question for inst in instances)

    def test_solved_table_leaves_equality_hash_and_repr_alone(self, coin_instance):
        used, fresh = OracleBackend(), OracleBackend()
        prompt = assemble_prompt(Paradigm.ZERO_SHOT, [], coin_instance)
        complete(used, prompt, prompt_sha256(prompt))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "OracleBackend()"
        assert len(used._solved) == 1 and not fresh._solved


class TestReplayBackend:
    def test_lookup_and_miss(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        save_fixtures(path, {"prompt one": "completion one"})
        backend = ReplayBackend(fixture_path=str(path))
        assert complete(backend, "prompt one", prompt_sha256("prompt one")) == "completion one"
        with pytest.raises(FixtureMissError):
            complete(backend, "prompt two", prompt_sha256("prompt two"))

    def test_a_new_backend_reads_a_rewritten_fixture_file(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        save_fixtures(path, {"prompt": "old completion"})
        digest = prompt_sha256("prompt")
        assert complete(ReplayBackend(fixture_path=str(path)), "prompt", digest) == "old completion"
        save_fixtures(path, {"prompt": "new completion"})
        assert complete(ReplayBackend(fixture_path=str(path)), "prompt", digest) == "new completion"

    def test_lookup_is_by_the_digest_it_is_given(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        save_fixtures(path, {"prompt one": "completion one"})
        backend = ReplayBackend(fixture_path=str(path))
        assert complete(backend, "other text", prompt_sha256("prompt one")) == "completion one"
        absent = prompt_sha256("prompt two")
        with pytest.raises(FixtureMissError, match=f"no fixture for prompt {absent[:12]}…"):
            complete(backend, "prompt one", absent)

    @pytest.mark.parametrize("line, problem", [
        ({"prompt_sha256": "d", "completion": 5}, "completion must be a string, got 5"),
        ({"prompt_sha256": None, "completion": "c"}, "prompt_sha256 must be a string, got None"),
        ({"prompt_sha256": "d", "completion": "c", "prompt": "p"}, "prompt is not a known field"),
    ], ids=["completion", "prompt_sha256", "stray"])
    def test_a_fixture_that_is_not_text_names_its_line(self, tmp_path, line, problem):
        path = tmp_path / "fixtures.jsonl"
        save_fixtures(path, {"p": "c"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}: line 2: {problem}")):
            complete(ReplayBackend(str(path)), "p", prompt_sha256("p"))

    def test_fixture_hashes_are_sha256(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        save_fixtures(path, {"p": "c"})
        record = json.loads(path.read_text().strip())
        assert record["prompt_sha256"] == prompt_sha256("p")
        assert len(record["prompt_sha256"]) == 64


class _Interrupted(Exception):
    pass


def _raising_after(items, count):
    yield from list(items)[:count]
    raise _Interrupted


def _instances():
    return generate(GenConfig(task=Task.CF, count=4, seed=5))


@pytest.mark.parametrize("save, items, failing", [
    (save_instances, _instances, lambda items: _raising_after(items, 2)),
    (save_demonstrations, lambda: [build_demonstration(inst) for inst in _instances()],
     lambda items: _raising_after(items, 2)),
    # save_fixtures reads the pairs through .items()
    (save_fixtures, lambda: {f"prompt {n}": f"completion {n}" for n in range(4)},
     lambda pairs: SimpleNamespace(items=lambda: _raising_after(pairs.items(), 2))),
], ids=["instances", "demonstrations", "fixtures"])
def test_a_save_that_raises_leaves_the_previous_file(tmp_path, save, items, failing):
    path = tmp_path / "out.jsonl"
    save(path, items())
    before = path.read_bytes()
    with pytest.raises(_Interrupted):
        save(path, failing(items()))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.jsonl"]


class _CompletionServer(ThreadingHTTPServer):
    """A loopback HTTP/1.1 keep-alive server that counts the connections it
    accepts and records each request's line, headers and JSON body.

    ``status`` is the reply status for every request but the first
    ``failures``, which get a 503, and ``text`` the reply text, or a function
    of the request's prompt that returns it. Each reply waits ``delay``
    seconds. ``arrivals`` holds each request's prompt and the number of
    requests then in flight, itself included. A server with
    ``requests_per_connection`` closes each connection, unannounced, after
    serving that many requests and then sets ``closed``.
    """

    def __init__(self, status=200, text=" the answer is 4", requests_per_connection=None,
                 failures=0, delay=0.0):
        super().__init__(("127.0.0.1", 0), _CompletionHandler)
        self.status = status
        self.text = text
        self.requests_per_connection = requests_per_connection
        self.failures = failures
        self.delay = delay
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = []
        self.arrivals = []
        self.inflight = 0
        self.closed = threading.Event()
        self.thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_port}/v1/completions"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


class _CompletionHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the body
    # would wait for the client's delayed ACK, ~40 ms per request.
    disable_nagle_algorithm = True
    timeout = 10  # an idle kept-alive connection ends instead of pinning a thread

    def handle(self):
        with self.server.lock:
            self.server.connections += 1
        served = 0
        self.close_connection = False
        while not self.close_connection and served != self.server.requests_per_connection:
            self.handle_one_request()
            served += 1

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.requests.append((self.requestline, self.headers, body))
            server.inflight += 1
            server.arrivals.append((body["prompt"], server.inflight))
            status = 503 if len(server.requests) <= server.failures else server.status
        if server.delay:
            time.sleep(server.delay)
        with server.lock:  # before the reply, which lets the client send its next request
            server.inflight -= 1
        text = server.text(body["prompt"]) if callable(server.text) else server.text
        reply = json.dumps({"choices": [{"text": text}]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _request(backend, prompt):
    """``prompt``'s request to ``backend`` as ``runner._run_http`` builds it. Each ``attempt()``
    sends it once on this thread and returns the completion or the backoff it asks for."""
    load_transport()
    return _HttpRequest(backend, prompt, request_headers(backend))


_DROPPED = object()  # the key left out of the line
# One record line as RecordStore.append writes it.
_RECORD_TEXT = (
    '{"instance_id": "cf-1", "dataset": "cf", "task": "CF", "paradigm": "zero-shot", "prompt_sha256": "p", '
    '"completion": "c", "extracted": "yes", "gold": "yes", "correct": true, "latency_ms": 1.5}'
)

# A valid line of each field table, and the keys it may hold beside its settings.
_VALID_LINES = [
    (TaskInstance, {"id": "cf-1", "task": "CF", "question": "q", "options": ["a", "b"],
                    "answer": "yes", "meta": "m"}, ()),
    (Demonstration, {"question": "q", "rationale": "r", "answer": "a", "mode": "cross-serial",
                     "n_substeps": 2}, ()),
    (_Fixture, {"prompt_sha256": "d", "completion": "c"}, ()),
    # A stored verdict is accepted but not read: the record makes its own.
    (EvalRecord, {"instance_id": "cf-1", "dataset": "cf", "task": "CF", "paradigm": "zero-shot",
                  "prompt_sha256": "0" * 64, "completion": "So the answer is Yes.",
                  "extracted": "yes", "gold": "yes", "correct": False, "latency_ms": 1.5}, ("correct",)),
    (DatasetSpec, {"name": "cf", "path": "cf.jsonl"}, ()),
    (DemoSpec, {"path": "cf-demos.jsonl", "k": 2}, ()),
    (HttpBackend, {"kind": "http", "endpoint_url": "http://127.0.0.1:1", "model_name": "m",
                   "auth_token_env_var": "TOKEN", "temperature": 0.5, "max_tokens": 8,
                   "timeout": 1.5, "max_retries": 2, "parallelism": 2}, ("kind",)),
    (ReplayBackend, {"fixture_path": "f.jsonl"}, ()),
    (GenConfig, {"task": "CF", "count": 3, "seed": 1, "n_swaps": 2, "chain_len": 3, "n_people": 2,
                 "n_words": 2, "n_ops": 2}, ()),
]


def _read_by_rules(cls, line, name, extra):
    """The settings of ``cls`` read from ``line`` by calling each field's rule in turn: the
    reference that the generated reader of the class must agree with."""
    settings = [(spec.metadata["key"] or spec.name, spec) for spec in fields(cls)
                if "read" in spec.metadata]
    prefix = f"{name}." if name else ""
    for key in line:
        if key not in extra and key not in dict(settings):
            raise FieldError(f"{prefix}{key} is not a known field")
    values = {}
    for key, spec in settings:
        if key in line:
            value = line[key]
            read = spec.metadata["read"]
            values[spec.name] = None if value is None and spec.default is None else read(value, prefix + key)
        elif spec.default is not MISSING:
            values[spec.name] = spec.default
        elif spec.default_factory is not MISSING:
            values[spec.name] = spec.default_factory()
        else:
            raise FieldError(f"{prefix}{key} is missing")
    return values


class TestInputLines:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from([
            (cls, key, line, extra) for cls, line, extra in _VALID_LINES for key in [*line, "glod"]
        ]),
        value=st.sampled_from([
            None, True, 5, 2.5, -0.0, float("nan"), float("inf"), float("-inf"), 10**400, "x", "",
            "3", "cf ", "Few_Shot", "\ud800", [], ["a"], {}, _DROPPED,
        ]),
        name=st.sampled_from(["", "backend"]),
    )
    def test_each_reader_reads_what_its_rules_read(self, case, value, name):
        """Each field table's reader, with one field of a valid line set to ``value`` or left
        out, returns what calling each field's rule returns, or raises the same message."""
        cls, key, line, extra = case
        line = dict(line)
        if value is _DROPPED:
            line.pop(key, None)
        else:
            line[key] = value
        try:
            expected, refused = _read_by_rules(cls, line, name, extra), None
        except FieldError as exc:
            expected, refused = None, str(exc)

        if refused is not None:
            with pytest.raises(FieldError, match="^" + re.escape(refused) + "$"):
                config_reader(cls, extra)(line, name)
            return
        obj = config_reader(cls, extra)(line, name)
        if cls is EvalRecord:  # the record makes its verdict again
            assert obj.correct is is_correct(obj.task, obj.extracted, obj.gold)
        # the same values, of the same kinds
        assert [(type(getattr(obj, field)), repr(getattr(obj, field))) for field in expected] == [
            (type(v), repr(v)) for v in expected.values()
        ]

    @pytest.mark.parametrize("cls, line, extra", _VALID_LINES, ids=[row[0].__name__ for row in _VALID_LINES])
    def test_what_json_fields_writes_reads_back_equal(self, cls, line, extra):
        """``json_fields`` is its class's reader reversed: the object read from a valid line,
        written through ``json.dumps`` and read again, is equal to itself."""
        read = config_reader(cls, extra)
        obj = read(line)
        assert read(json.loads(json.dumps(json_fields(obj)))) == obj

    @pytest.mark.parametrize("load", [load_instances, load_demonstrations, load_fixtures])
    def test_a_line_that_is_not_utf8_names_its_file_and_line(self, tmp_path, load):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b'\r\n\n{"id": "\xff"}\n')  # blank lines count
        problem = "not UTF-8 ('utf-8' codec can't decode byte 0xff in position 8: invalid start byte)"
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}: line 3: {problem}")):
            load(path)

    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(
        prefix=st.sampled_from(["", " ", "\t", "\ufeff", "\x1c"]),
        value=st.sampled_from([
            _RECORD_TEXT, _RECORD_TEXT.replace('"cf-1"', '"\\ud800"'), _RECORD_TEXT.replace('"cf-1"', '"\ud800"'),
            _RECORD_TEXT.replace("1.5", "NaN"), '{"id": "x", "task": "CF", "question": "q", "answer": "yes"}',
            '[1, 2.5, "a", null]', '"\\ud800"', '"\\ud83d\\ude00"', "NaN", "-Infinity", "1e400",
            "1" * 5000, "-" + "9" * 300, '{"a": 1', '{"a": 1}}', '{"a" 1}', '"\\x"', "nul", "",
        ]),
        suffix=st.sampled_from(["", " ", " x", " 1", "}", "\x1c", "\u2028", "\r", "\t\r"]),
        position=st.sampled_from(["before a record", "last", "torn"]),
    )
    def test_both_line_readers_read_what_json_loads_reads(
        self, tmp_path_factory, prefix, value, suffix, position
    ):
        """The dataset and record readers, given one line, return what they return with
        ``json.loads`` in place of their one-call decode, or raise the same error: the line
        before another, as the last line, or torn (no final newline)."""
        text = prefix + value + suffix
        text += {"before a record": "\n" + _RECORD_TEXT + "\n", "last": "\n", "torn": ""}[position]
        path = tmp_path_factory.mktemp("lines") / "lines.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        readers = [(resolution, lambda: list(read_jsonl(path, lambda fields: fields))),
                   (runner, lambda: _read_records(path))]
        for module, read in readers:
            outcomes = []
            for decode in (module.json_line, lambda text, length: json.loads(text)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(module, "json_line", decode)
                    try:
                        outcomes.append(repr(read()))
                    except Exception as exc:  # noqa: BLE001 - the class and message are compared
                        outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], (module.__name__, text)

class TestHttpBackend:
    def test_retries_then_transport_error(self, no_proxy_env):
        dials = []
        create_connection = socket.create_connection

        def counting_create_connection(*args, **kwargs):
            dials.append(args[0])
            return create_connection(*args, **kwargs)

        no_proxy_env.setattr(socket, "create_connection", counting_create_connection)
        with socket.socket() as unbound:  # bound but not listening: connections are refused
            unbound.bind(("127.0.0.1", 0))
            port = unbound.getsockname()[1]
            backend = HttpBackend(
                endpoint_url=f"http://127.0.0.1:{port}/v1/completions",
                model_name="m",
                max_retries=2,
            )
            request = _request(backend, "prompt")
            assert request.attempt() == 0.5
            assert request.attempt() == 1.0
            with pytest.raises(TransportError, match="after 3 attempts"):
                request.attempt()
        assert dials == [("127.0.0.1", port)] * 3  # initial attempt + two retries

    def test_complete_refuses_an_http_backend(self, no_proxy_env):
        with _CompletionServer() as server:
            backend = HttpBackend(endpoint_url=server.url, model_name="m")
            with pytest.raises(ConfigError, match=r"^complete\(\) answers a replay or oracle backend, not HttpBackend\("):
                complete(backend, "p", prompt_sha256("p"))
        assert server.requests == []

    @pytest.mark.parametrize("url", [
        "ftp://127.0.0.1/v1/completions", "http://127.0.0.1:99999/v1/completions", "http:///v1/completions",
    ], ids=["scheme", "port", "no-host"])
    def test_an_endpoint_url_it_cannot_dial_is_a_transport_error(self, no_proxy_env, url):
        request = _request(HttpBackend(endpoint_url=url, model_name="m"), "p")
        with pytest.raises(TransportError, match="^" + re.escape(f"unsupported endpoint URL {url!r}") + "$"):
            request.attempt()

    def test_success_parses_completion_text(self, no_proxy_env):
        no_proxy_env.setenv("FAKE_TOKEN", "secret")
        with _CompletionServer() as server:
            backend = HttpBackend(
                endpoint_url=server.url, model_name="m", auth_token_env_var="FAKE_TOKEN"
            )
            assert _request(backend, "2+2?").attempt() == " the answer is 4"
        [(request_line, headers, payload)] = server.requests
        assert request_line == "POST /v1/completions HTTP/1.1"
        assert payload["prompt"] == "2+2?"
        assert payload["temperature"] == 0.0
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"

    def test_non_retryable_status_fails_fast(self, no_proxy_env):
        with _CompletionServer(status=401) as server:
            backend = HttpBackend(endpoint_url=server.url, model_name="m", max_retries=5)
            with pytest.raises(TransportError, match="HTTP 401"):  # the first attempt, not a backoff
                _request(backend, "p").attempt()
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        ("body", "problem"),
        [
            (b"not json", "non-JSON completion response"),
            (b"[]", "completion response has no choices"),
            (b"{}", "completion response has no choices"),
            (b'{"choices": []}', "completion response has no choices"),
            (b'{"choices": ["x"]}', "completion choice has no text"),
            (b'{"choices": [null]}', "completion choice has no text"),
            (b'{"choices": "abc"}', "completion choice has no text"),
            (b'{"choices": [{"text": 5}]}', "completion choice has no text"),
        ],
    )
    def test_a_malformed_completion_body_is_a_transport_error(self, body, problem):
        with pytest.raises(TransportError, match=problem):
            _completion_text(body)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"choices": [{"text": "yes"}]}',
            b'{"choices": [{"message": {"content": "yes"}}]}',
            b'{"text": "yes"}',
        ],
    )
    def test_each_completion_body_form_gives_its_text(self, body):
        assert _completion_text(body) == "yes"

    def test_parallel_run_keeps_one_connection_per_worker(self, tmp_path, no_proxy_env):
        with _CompletionServer(text="So the answer is Yes.") as server:
            config, _ = _write_eval_setup(
                tmp_path,
                count=40,
                backend={"kind": "http", "endpoint_url": server.url, "model_name": "m",
                         "parallelism": 2},
            )
            config["paradigms"] = ["zero-shot"]
            config["demos"] = {}
            report = run_eval(EvalConfig.from_json_dict(config))
        assert report.cells[("cf", Paradigm.ZERO_SHOT)].total == 40
        assert len(server.requests) == 40
        assert 1 <= server.connections <= 2

    @pytest.mark.parametrize("kind", ["oracle", "http"])
    def test_a_run_that_sends_no_request_loads_no_http_module(self, tmp_path, no_proxy_env, kind):
        """A fresh interpreter runs ``metareason eval``: a fresh oracle run, or an HTTP run
        resumed with nothing left to send."""
        import subprocess
        import sys
        from pathlib import Path

        config, _ = _write_eval_setup(tmp_path, count=3)
        config.update(paradigms=["zero-shot"], demos={})
        if kind == "http":
            with _CompletionServer(text="So the answer is Yes.") as server:
                config["backend"] = {"kind": "http", "endpoint_url": server.url, "model_name": "m"}
                run_eval(EvalConfig.from_json_dict(config))
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        script = (
            "import sys, metareason.cli; "
            f"assert metareason.cli.main(['--quiet', 'eval', '--config', {str(config_path)!r}]) == 0; "
            "loaded = [m for m in ('http.client', 'ssl', 'email', 'urllib.request') if m in sys.modules]; "
            "assert not loaded, loaded"
        )
        src = str(Path(metareason.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert len(load_records(tmp_path / "out" / "records.jsonl")) == 3

    def test_threaded_dispatch_matches_sequential(self, tmp_path, no_proxy_env):
        config, _ = _write_eval_setup(tmp_path)
        config["paradigms"] = [paradigm.value for paradigm in Paradigm]
        oracle = run_eval(EvalConfig.from_json_dict(config))
        completions = {r.prompt_sha256: r.completion for r in oracle.records}

        def contents(run):
            return [(r.key(), r.completion, r.extracted, r.correct) for r in run.records]

        runs = []
        with _CompletionServer(text=lambda prompt: completions[prompt_sha256(prompt)]) as server:
            for parallelism in (1, 2):
                backend = {"kind": "http", "endpoint_url": server.url, "model_name": "m",
                           "parallelism": parallelism, "max_retries": 0}
                config.update(backend=backend, output_dir=str(tmp_path / f"http-{parallelism}"))
                runs.append(run_eval(EvalConfig.from_json_dict(config)))
        assert len(server.requests) == 2 * len(oracle.records) == 2 * 5 * 12
        assert contents(runs[0]) == contents(runs[1]) == contents(oracle)
        assert all(cell.accuracy == 1.0 for cell in runs[1].cells.values())

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_backoff_frees_its_slot_for_the_next_item(self, tmp_path, no_proxy_env, parallelism):
        with _CompletionServer(text="So the answer is Yes.", failures=1, delay=0.01) as server:
            config, _ = _write_eval_setup(
                tmp_path, count=20,
                backend={"kind": "http", "endpoint_url": server.url, "model_name": "m",
                         "parallelism": parallelism},
            )
            config["paradigms"] = ["zero-shot"]
            report = run_eval(EvalConfig.from_json_dict(config))
        prompts = [prompt for prompt, _ in server.arrivals]
        failed = prompts[0]
        retry = prompts.index(failed, 1)
        assert len(prompts) == 21 and report.cells[("cf", Paradigm.ZERO_SHOT)].total == 20
        assert prompts[1] != failed  # the slot took the next item, not the retry
        assert max(inflight for _, inflight in server.arrivals) <= parallelism
        if parallelism == 2:  # both slots kept sending while the failed item backed off
            assert 2 in [inflight for _, inflight in server.arrivals[2:retry]]
        [retried] = [r for r in report.records if r.prompt_sha256 == prompt_sha256(failed)]
        assert retried.latency_ms >= 500  # from the first send, the 0.5 s backoff included

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_refusals_in_a_row_hold_their_slots(self, tmp_path, no_proxy_env, parallelism):
        # A lone backoff lends its slot once; the lent slot's refusal holds
        # every slot until a retry is due, so a refusing server is not flooded.
        refused = parallelism + 1
        with _CompletionServer(text="So the answer is Yes.", failures=refused, delay=0.01) as server:
            config, _ = _write_eval_setup(
                tmp_path, count=20,
                backend={"kind": "http", "endpoint_url": server.url, "model_name": "m",
                         "parallelism": parallelism},
            )
            config["paradigms"] = ["zero-shot"]
            report = run_eval(EvalConfig.from_json_dict(config))
        prompts = [prompt for prompt, _ in server.arrivals]
        assert len(prompts) == 20 + refused and report.cells[("cf", Paradigm.ZERO_SHOT)].total == 20
        assert len(set(prompts[:refused])) == refused
        assert prompts[refused] in prompts[:refused]  # a retry, not a new item

    def test_waiting_out_the_last_backoff_does_not_spin(self, tmp_path, no_proxy_env):
        with _CompletionServer(text="So the answer is Yes.", failures=1) as server:
            config, _ = _write_eval_setup(
                tmp_path, count=3,
                backend={"kind": "http", "endpoint_url": server.url, "model_name": "m",
                         "parallelism": 2},
            )
            config["paradigms"] = ["zero-shot"]
            started, cpu = time.perf_counter(), time.process_time()
            run_eval(EvalConfig.from_json_dict(config))
            cpu, wall = time.process_time() - cpu, time.perf_counter() - started
        assert len(server.requests) == 4
        assert wall >= 0.5  # the retry waited out its backoff
        assert cpu < 0.2  # most of it asleep, not polling

    def test_a_transport_error_aborts_the_run(self, tmp_path, no_proxy_env):
        with _CompletionServer(status=401) as server:
            config, _ = _write_eval_setup(
                tmp_path, backend={"kind": "http", "endpoint_url": server.url, "model_name": "m",
                                   "parallelism": 2},
            )
            config["paradigms"] = ["zero-shot"]
            with pytest.raises(TransportError, match="HTTP 401"):
                run_eval(EvalConfig.from_json_dict(config))
        assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_connection_closed_while_idle_is_redialed(self, no_proxy_env):
        # Each first attempt returns the completion: the dropped connection costs no retry.
        with _CompletionServer(requests_per_connection=2) as server:
            backend = HttpBackend(endpoint_url=server.url, model_name="m")
            assert _request(backend, "one").attempt() == " the answer is 4"
            assert _request(backend, "two").attempt() == " the answer is 4"
            assert server.connections == 1
            assert server.closed.wait(timeout=5)
            assert _request(backend, "three").attempt() == " the answer is 4"
        assert server.connections == 2
        assert [payload["prompt"] for _, _, payload in server.requests] == ["one", "two", "three"]

    def test_http_proxy_gets_the_absolute_uri(self, no_proxy_env):
        endpoint = "http://completions.example:8080/v1/completions?x=1"
        with _CompletionServer() as proxy:
            no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.server_port}")
            backend = HttpBackend(endpoint_url=endpoint, model_name="m")
            assert _request(backend, "p").attempt() == " the answer is 4"
        [(request_line, headers, _)] = proxy.requests
        assert request_line == f"POST {endpoint} HTTP/1.1"
        assert headers["Host"] == "completions.example:8080"
        assert headers["User-Agent"] == f"metareason/{metareason.__version__}"

    def test_no_proxy_host_goes_direct(self, no_proxy_env):
        with _CompletionServer() as proxy, _CompletionServer() as server:
            no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.server_port}")
            no_proxy_env.setenv("NO_PROXY", "localhost,127.0.0.1")
            backend = HttpBackend(endpoint_url=server.url, model_name="m")
            assert _request(backend, "p").attempt() == " the answer is 4"
        assert proxy.requests == []
        [(request_line, _, _)] = server.requests
        assert request_line == "POST /v1/completions HTTP/1.1"

    def test_against_live_local_server(self, no_proxy_env, caplog):
        class Handler(BaseHTTPRequestHandler):
            hits = 0

            def do_POST(self):
                type(self).hits += 1
                if type(self).hits == 1:  # first attempt fails, retry succeeds
                    self.send_response(503)
                    self.end_headers()
                    return
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                reply = json.dumps(
                    {"choices": [{"text": f"echo:{body['model']}:the answer is 7"}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            backend = HttpBackend(
                endpoint_url=f"http://127.0.0.1:{server.server_port}/v1/completions",
                model_name="test-model",
                max_retries=2,
                timeout=5.0,
            )
            request = _request(backend, "Q: 3+4?\nA:")
            with caplog.at_level(logging.WARNING, logger="metareason.harness.backends"):
                assert request.attempt() == 0.5
                assert request.attempt() == "echo:test-model:the answer is 7"
            assert Handler.hits == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        [retry] = [r for r in caplog.records if r.name == "metareason.harness.backends"]
        assert retry.levelno == logging.WARNING
        assert (retry.attempt, retry.status, retry.backoff_s) == (1, 503, 0.5)
        assert not hasattr(retry, "error")


class TestBackendConfig:
    def test_kinds(self):
        assert isinstance(backend_from_config({"kind": "oracle"}), OracleBackend)
        assert isinstance(
            backend_from_config({"kind": "replay", "fixture_path": "f"}), ReplayBackend
        )
        http = backend_from_config(
            {"kind": "http", "endpoint_url": "u", "model_name": "m", "parallelism": 4}
        )
        assert http.parallelism == 4 and http.max_tokens == 512

    def test_bad_configs(self):
        def refused(read, config, message):
            """``read(config)`` raises a ConfigError that is ``bad config: `` plus ``message``."""
            with pytest.raises(ConfigError, match="^" + re.escape(f"bad config: {message}") + "$"):
                read(config)

        refused(backend_from_config, {"kind": "warp"},
                "backend.kind must be one of http, replay, oracle, got 'warp'")
        refused(backend_from_config, {"kind": "http", "endpoint_url": "u"},
                "backend.model_name is missing")
        http = {"kind": "http", "endpoint_url": "u", "model_name": "m"}
        for key, value, wanted in (
            ("parallelism", 0, "an integer >= 1"),
            ("temperature", "nan", "a finite number >= 0"),
            ("temperature", "inf", "a finite number >= 0"),
            ("temperature", -0.5, "a finite number >= 0"),
            ("timeout", -1, "a finite number > 0"),
            ("timeout", 0, "a finite number > 0"),
            ("timeout", "nan", "a finite number > 0"),
            ("max_tokens", 0, "an integer >= 1"),
            ("max_retries", -1, "an integer >= 0"),
            # A bool or a fractional number is refused, not read as 1 or truncated.
            ("parallelism", 2.9, "an integer >= 1"),
            ("parallelism", True, "an integer >= 1"),
            ("max_tokens", True, "an integer >= 1"),
            ("max_tokens", 16.5, "an integer >= 1"),
            ("max_retries", 1.5, "an integer >= 0"),
            ("max_retries", False, "an integer >= 0"),
            ("temperature", True, "a finite number >= 0"),  # float() reads true as 1.0
            ("timeout", True, "a finite number > 0"),
            ("max_tokens", "x", "an integer >= 1"),
            # A text setting is a non-empty string: urlsplit(5) and environ.get(5) raise.
            ("endpoint_url", 5, "a non-empty string"),
            ("auth_token_env_var", 5, "a non-empty string"),
            ("model_name", None, "a non-empty string"),
        ):
            refused(backend_from_config, {**http, key: value},
                    f"backend.{key} must be {wanted}, got {value!r}")
        refused(backend_from_config, {**http, "temprature": 0.7},
                "backend.temprature is not a known field")
        refused(backend_from_config, {"kind": "replay", "fixture_path": "f", "timeout": 5},
                "backend.timeout is not a known field")
        refused(backend_from_config, ["oracle"], "backend must be a JSON object, got ['oracle']")
        assert backend_from_config({**http, "max_retries": 0}).max_retries == 0
        for key, value, read in (
            ("parallelism", "2", 2), ("max_tokens", 16.0, 16), ("max_retries", 2, 2),
            ("temperature", "0.5", 0.5), ("timeout", 30, 30.0), ("auth_token_env_var", None, None),
        ):
            read_value = getattr(backend_from_config({**http, key: value}), key)
            assert read_value == read and type(read_value) is type(read)
        for path in (5, "", None, ["f"]):
            refused(backend_from_config, {"kind": "replay", "fixture_path": path},
                    f"backend.fixture_path must be a non-empty string, got {path!r}")
        evaluation = {
            "datasets": [{"name": "cf", "path": "cf.jsonl"}],
            "paradigms": ["zero-shot"],
            "backend": {"kind": "oracle"},
        }
        read = EvalConfig.from_json_dict
        for name in (5, "", None, ["cf"]):
            refused(read, {**evaluation, "datasets": [{"name": name, "path": "cf.jsonl"}]},
                    f"datasets[0].name must be a non-empty string, got {name!r}")
        refused(read, {**evaluation, "paradigms": [5]}, "paradigms[0] must be a paradigm name, got 5")
        # open() takes an int path as a file descriptor: 5 is EBADF, 0 reads stdin.
        for path in (5, 0, "", None, ["cf.jsonl"]):
            refused(read, {**evaluation, "datasets": [{"name": "cf", "path": path}]},
                    f"datasets[0].path must be a non-empty string, got {path!r}")
            refused(read, {**evaluation, "demos": {"cf": {"path": path, "k": 1}}},
                    f"demos['cf'].path must be a non-empty string, got {path!r}")
            refused(read, {**evaluation, "output_dir": path},
                    f"output_dir must be a non-empty string, got {path!r}")
        # JSON reads 1e400 as inf, which int() refuses with an OverflowError.
        for seed in (None, [1], "x", float("inf"), 2.5, True, False):
            refused(read, {**evaluation, "seed": seed}, f"seed must be an integer, got {seed!r}")
        assert read({**evaluation, "seed": "3"}).seed == 3
        refused(read, {**evaluation, "backend": {**http, "parallelism": 2.9}},
                "backend.parallelism must be an integer >= 1, got 2.9")
        for demos in (["x"], "cf", 5):
            refused(read, {**evaluation, "demos": demos},
                    f"demos must map dataset names to demo specs, got {demos!r}")
        for k in (-1, 0, 1.9, True, float("inf")):
            refused(read, {**evaluation, "demos": {"cf": {"path": "d", "k": k}}},
                    f"demos['cf'].k must be an integer >= 1, got {k!r}")
        refused(read, {**evaluation, "demos": {"cf": {"k": 2}}}, "demos['cf'].path is missing")
        refused(read, {**evaluation, "demos": {"cf": ["d"]}},
                "demos['cf'] must be a JSON object, got ['d']")
        refused(read, {**evaluation, "demos": {"cf": {"path": "d", "k": 1, "n": 2}}},
                "demos['cf'].n is not a known field")
        # A misspelled or stray key anywhere is refused, not ignored.
        refused(read, {**evaluation, "sed": 3}, "sed is not a known field")
        refused(read, {**evaluation, "snapshot": {}}, "snapshot is not a known field")
        refused(read, {**evaluation, "datasets": [{"name": "cf", "path": "p", "task": "CF"}]},
                "datasets[0].task is not a known field")
        refused(read, {**evaluation, "demos": {"cf": {"path": "d"}, "tso7": {"path": "d"}}},
                "demos['tso7'] names no dataset of this config")
        for key in ("datasets", "paradigms", "backend"):
            refused(read, {k: v for k, v in evaluation.items() if k != key}, f"{key} is missing")
        for key, value in (("paradigms", "zero-shot"), ("paradigms", []), ("datasets", []),
                           ("datasets", {"name": "cf", "path": "p"})):
            refused(read, {**evaluation, key: value},
                    f"{key} must be a non-empty list, got {value!r}")
        refused(read, {**evaluation, "datasets": ["cf.jsonl"]},
                "datasets[0] must be a JSON object, got 'cf.jsonl'")
        refused(read, {**evaluation, "datasets": [{"name": "cf", "path": "a"}, {"name": "cf", "path": "b"}]},
                "datasets[1]: 'cf' is listed twice")
        refused(read, {**evaluation, "backend": ["oracle"]},
                "backend must be a JSON object, got ['oracle']")
        refused(read, [evaluation], f"the config must be a JSON object, got {[evaluation]!r}")

    def test_an_int_in_a_float_setting_reads_as_a_float(self, tmp_path, no_proxy_env):
        with _CompletionServer(text="So the answer is Yes.") as server:
            backend = {"kind": "http", "endpoint_url": server.url, "model_name": "m",
                       "temperature": 0, "timeout": 30}
            config, _ = _write_eval_setup(tmp_path, count=2, backend=backend)
            config.update(paradigms=["zero-shot"], demos={})
            run_eval(EvalConfig.from_json_dict(config))
        fingerprint = {"kind": "http", "endpoint_url": server.url, "model_name": "m",
                       "temperature": 0.0, "max_tokens": 512}
        run_text = (tmp_path / "out" / "run.json").read_text(encoding="utf-8")
        assert run_text == json.dumps({"backend": fingerprint}, sort_keys=True) + "\n"
        assert '"temperature": 0.0' in run_text
        assert [payload["temperature"] for _, _, payload in server.requests] == [0.0, 0.0]

    @pytest.mark.parametrize("token", [None, ""], ids=["unset", "empty"])
    def test_an_auth_variable_that_is_not_set_stops_the_run_first(
        self, tmp_path, capsys, no_proxy_env, token
    ):
        if token is None:
            no_proxy_env.delenv("METAREASON_TEST_TOKEN", raising=False)
        else:
            no_proxy_env.setenv("METAREASON_TEST_TOKEN", token)
        with _CompletionServer() as server:
            backend = {"kind": "http", "endpoint_url": server.url, "model_name": "m",
                       "auth_token_env_var": "METAREASON_TEST_TOKEN"}
            config, _ = _write_eval_setup(tmp_path, count=2, backend=backend)
            config.update(paradigms=["zero-shot"], demos={})
            config_path = tmp_path / "cfg.json"
            config_path.write_text(json.dumps(config))
            capsys.readouterr()
            assert main(["eval", "--config", str(config_path)]) == 1
        message = "backend.auth_token_env_var names METAREASON_TEST_TOKEN, which is not set"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert server.requests == []
        assert not (tmp_path / "out" / "run.json").exists()

    def test_the_fingerprint_holds_what_shapes_completions(self):
        from metareason.harness.backends import backend_fingerprint

        http = {"kind": "http", "endpoint_url": "http://127.0.0.1:9/v1", "model_name": "m"}
        base = backend_fingerprint(backend_from_config(http))
        for key, value in (
            ("auth_token_env_var", "TOKEN"), ("timeout", 5), ("max_retries", 0), ("parallelism", 4),
        ):
            assert backend_fingerprint(backend_from_config({**http, key: value})) == base
        for key, value in (
            ("endpoint_url", "http://127.0.0.1:10/v1"), ("model_name", "n"),
            ("temperature", 0.5), ("max_tokens", 16),
        ):
            assert backend_fingerprint(backend_from_config({**http, key: value})) != base
        replay = backend_from_config({"kind": "replay", "fixture_path": "f.jsonl"})
        assert backend_fingerprint(replay)["fixture_path"] == os.path.abspath("f.jsonl")
        assert backend_fingerprint(OracleBackend()) == {"kind": "oracle"}


class TestScore:
    def test_all_correct_is_one(self):
        records = [
            _record("cf", Task.CF, Paradigm.ZERO_SHOT, f"i{i}", "yes", "yes")
            for i in range(250)
        ]
        report = score(records)
        assert report.cells[("cf", Paradigm.ZERO_SHOT)].accuracy == 1.0

    def test_tracking_average_matches_reported_rule(self):
        records = []
        for dataset, task, correct in (
            ("TSO3", Task.TSO3, 243),
            ("TSO5", Task.TSO5, 250),
            ("TSO7", Task.TSO7, 248),
        ):
            for i in range(250):
                extracted = "A" if i < correct else "B"
                records.append(
                    _record(dataset, task, Paradigm.META_REASONING, f"{dataset}-{i}", extracted, "A")
                )
        report = score(records)
        cells = report.task_cells(Paradigm.META_REASONING)
        assert format_pct(cells[Task.TSO3].accuracy) == "97.2"
        assert format_pct(cells[Task.TSO5].accuracy) == "100.0"
        assert format_pct(cells[Task.TSO7].accuracy) == "99.2"
        assert format_pct(report.tso_average(Paradigm.META_REASONING)) == "98.8"
        expected = (0.972 + 1.0 + 0.992) / 3
        assert report.tso_average(Paradigm.META_REASONING) == pytest.approx(expected)

    def test_order_independence(self):
        rng = random.Random(0)
        records = [
            _record("cf", Task.CF, Paradigm.ZERO_SHOT, f"i{i}", "yes" if i % 3 else "no", "yes")
            for i in range(60)
        ]
        records += [
            _record(dataset, Task.CF, paradigm, f"i{i}", "yes", "yes")
            for dataset in ("cf-b", "cf-a")
            for paradigm in reversed(Paradigm)
            for i in range(3)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert report_json(score(records)) == report_json(score(shuffled))
        assert [r.key() for r in score(shuffled).records] == sorted(r.key() for r in records)

    def test_empty_records_rejected(self):
        from metareason.harness.runner import EmptyDatasetError

        with pytest.raises(EmptyDatasetError):
            score([])

    def test_table_layout(self):
        records = [_record("TSO3", Task.TSO3, Paradigm.META_REASONING, "a", "A", "A")]
        table = render_table(score(records))
        head, _, row = table.splitlines()[:3]
        assert head.split() == [
            "Method", "MA", "AS", "LLC", "CF", "WoL",
            "TSO(3)", "TSO(5)", "TSO(7)", "TSO(Avg.)", "Avg.",
        ]
        assert row.split() == [
            "Meta-Reasoning", "-", "-", "-", "-", "-", "100.0", "-", "-", "100.0", "100.0",
        ]

    def test_csv_output(self):
        records = [_record("cf", Task.CF, Paradigm.ZERO_SHOT, "a", "yes", "yes")]
        lines = report_csv(score(records)).strip().splitlines()
        assert lines[0] == "dataset,task,paradigm,correct,total,accuracy_pct"
        assert lines[1] == "cf,CF,zero-shot,1,1,100.0"


def _write_eval_setup(tmp_path, count=12, backend=None):
    dataset_path = tmp_path / "cf.jsonl"
    instances = generate(GenConfig(task=Task.CF, count=count, seed=51))
    save_instances(dataset_path, instances)
    demo_pool_path = tmp_path / "cf-demos.jsonl"
    demo_instances = generate(GenConfig(task=Task.CF, count=3, seed=52))
    save_demonstrations(demo_pool_path, [build_demonstration(i) for i in demo_instances])
    config = {
        "datasets": [{"name": "cf", "path": str(dataset_path)}],
        "paradigms": ["meta-reasoning"],
        "backend": backend or {"kind": "oracle"},
        "demos": {"cf": {"path": str(demo_pool_path), "k": 2}},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    return config, instances


class TestRunEval:
    def test_oracle_backend_reaches_ceiling(self, tmp_path):
        config, instances = _write_eval_setup(tmp_path)
        report = run_eval(EvalConfig.from_json_dict(config))
        cell = report.cells[("cf", Paradigm.META_REASONING)]
        assert cell.total == len(instances)
        assert cell.accuracy == 1.0
        assert (tmp_path / "out" / "records.jsonl").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_resume_equivalence(self, tmp_path):
        import shutil

        config, _ = _write_eval_setup(tmp_path)
        out_dir = tmp_path / "out"
        run_eval(EvalConfig.from_json_dict(config), max_records=5)
        partial = (out_dir / "records.jsonl").read_text().strip().splitlines()
        assert len(partial) == 5
        run_eval(EvalConfig.from_json_dict(config))
        resumed_report = (out_dir / "report.json").read_bytes()

        shutil.rmtree(out_dir)
        run_eval(EvalConfig.from_json_dict(config))
        assert (out_dir / "report.json").read_bytes() == resumed_report

    def test_resume_after_a_torn_record_line(self, tmp_path, caplog):
        import shutil

        config, _ = _write_eval_setup(tmp_path)
        out_dir = tmp_path / "out"
        records_path = out_dir / "records.jsonl"
        run_eval(EvalConfig.from_json_dict(config))
        uninterrupted = (out_dir / "report.json").read_bytes()

        shutil.rmtree(out_dir)
        run_eval(EvalConfig.from_json_dict(config), max_records=5)
        complete_lines = records_path.read_bytes()
        torn = complete_lines.splitlines(keepends=True)[0][:200]
        records_path.write_bytes(complete_lines + torn)
        with caplog.at_level(logging.WARNING, logger="metareason.harness.runner"):
            run_eval(EvalConfig.from_json_dict(config))
        assert (out_dir / "report.json").read_bytes() == uninterrupted
        assert records_path.read_bytes().startswith(complete_lines)
        assert len(records_path.read_bytes().splitlines()) == 12
        [warning] = [r for r in caplog.records if r.name == "metareason.harness.runner"]
        assert (warning.records, warning.torn_at_byte) == (5, len(complete_lines))

    def test_unparseable_last_line_is_dropped_but_a_middle_one_raises(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config), max_records=3)
        records_path = tmp_path / "out" / "records.jsonl"
        lines = records_path.read_bytes().splitlines(keepends=True)
        records_path.write_bytes(b"".join(lines) + b'{"instance_id": \n')
        assert len(load_records(records_path)) == 3
        assert len(records_path.read_bytes().splitlines()) == 4  # reading leaves the file
        records_path.write_bytes(lines[0] + b"{not json}\n" + b"".join(lines[1:]))
        with pytest.raises(RecordLineError):
            load_records(records_path)
        with pytest.raises(RecordLineError):
            run_eval(EvalConfig.from_json_dict(config))

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda fields: [1], "the line must be a JSON object, got [1]"),
            (lambda fields: {**fields, "task": 5}, "task must be a task name, got 5"),
            (lambda fields: {**fields, "extracted": 5}, "extracted must be a string, got 5"),
            (
                lambda fields: {k: v for k, v in fields.items() if k != "instance_id"},
                "instance_id is missing",
            ),
            # Each was once read as str() or float() of itself: 'None', '[1]', 5 and 1.0.
            (lambda fields: {**fields, "gold": None}, "gold must be a string, got None"),
            (lambda fields: {**fields, "instance_id": [1]}, "instance_id must be a string, got [1]"),
            (lambda fields: {**fields, "completion": 5}, "completion must be a string, got 5"),
            (
                lambda fields: {**fields, "latency_ms": True},
                "latency_ms must be a finite number, got True",
            ),
            (lambda fields: {**fields, "glod": "yes"}, "glod is not a known field"),
            (
                lambda fields: {**fields, "latency_ms": float("-inf")},
                "latency_ms must be a finite number, got -inf",
            ),
        ],
        ids=["array", "int-task", "int-extracted", "no-instance-id", "null-gold", "list-id",
             "int-completion", "bool-latency", "stray-key", "minus-infinity-latency"],
    )
    def test_a_line_that_is_not_a_record_names_its_line_and_field(
        self, tmp_path, capsys, restore_logging, edit, problem
    ):
        config, _ = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config), max_records=3)
        records_path = tmp_path / "out" / "records.jsonl"
        lines = records_path.read_bytes().splitlines(keepends=True)
        bad = json.dumps(edit(json.loads(lines[1]))).encode() + b"\n"
        records_path.write_bytes(lines[0] + bad + lines[2])
        message = f"{records_path}: line 2: {problem}"
        with pytest.raises(RecordLineError, match=re.escape(message)) as raised:
            run_eval(EvalConfig.from_json_dict(config))
        assert (raised.value.path, raised.value.line_number) == (str(records_path), 2)
        assert records_path.read_bytes() == lines[0] + bad + lines[2]
        capsys.readouterr()
        assert main(["report", "--records", str(records_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_completion_with_a_lone_surrogate_is_stored_and_resumed(self, tmp_path, capsys):
        """A completion cut inside a surrogate pair holds a lone surrogate, which UTF-8 cannot
        hold: records.jsonl stores its JSON escape, and a resume reads back the same string."""
        instances = generate(GenConfig(task=Task.CF, count=3, seed=5))
        dataset_path = tmp_path / "cf.jsonl"
        save_instances(dataset_path, instances)
        completions = ["So the answer is yes.", "the answer is no \ud800", "So the answer is no."]
        fixture_path = tmp_path / "fixtures.jsonl"
        fixture_path.write_text("".join(  # json.dumps writes the surrogate as its escape
            json.dumps({"prompt_sha256": prompt_sha256(assemble_prompt(Paradigm.ZERO_SHOT, [], inst)),
                        "completion": text}) + "\n"
            for inst, text in zip(instances, completions)
        ), encoding="utf-8")
        config = {
            "datasets": [{"name": "cf", "path": str(dataset_path)}],
            "paradigms": ["zero-shot"],
            "backend": {"kind": "replay", "fixture_path": str(fixture_path)},
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        records_path = tmp_path / "out" / "records.jsonl"
        run_eval(EvalConfig.from_json_dict(config), max_records=2)
        assert main(["--quiet", "eval", "--config", str(config_path)]) == 0
        stored = records_path.read_bytes()
        stored.decode("utf-8")  # the file stays UTF-8: the surrogate is written as its escape
        assert b'no \\ud800"' in stored
        assert [record.completion for record in load_records(records_path)] == completions
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["--quiet", "eval", "--config", str(config_path)]) == 0
        assert records_path.read_bytes() == stored
        assert (tmp_path / "out" / "report.json").read_bytes() == report
        capsys.readouterr()

    def test_a_lone_surrogate_in_an_extracted_answer_reaches_both_reports(self, tmp_path, capsys):
        instances = generate(GenConfig(task=Task.LLC, count=2, seed=5))
        dataset_path = tmp_path / "llc.jsonl"
        save_instances(dataset_path, instances)
        answers = ["ab\ud800", instances[1].gold]
        fixture_path = tmp_path / "fixtures.jsonl"
        save_fixtures(fixture_path, {
            assemble_prompt(Paradigm.ZERO_SHOT, [], inst): f'So the answer is "{answer}".'
            for inst, answer in zip(instances, answers)
        })
        config = {
            "datasets": [{"name": "llc", "path": str(dataset_path)}],
            "paradigms": ["zero-shot"],
            "backend": {"kind": "replay", "fixture_path": str(fixture_path)},
            "output_dir": str(tmp_path / "out"),
        }
        run_eval(EvalConfig.from_json_dict(config))
        with open(tmp_path / "out" / "report.json", encoding="utf-8") as handle:
            report = json.load(handle)
        assert sorted(item["extracted"] for item in report["records"]) == sorted(answers)
        out = tmp_path / "cli-report.json"
        records = str(tmp_path / "out" / "records.jsonl")
        assert main(["report", "--records", records, "--format", "json", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as handle:
            assert json.load(handle)["records"] == report["records"]
        capsys.readouterr()

    def test_a_question_with_a_lone_surrogate_is_hashed_run_and_resumed(self, tmp_path, capsys):
        """A dataset question may hold a lone surrogate (a JSON escape): its prompt digest hashes
        the surrogate's ``surrogatepass`` bytes, so replay finds it and a resume checks it."""
        instances = generate(GenConfig(task=Task.CF, count=3, seed=5))
        instances[1] = replace(instances[1], question=instances[1].question + "\ud800")
        dataset_path = tmp_path / "cf.jsonl"
        save_instances(dataset_path, instances)
        assert dataset_path.read_bytes().count(b"\\ud800") == 1
        fixture_path = tmp_path / "fixtures.jsonl"
        save_fixtures(fixture_path, {
            assemble_prompt(Paradigm.ZERO_SHOT, [], inst): f"So the answer is {inst.gold}." for inst in instances
        })
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "datasets": [{"name": "cf", "path": str(dataset_path)}],
            "paradigms": ["zero-shot"],
            "backend": {"kind": "replay", "fixture_path": str(fixture_path)},
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        records_path = tmp_path / "out" / "records.jsonl"
        assert main(["--quiet", "eval", "--config", str(config_path)]) == 0
        stored = records_path.read_bytes()
        assert [record.correct for record in load_records(records_path)] == [True] * 3
        assert main(["--quiet", "eval", "--config", str(config_path)]) == 0
        assert records_path.read_bytes() == stored
        capsys.readouterr()

    def test_a_valid_prompt_keeps_its_digest(self):
        prompt = assemble_prompt(Paradigm.ZERO_SHOT, [], generate(GenConfig(task=Task.CF, count=1, seed=5))[0])
        assert prompt_sha256(prompt) == "af841c109d9a5aa0f86d2cc1c68fd350ef871aeaaeff5e07596098cda6bfe057"
        assert prompt_sha256("Ünïcödé → ✓") == "0fe233732742baf3e74ca5a208ef03bc1d2b45ed12869bba771c345e04b67b3c"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_a_report_to_stdout_writes_a_lone_surrogate_as_its_escape(self, tmp_path, capsys, fmt):
        config, _ = _write_eval_setup(tmp_path, count=3)
        run_eval(EvalConfig.from_json_dict(config))
        records_path = tmp_path / "surrogate-records.jsonl"
        with open(tmp_path / "out" / "records.jsonl", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        for fields in lines:
            fields["dataset"] += "\ud800"
            fields["instance_id"] += "\ud800"
        records_path.write_text("".join(json.dumps(fields) + "\n" for fields in lines), encoding="utf-8")
        out = tmp_path / f"report.{fmt}"
        capsys.readouterr()
        assert main(["report", "--records", str(records_path), "--format", fmt, "--out", str(out)]) == 0
        assert main(["report", "--records", str(records_path), "--format", fmt]) == 0
        printed = capsys.readouterr().out
        assert printed.encode("utf-8") == out.read_bytes()
        assert ("\\ud800" in printed) is (fmt != "table")  # the table names tasks, not datasets

    def test_an_unparseable_middle_line_names_its_line(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config), max_records=3)
        records_path = tmp_path / "out" / "records.jsonl"
        lines = records_path.read_bytes().splitlines(keepends=True)
        records_path.write_bytes(lines[0] + lines[1] + b"{not json}\n" + lines[2])
        with pytest.raises(RecordLineError, match=re.escape(f"{records_path}: line 3: not JSON: ")):
            load_records(records_path)
        records_path.write_bytes(lines[0] + b'{"task": "\xff"}\n' + lines[1] + lines[2])
        with pytest.raises(RecordLineError, match=re.escape(f"{records_path}: line 2: not UTF-8")):
            run_eval(EvalConfig.from_json_dict(config))
        records_path.write_bytes(lines[0] + lines[1] + lines[2] + b'{"task": "\xff"}\n')
        assert len(load_records(records_path)) == 3  # as the last line, it is torn

    def test_a_middle_line_is_labelled_by_its_cause(self, tmp_path):
        """The records reader and the three ``read_jsonl`` loaders label a line alike."""
        path = tmp_path / "lines.jsonl"
        for load, error in [(load_records, RecordLineError), (load_instances, MalformedLineError),
                            (load_demonstrations, MalformedLineError), (load_fixtures, MalformedLineError)]:
            path.write_bytes(b'{"latency_ms": ' + b"9" * 5000 + b'}\n{"task": "CF"}\n')
            with pytest.raises(error, match=re.escape(f"{path}: line 1: not JSON: Exceeds the limit")):
                load(path)
            path.write_bytes(b'{"task": "\xff"}\n{"task": "CF"}\n')
            with pytest.raises(error, match=re.escape(f"{path}: line 1: not UTF-8 (")):
                load(path)

    def test_a_run_opens_its_records_file_for_append_once(self, tmp_path, monkeypatch):
        import builtins

        config, _ = _write_eval_setup(tmp_path, count=40)
        records_path = str(tmp_path / "out" / "records.jsonl")
        appends = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if str(file) == records_path and "a" in mode:
                appends.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        report = run_eval(EvalConfig.from_json_dict(config))
        assert report.cells[("cf", Paradigm.META_REASONING)].total == 40
        assert appends == ["a"]

    def test_each_record_is_on_disk_before_the_next_item_runs(self, tmp_path, monkeypatch):
        from metareason.harness import runner

        config, _ = _write_eval_setup(tmp_path)
        records_path = tmp_path / "out" / "records.jsonl"
        seen = []
        real_complete = runner.complete

        def reading_complete(backend, prompt, digest):
            data = records_path.read_bytes() if records_path.exists() else b""
            lines = data.splitlines(keepends=True)
            assert all(line.endswith(b"\n") for line in lines)
            seen.append(len([json.loads(line) for line in lines]))
            return real_complete(backend, prompt, digest)

        monkeypatch.setattr(runner, "complete", reading_complete)
        run_eval(EvalConfig.from_json_dict(config))
        assert seen == list(range(12))

    def test_each_cell_builds_its_demonstration_prefix_once(self, tmp_path, monkeypatch):
        from metareason.harness import prompts, runner

        config, instances = _write_eval_setup(tmp_path)
        config["paradigms"] = [paradigm.value for paradigm in Paradigm]
        built = []
        real_demo_prefix = prompts.demo_prefix

        def counting_demo_prefix(paradigm, demos):
            built.append(paradigm)
            return real_demo_prefix(paradigm, demos)

        for module in (prompts, runner):  # the runner's name and assemble_prompt's
            monkeypatch.setattr(module, "demo_prefix", counting_demo_prefix)
        report = run_eval(EvalConfig.from_json_dict(config))
        assert len(report.records) == 5 * len(instances)
        assert built == list(Paradigm)

    def test_a_repeated_id_or_paradigm_is_refused_before_anything_runs(
        self, tmp_path, monkeypatch
    ):
        import dataclasses

        from metareason.harness import runner

        config, instances = _write_eval_setup(tmp_path, count=5)
        config.update(paradigms=["zero-shot"], demos={})
        first, second = instances[0].id, instances[1].id
        instances[2] = dataclasses.replace(instances[2], id=second)
        instances[3] = dataclasses.replace(instances[3], id=first)
        save_instances(tmp_path / "cf.jsonl", instances)

        def no_completion(*args):
            raise AssertionError("a refused config runs nothing")

        monkeypatch.setattr(runner, "complete", no_completion)
        expected = f"{tmp_path / 'cf.jsonl'}: instance id {second!r} is repeated"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            run_eval(EvalConfig.from_json_dict(config))
        assert not (tmp_path / "out" / "records.jsonl").exists()
        for paradigms in (["zero-shot", "zero-shot"], ["few-shot", "zero-shot", "Few_Shot"]):
            repeated = paradigm_from_string(paradigms[-1]).value
            with pytest.raises(ConfigError, match=f"{repeated!r} is listed twice"):
                EvalConfig.from_json_dict({**config, "paradigms": paradigms})

    def test_missing_demo_spec_is_config_error(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path)
        config["demos"] = {}
        with pytest.raises(ConfigError):
            run_eval(EvalConfig.from_json_dict(config))

    def test_empty_dataset_rejected(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        config["datasets"] = [{"name": "cf", "path": str(empty)}]
        from metareason.harness.runner import EmptyDatasetError

        with pytest.raises(EmptyDatasetError):
            run_eval(EvalConfig.from_json_dict(config))

    def test_parallelism_on_a_cpu_bound_backend_is_ignored_with_a_warning(
        self, tmp_path, monkeypatch, caplog
    ):
        import dataclasses

        from metareason.harness import runner

        config, _ = _write_eval_setup(tmp_path)
        config["paradigms"] = [paradigm.value for paradigm in Paradigm]
        plain = run_eval(EvalConfig.from_json_dict(config))
        fixture_path = tmp_path / "fixtures.jsonl"
        fixture_path.write_text(
            "".join(
                json.dumps({"prompt_sha256": r.prompt_sha256, "completion": r.completion}) + "\n"
                for r in plain.records
            ),
            encoding="utf-8",
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a CPU-bound backend runs on the calling thread")

        monkeypatch.setattr(runner, "ThreadPoolExecutor", no_pool)

        def contents(run):  # every field but the measured latency
            return [dataclasses.replace(r, latency_ms=0.0) for r in run.records]

        for kind, backend in (
            ("oracle", {"kind": "oracle"}),
            ("replay", {"kind": "replay", "fixture_path": str(fixture_path)}),
        ):
            runs = []
            for setting in ({}, {"parallelism": 4}):
                config.update(
                    backend={**backend, **setting},
                    output_dir=str(tmp_path / f"{kind}-{len(setting)}"),
                )
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="metareason.harness.backends"):
                    runs.append(run_eval(EvalConfig.from_json_dict(config)))
                warnings = [r for r in caplog.records if r.name == "metareason.harness.backends"]
                assert [(w.backend, w.parallelism) for w in warnings] == (
                    [(kind, 4)] if setting else []
                )
            assert contents(runs[0]) == contents(runs[1]) == contents(plain)

    def test_zero_shot_needs_no_demos(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path)
        config["paradigms"] = ["zero-shot"]
        config["demos"] = {}
        report = run_eval(EvalConfig.from_json_dict(config))
        assert report.cells[("cf", Paradigm.ZERO_SHOT)].accuracy == 1.0


def _rebuilt_prompts(config):
    """Each record key's prompt, rebuilt from the config with ``assemble_prompt``."""
    prompts = {}
    for dataset in config["datasets"]:
        spec = config["demos"][dataset["name"]]
        demos = select_demos(load_demonstrations(spec["path"]), spec["k"], config["seed"])
        for paradigm in map(paradigm_from_string, config["paradigms"]):
            shots = [] if paradigm in (Paradigm.ZERO_SHOT, Paradigm.ZERO_SHOT_COT) else demos
            for inst in load_instances(dataset["path"]):
                key = (dataset["name"], paradigm.value, inst.id)
                prompts[key] = assemble_prompt(paradigm, shots, inst)
    return prompts


def _to_parent_format(records_path, prompts):
    """Rewrite a records file as lines that hold the prompt in place of its digest."""
    lines = []
    for line in records_path.read_text(encoding="utf-8").splitlines():
        fields = json.loads(line)
        key = (fields["dataset"], fields["paradigm"], fields["instance_id"])
        old = {}
        for name, value in fields.items():
            if name == "prompt_sha256":
                name, value = "prompt", prompts[key]
            old[name] = value
        lines.append(json.dumps(old, ensure_ascii=False) + "\n")
    records_path.write_text("".join(lines), encoding="utf-8")


class TestPromptDigest:
    """Records store the SHA-256 of their prompt, and a resume refuses to mix
    records made under a different config."""

    AWKWARD = (
        'say "hi"', "back\\slash", "two\nlines", "tab\there", "bell\x07", "nul\x00",
        "sep\u2028par\u2029", "café", "中文", "🙂", "",
    )

    def test_each_line_is_the_stdlib_encoding_of_its_fields(self, tmp_path):
        path = tmp_path / "records.jsonl"
        paradigms = list(Paradigm)
        latencies = (0.0, 1e-7, 123.456, 1e20)
        written = []
        with RecordStore(str(path)) as store:
            for index, text in enumerate(self.AWKWARD):
                task = [Task.CF, Task.WOL, Task.TSO3][index % 3]
                gold = text if index % 2 else f"{text}!"
                record = EvalRecord(
                    instance_id=f"id {text}",
                    dataset=f"set {text}",
                    task=task,
                    paradigm=paradigms[index % len(paradigms)],
                    prompt_sha256=prompt_sha256(text),
                    completion=f"So the answer is {text}.",
                    extracted=text,
                    gold=gold,
                    correct=is_correct(task, text, gold),  # as loading recomputes it
                    latency_ms=latencies[index % len(latencies)],
                )
                store.append(record)
                written.append(record)
        fields = [
            {
                "instance_id": r.instance_id,
                "dataset": r.dataset,
                "task": r.task.value,
                "paradigm": r.paradigm.value,
                "prompt_sha256": r.prompt_sha256,
                "completion": r.completion,
                "extracted": r.extracted,
                "gold": r.gold,
                "correct": r.correct,
                "latency_ms": r.latency_ms,
            }
            for r in written
        ]
        expected = "".join(json.dumps(f, ensure_ascii=False) + "\n" for f in fields)
        assert path.read_text(encoding="utf-8") == expected
        assert load_records(path) == written

    def test_a_torn_line_is_cut_off_once_at_the_first_append(self, tmp_path):
        path = tmp_path / "records.jsonl"
        first, second, third = (
            _record("cf", Task.CF, Paradigm.ZERO_SHOT, f"cf-{i}", "yes", "yes") for i in range(3)
        )
        with RecordStore(str(path)) as store:
            store.append(first)
        whole = path.read_bytes()
        path.write_bytes(whole + whole[:40])
        store = RecordStore(str(path))
        assert path.read_bytes() == whole + whole[:40]  # loading leaves the torn line
        store.append(second)
        store.close()
        store.append(third)  # reopening must not cut off what was appended since
        store.close()
        assert load_records(path) == [first, second, third]

    def test_records_are_frozen_and_compare_by_value(self):
        import dataclasses

        record = _record("cf", Task.CF, Paradigm.FEW_SHOT, "cf-1", "A", "A")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.correct = False
        copy = dataclasses.replace(record)
        assert copy is not record and copy == record and hash(copy) == hash(record)
        assert len({record, copy}) == 1
        assert dataclasses.replace(record, prompt_sha256="q") != record

    def test_a_record_has_slots_and_no_dict(self):
        record = _record("cf", Task.CF, Paradigm.FEW_SHOT, "cf-1", "A", "A")
        assert not hasattr(record, "__dict__")
        assert EvalRecord.__slots__ == tuple(field.name for field in fields(EvalRecord))

    def test_a_fresh_run_stores_each_prompts_digest_and_no_prompt(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path)
        config["paradigms"] = [paradigm.value for paradigm in Paradigm]
        run_eval(EvalConfig.from_json_dict(config))
        lines = (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8").splitlines()
        stored = [json.loads(line) for line in lines]
        assert not [fields for fields in stored if "prompt" in fields]
        digests = {
            (fields["dataset"], fields["paradigm"], fields["instance_id"]): fields["prompt_sha256"]
            for fields in stored
        }
        prompts = _rebuilt_prompts(config)
        assert digests == {key: prompt_sha256(prompt) for key, prompt in prompts.items()}

    def _refused(self, config, records_path, key):
        """Resume under ``config``: the run stops before it appends anything."""
        before = records_path.read_bytes()
        with pytest.raises(ConfigError) as raised:
            run_eval(EvalConfig.from_json_dict(config))
        message = str(raised.value)
        stored = {(r.dataset, r.paradigm.value, r.instance_id): r for r in load_records(records_path)}
        assigned = prompt_sha256(_rebuilt_prompts(config)[key])
        for part in (str(records_path), repr(key), stored[key].prompt_sha256, assigned):
            assert part in message
        assert f"Delete {config['output_dir']} to start over" in message
        assert records_path.read_bytes() == before
        return message

    def test_a_resume_under_a_changed_k_is_refused(self, tmp_path, capsys):
        config, _ = _write_eval_setup(tmp_path, count=10)
        config.update(paradigms=["few-shot"], demos={"cf": {**config["demos"]["cf"], "k": 1}})
        run_eval(EvalConfig.from_json_dict(config), max_records=4)
        records_path = tmp_path / "out" / "records.jsonl"
        first = json.loads(records_path.read_text(encoding="utf-8").splitlines()[0])
        config["demos"]["cf"]["k"] = 3
        message = self._refused(config, records_path, ("cf", "few-shot", first["instance_id"]))
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert len(load_records(records_path)) == 4

    def test_a_resume_with_a_dropped_paradigm_or_item_is_refused(self, tmp_path, capsys):
        config, instances = _write_eval_setup(tmp_path, count=10)
        config["paradigms"] = ["zero-shot", "few-shot"]
        run_eval(EvalConfig.from_json_dict(config))
        out_dir = tmp_path / "out"
        stored = {name: (out_dir / name).read_bytes() for name in ("records.jsonl", "report.json")}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**config, "paradigms": ["zero-shot"]}))
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path)]) == 1
        message = capsys.readouterr().err
        assert f"{out_dir / 'records.jsonl'}: record ('cf', 'few-shot', " in message
        assert f"Delete {config['output_dir']} to start over" in message
        save_instances(tmp_path / "cf.jsonl", instances[1:])
        with pytest.raises(ConfigError, match=re.escape(f"'{instances[0].id}') is not one")):
            run_eval(EvalConfig.from_json_dict(config))
        assert stored == {name: (out_dir / name).read_bytes() for name in stored}

    def test_a_resume_under_the_same_backend_leaves_run_json_as_it_is(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path, count=4)
        run_eval(EvalConfig.from_json_dict(config), max_records=3)
        run_path = tmp_path / "out" / "run.json"
        before = run_path.stat()
        run_eval(EvalConfig.from_json_dict(config))
        after = run_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert json.loads(run_path.read_text(encoding="utf-8")) == {"backend": {"kind": "oracle"}}

    def test_a_resume_under_another_backend_is_refused(self, tmp_path):
        config, _ = _write_eval_setup(tmp_path, count=10)
        run_eval(EvalConfig.from_json_dict(config))
        out_dir = tmp_path / "out"
        names = ("records.jsonl", "run.json", "report.json")
        stored = {name: (out_dir / name).read_bytes() for name in names}
        assert json.loads(stored["run.json"]) == {"backend": {"kind": "oracle"}}
        replay = {"kind": "replay", "fixture_path": "none.jsonl"}
        with pytest.raises(ConfigError) as raised:
            run_eval(EvalConfig.from_json_dict({**config, "backend": replay}))
        message = str(raised.value)
        for part in (str(out_dir / "run.json"), '"oracle"', os.path.abspath("none.jsonl")):
            assert part in message
        assert f"Delete {config['output_dir']} to start over" in message
        assert stored == {name: (out_dir / name).read_bytes() for name in names}
        # Records without run.json were made by an unknown backend: refused the same way.
        (out_dir / "run.json").unlink()
        with pytest.raises(ConfigError) as raised:
            run_eval(EvalConfig.from_json_dict(config))
        message = str(raised.value)
        assert f"{out_dir / 'run.json'}: the stored records were made by an unknown backend" in message
        assert f"Delete {config['output_dir']} to start over" in message
        assert not (out_dir / "run.json").exists()
        del stored["run.json"]
        assert stored == {name: (out_dir / name).read_bytes() for name in stored}

    def test_a_changed_question_under_the_same_id_is_refused(self, tmp_path):
        config, instances = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config))
        import dataclasses

        changed = instances[5]
        instances[5] = dataclasses.replace(changed, question=changed.question + " Again?")
        save_instances(tmp_path / "cf.jsonl", instances)
        self._refused(config, tmp_path / "out" / "records.jsonl", ("cf", "meta-reasoning", changed.id))

    def test_a_record_line_without_its_prompt_digest_is_refused(self, tmp_path, capsys):
        config, _ = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config))
        records_path = tmp_path / "out" / "records.jsonl"
        _to_parent_format(records_path, _rebuilt_prompts(config))
        before = records_path.read_bytes()
        problem = f"{records_path}: line 1: prompt is not a known field"
        with pytest.raises(RecordLineError, match=re.escape(problem)):
            run_eval(EvalConfig.from_json_dict(config))
        capsys.readouterr()
        assert main(["report", "--records", str(records_path)]) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert records_path.read_bytes() == before


class TestReportJson:
    """report.json is the stdlib encoder's rendering of its document, though
    its records block is written without that encoder."""

    AWKWARD = (
        'say "hi"', "back\\slash", "two\nlines", "tab\there", "bell\x07", "café", "中文", "🙂",
    )

    @staticmethod
    def _reference(report):
        """The document, built as report_json built it when json.dumps
        wrote all of it."""
        cells = [
            {
                "dataset": dataset,
                "task": report.dataset_tasks[dataset].value,
                "paradigm": paradigm.value,
                "correct": stats.correct,
                "total": stats.total,
                "accuracy_pct": format_pct(stats.accuracy),
            }
            for (dataset, paradigm), stats in sorted(
                report.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
            )
        ]
        summary = {}
        for paradigm in report.paradigms():
            task_cells = report.task_cells(paradigm)
            row = {
                {"TSO3": "TSO(3)", "TSO5": "TSO(5)", "TSO7": "TSO(7)"}.get(task.value, task.value):
                format_pct(task_cells[task].accuracy)
                for task in Task
                if task in task_cells
            }
            row["TSO(Avg.)"] = format_pct(report.tso_average(paradigm))
            row["Avg."] = format_pct(report.overall_average(paradigm))
            summary[paradigm.value] = row
        records = [
            {
                "instance_id": record.instance_id,
                "dataset": record.dataset,
                "paradigm": record.paradigm.value,
                "extracted": record.extracted,
                "gold": record.gold,
                "correct": record.correct,
            }
            for record in report.records
        ]
        document = {"cells": cells, "summary": summary, "records": records, "config": report.config}
        return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    def _awkward_records(self):
        paradigms = list(Paradigm)
        return [
            _record(
                f"set {text}",
                [Task.CF, Task.WOL, Task.TSO3][index % 3],
                paradigms[index % len(paradigms)],
                f"id {text}",
                text,
                text if index % 2 else f"{text}!",
            )
            for index, text in enumerate(self.AWKWARD)
        ]

    @pytest.mark.parametrize(
        "config",
        [
            None,
            {"seed": 7, "records": [], "nested": {"records": [{"records": "中 \"x\""}]}},
        ],
        ids=["no-config", "config-with-records-keys"],
    )
    def test_awkward_strings_match_the_stdlib_encoder(self, config):
        report = score(self._awkward_records(), config=config)
        assert report_json(report) == self._reference(report)
        assert json.loads(report_json(report))["config"] == config

    def test_one_record_and_no_records(self):
        [one] = self._awkward_records()[:1]
        report = score([one], config={"k": 1})
        assert report_json(report) == self._reference(report)
        empty = EvalReport(records=[], cells={}, dataset_tasks={}, config=None)
        assert report_json(empty) == self._reference(empty)
        assert '\n  "records": [],\n' in report_json(empty)

    def test_run_eval_writes_report_json_of_its_records(self, tmp_path):
        """Awkward dataset names, ids and gold answers, and empty extractions, as run_eval
        writes them."""
        import dataclasses

        texts = ('say "hi"', "back\\slash", "café 中文 🙂", "sep\u2028par\u2029", "two\nlines")
        instances = [
            dataclasses.replace(inst, id=f"id {text}", gold=text)
            for inst, text in zip(generate(GenConfig(task=Task.CF, count=len(texts), seed=3)), texts)
        ]
        dataset_path = tmp_path / "cf.jsonl"
        save_instances(dataset_path, instances)
        paradigms = [Paradigm.ZERO_SHOT, Paradigm.ZERO_SHOT_COT]
        completions = {
            assemble_prompt(paradigm, [], inst): "So the answer is yes." if index % 2 else "中\u2028?"
            for index, inst in enumerate(instances)
            for paradigm in paradigms
        }
        fixture_path = tmp_path / "fixtures.jsonl"
        save_fixtures(fixture_path, completions)
        config = {
            "datasets": [{"name": 'set "\\" 中\u2028', "path": str(dataset_path)}],
            "paradigms": [paradigm.value for paradigm in paradigms],
            "backend": {"kind": "replay", "fixture_path": str(fixture_path)},
            "output_dir": str(tmp_path / "out"),
        }
        run_eval(EvalConfig.from_json_dict(config))
        written = (tmp_path / "out" / "report.json").read_bytes()
        records = load_records(tmp_path / "out" / "records.jsonl")
        assert written == report_json(score(records, config=config)).encode("utf-8")
        items = json.loads(written)["records"]
        assert {item["gold"] for item in items} == set(texts)
        assert {item["extracted"] for item in items} == {"", "yes"}

    def test_an_interrupted_write_leaves_the_previous_report(self, tmp_path, monkeypatch):
        from metareason.harness import reporting

        class Interrupted(Exception):
            pass

        config, _ = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config), max_records=3)
        report_path = tmp_path / "out" / "report.json"
        before = report_path.read_bytes()
        real_pieces = reporting.report_pieces

        def interrupted_pieces(report):
            pieces = real_pieces(report)
            yield next(pieces)
            yield next(pieces)
            raise Interrupted

        monkeypatch.setattr(reporting, "report_pieces", interrupted_pieces)
        with pytest.raises(Interrupted):
            run_eval(EvalConfig.from_json_dict(config))
        assert report_path.read_bytes() == before
        assert not (tmp_path / "out" / "report.json.tmp").exists()

    def test_a_killed_run_resumes_to_the_reports_of_an_uninterrupted_one(self, tmp_path):
        """Child interpreters are SIGKILLed at seeded moments, in a backend call or in the
        middle of report.json, and each run is then resumed in this process."""
        import shutil
        import signal
        import subprocess
        import sys
        from pathlib import Path

        config, _ = _write_eval_setup(tmp_path)
        config["paradigms"] = [paradigm.value for paradigm in Paradigm]  # 60 records
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        names = ("report.json", "report.txt", "run.json")
        run_eval(EvalConfig.from_json_dict(config))  # at the same path: the report names it
        reference = {name: (out / name).read_bytes() for name in names}
        shutil.move(out, tmp_path / "reference")
        script = (
            "import json, os, signal, sys\n"
            "from metareason.harness import reporting, runner\n"
            "with open(sys.argv[1], encoding='utf-8') as handle:\n"
            "    config = runner.EvalConfig.from_json_dict(json.load(handle))\n"
            "where, count, calls = sys.argv[2], int(sys.argv[3]), []\n"
            "def tick():  # the count-th tick kills this process\n"
            "    calls.append(None)\n"
            "    if len(calls) == count:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "real_complete, real_pieces = runner.complete, reporting.report_pieces\n"
            "def complete(*args):\n"
            "    tick()\n"
            "    return real_complete(*args)\n"
            "def report_pieces(report):\n"
            "    for piece in real_pieces(report):\n"
            "        yield piece\n"
            "        tick()\n"
            "if where == 'complete':\n"
            "    runner.complete = complete\n"
            "else:\n"
            "    reporting.report_pieces = report_pieces\n"
            "runner.run_eval(config)\n"
        )
        src = str(Path(metareason.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        rng = random.Random(21)
        kills = [("complete", n) for n in rng.sample(range(1, 61), 2)]
        kills += [("report_pieces", k) for k in rng.sample(range(1, 62), 2)]  # 60 items + 2
        for where, count in kills:
            if out.exists():
                shutil.rmtree(out)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(config_path), where, str(count)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == -signal.SIGKILL, (where, count, proc.stderr)
            assert not (out / "report.json").exists()
            run_eval(EvalConfig.from_json_dict(config))
            assert {name: (out / name).read_bytes() for name in names} == reference, (where, count)
            assert not [name for name in os.listdir(out) if name.endswith(".tmp")], (where, count)

    def test_writing_a_paper_sized_report_holds_no_copy_of_it(self, tmp_path):
        """The paper mix under five paradigms, 14,975 records: writing its reports adds less
        than a quarter of report.json's size to the peak of traced memory."""
        import tracemalloc

        from metareason.cli import DEFAULT_COUNTS
        from metareason.harness.runner import _write_reports

        records = [
            _record(task.value, task, paradigm, f"{task.value}-{n:04d}", str(n % 7), str(n % 5))
            for task, count in DEFAULT_COUNTS.items()
            for n in range(count)
            for paradigm in Paradigm
        ]
        assert len(records) == 14_975
        report = score(records, config={"seed": 7})
        tracemalloc.start()
        try:
            _write_reports(report, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "report.json").stat().st_size
        assert size > 2_000_000
        assert peak < size / 4, (peak, size)


@pytest.fixture
def restore_logging():
    """Put the ``metareason`` logger back as it was before the test configured it."""
    logger = logging.getLogger("metareason")
    handlers, level = logger.handlers[:], logger.level
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)


class TestJsonLogs:
    """``--log-json`` prints the ``extra=`` fields of library warnings."""

    def test_http_retry_prints_its_fields(self, no_proxy_env, capsys, restore_logging):
        _configure_logging(False, True)
        with _CompletionServer(status=503) as server:
            backend = HttpBackend(endpoint_url=server.url, model_name="m", max_retries=1)
            request = _request(backend, "p")
            assert request.attempt() == 0.5
            with pytest.raises(TransportError, match="after 2 attempts"):
                request.attempt()
        [retry] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert (retry["level"], retry["name"]) == ("warning", "metareason.harness.backends")
        assert (retry["attempt"], retry["status"], retry["backoff_s"]) == (1, 503, 0.5)

    def test_torn_record_prints_its_fields(self, tmp_path, capsys, restore_logging):
        config, _ = _write_eval_setup(tmp_path)
        run_eval(EvalConfig.from_json_dict(config), max_records=3)
        records_path = tmp_path / "out" / "records.jsonl"
        complete_bytes = records_path.stat().st_size
        with open(records_path, "ab") as handle:
            handle.write(b'{"instance_id": ')
        _configure_logging(False, True)
        assert len(load_records(records_path)) == 3
        [torn] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert (torn["level"], torn["name"]) == ("warning", "metareason.harness.runner")
        assert (torn["path"], torn["records"], torn["torn_at_byte"]) == (
            str(records_path), 3, complete_bytes,
        )
