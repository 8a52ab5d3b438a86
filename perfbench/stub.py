"""Loopback completion server for the ``eval_http`` workload.

One asyncio thread. Every accepted socket gets TCP_NODELAY and every reply
goes out in a single write, so Nagle's algorithm and delayed ACKs cannot
add latency that belongs to the stub rather than to the client under test.
Each completion request is answered from the replay fixtures after a fixed
delay; prompts named in the 503 file get one HTTP 503 on their first
attempt. Counters (connections accepted, requests, 503s served, in-flight
requests seen at each arrival) are read and reset with ``GET /stats``.

    python3 perfbench/stub.py FIXTURES FAIL503_JSON DELAY_MS

prints ``PORT <n>`` once it listens on 127.0.0.1 and runs until SIGTERM.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import socket
import sys


class Stub:
    def __init__(self, fixtures: dict[str, str], fail_first: set[str], delay_s: float):
        self.fixtures = fixtures
        self.fail_first = fail_first
        self.delay_s = delay_s
        self.reset()

    def reset(self) -> dict:
        stats = dict(getattr(self, "stats", {}))
        self.stats = {"connections": 0, "requests": 0, "served_503": 0, "inflight_sum": 0, "unknown": 0}
        self.failed: set[str] = set()
        self.inflight = 0
        return stats

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        counted = False
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                request_line, *header_lines = head.decode("latin-1").split("\r\n")
                method, path, _ = request_line.split(" ", 2)
                headers = {}
                for line in header_lines:
                    if ":" in line:
                        key, value = line.split(":", 1)
                        headers[key.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                if path == "/stats":
                    status, payload = 200, json.dumps(self.reset()).encode("utf-8")
                else:
                    if not counted:
                        self.stats["connections"] += 1
                        counted = True
                    status, payload = await self.complete(body)
                reply = (
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Service Unavailable'}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                ).encode("latin-1") + payload
                writer.write(reply)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    return
        finally:
            writer.close()

    async def complete(self, body: bytes) -> tuple[int, bytes]:
        stats = self.stats
        stats["requests"] += 1
        self.inflight += 1
        stats["inflight_sum"] += self.inflight
        try:
            prompt = json.loads(body)["prompt"]
            digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            await asyncio.sleep(self.delay_s)
            if digest in self.fail_first and digest not in self.failed:
                self.failed.add(digest)
                stats["served_503"] += 1
                return 503, b'{"error": "injected"}'
            if digest not in self.fixtures:
                stats["unknown"] += 1
                return 404, b'{"error": "no fixture"}'
            return 200, json.dumps({"choices": [{"text": self.fixtures[digest]}]}).encode("utf-8")
        finally:
            self.inflight -= 1


async def main(fixture_path: str, fail_path: str, delay_ms: float) -> None:
    fixtures = {}
    with open(fixture_path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                fixtures[record["prompt_sha256"]] = record["completion"]
    with open(fail_path, encoding="utf-8") as handle:
        fail_first = set(json.load(handle))
    stub = Stub(fixtures, fail_first, delay_ms / 1000.0)
    server = await asyncio.start_server(stub.serve, "127.0.0.1", 0, backlog=64)
    stop = asyncio.get_running_loop().create_future()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set_result, None)
    print(f"PORT {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
