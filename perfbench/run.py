"""The repository benchmark: closed-loop workloads over metareason.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see README.md for why each exists and which layer it loads):

* ``pipeline``    generate -> resolve -> render/parse -> eval -> surface
                  answer -> demo build, over the paper mix (2,995 items).
* ``eval_oracle`` ``run_eval`` with the oracle backend, paper mix x 5
                  paradigms (14,975 records), then resume.
* ``eval_replay`` the same records as ``eval_oracle`` from replay
                  fixtures, then resume.
* ``eval_http``   ~150 items x 5 paradigms over HTTP to a loopback stub
                  (10 ms delay, parallelism 2), then resume.

Set-up (inputs and fixtures, built in a fresh interpreter, then the stub's
start) runs SETUP_REPEATS times and reports the median as ``setup_s``.
Timed iterations repeat for ``--seconds``, each followed by reruns with
nothing left to do (for ``pipeline``, re-solves of the datasets it saved)
until RERUN_WALL_S have passed, so that short reruns get more samples.
Every set-up, iteration, rerun and traced run is a fresh interpreter
(``worker.py``) with a fresh output directory; there is no warm-up
iteration. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced iterations and prints the per-layer
metrics. Outputs are checked; the last stdout line is the JSON result.
Exit 0 when every check passes, 1 when one fails, 2 when the checkout has
no package to run.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
RERUN_WALL_S = 1.0
STUB_DELAY_MS = 10.0
HTTP_PARALLELISM = 2
WORKER_TIMEOUT_S = 150


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every interpreter
    return env


def run_worker(job: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"worker {job['mode']} did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise CheckFailed(f"worker {job['mode']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def tree_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(Path(path).name.encode("utf-8") + b"\0" + sha256_file(path).encode("ascii"))
    return digest.hexdigest()


class Stub:
    """The loopback HTTP stub in a child process."""

    def __init__(self, fixture_path: str, fail_path: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), fixture_path, fail_path, str(STUB_DELAY_MS)],
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise CheckFailed(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])

    def stats(self) -> dict:
        """Counters since the last call; reading them resets them."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Set-up, one timed iteration, and its checks, for one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        import inputs

        self.name, self.seed, self.work = name, seed, work
        self.stub: Stub | None = None
        self.iterations = 0
        if name == "pipeline":
            counts, records_per_item = inputs.PAPER_MIX, 1
        else:
            counts = inputs.mix_counts(inputs.HTTP_SCALE if name == "eval_http" else 1)
            records_per_item = len(inputs.PARADIGMS)
        self.items = sum(counts.values()) * records_per_item
        self.family_items = {task.value: n * records_per_item for task, n in counts.items()}

    # -- set-up -----------------------------------------------------------
    def setup(self, where: Path) -> float:
        """Build the inputs in a fresh interpreter and start the stub; returns
        the wall time of both."""
        started = time.perf_counter()
        built = run_worker({"mode": "setup", "workload": self.name, "seed": self.seed,
                            "root": str(where)})
        self.facts, config = built["facts"], built["config"]
        if self.name == "pipeline":
            self.datasets = []
            return time.perf_counter() - started
        self.datasets = [d["path"] for d in config["datasets"]]
        if self.name == "eval_oracle":
            config["backend"] = {"kind": "oracle"}
        else:
            if self.name == "eval_replay":
                config["backend"] = {"kind": "replay", "fixture_path": self.facts["fixture_path"]}
            else:
                self.stub = Stub(self.facts["fixture_path"], self.facts["fail503_path"])
                config["backend"] = {
                    "kind": "http",
                    "endpoint_url": f"http://127.0.0.1:{self.stub.port}/v1/completions",
                    "model_name": "stub",
                    "parallelism": HTTP_PARALLELISM,
                    "timeout": 30,
                }
        self.config = config
        return time.perf_counter() - started

    def timed_setup(self) -> list[float]:
        times = []
        for index in range(SETUP_REPEATS):
            where = self.work / f"setup-{index}"
            times.append(self.setup(where))
            if index + 1 < SETUP_REPEATS:
                self.close()
                shutil.rmtree(where)
        return times

    # -- one iteration ----------------------------------------------------
    def fresh_dir(self) -> Path:
        self.iterations += 1
        return self.work / f"run-{self.iterations}"

    def job(self, out: Path, spans: Path | None = None) -> dict:
        if self.name == "pipeline":
            job = {"mode": "pipeline", "seed": self.seed, "out_dir": str(out),
                   "reworded_path": self.facts["reworded_path"]}
            if spans is not None:
                job["loose_texts"] = self.facts["loose_texts"]
        else:
            job = {"mode": "eval", "records": self.items,
                   "config": dict(self.config, output_dir=str(out))}
        if spans is not None:
            job["spans"] = str(spans)
        return job

    def iterate(self, spans: Path | None = None) -> tuple[dict, Path, dict]:
        out = self.fresh_dir()
        if self.stub is not None:
            self.stub.stats()
        result = run_worker(self.job(out, spans))
        stub_stats = self.stub.stats() if self.stub is not None else {}
        self.check(result, out, stub_stats)
        return result, out, stub_stats

    def check(self, result: dict, out: Path, stub_stats: dict) -> None:
        if result["failed"] or result.get("mismatched"):
            raise CheckFailed(f"{self.name}: {result['failed']} failed, "
                              f"{result.get('mismatched', 0)} wrong: {result.get('errors')}")
        if self.name == "pipeline":
            return
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        correct = sum(cell["correct"] for cell in report["cells"])
        total = sum(cell["total"] for cell in report["cells"])
        if total != self.items:
            raise CheckFailed(f"{self.name}: report has {total} records, expected {self.items}")
        if self.name == "eval_oracle":
            rows = [row["Avg."] for row in report["summary"].values()]
            if correct != total or any(value != "100.0" for value in rows):
                raise CheckFailed(f"eval_oracle: accuracy below 100.0 ({correct}/{total})")
        elif correct != self.facts["expected_correct"]:
            raise CheckFailed(f"{self.name}: {correct} correct, fixtures were built with "
                              f"{self.facts['expected_correct']}")
        if self.stub is not None:
            retries = stub_stats["requests"] - self.items
            if retries != stub_stats["served_503"] or stub_stats["served_503"] != self.facts["injected_503"]:
                raise CheckFailed(f"eval_http: {stub_stats} for {self.items} records, "
                                  f"{self.facts['injected_503']} 503s scheduled")
            if stub_stats["unknown"]:
                raise CheckFailed(f"eval_http: {stub_stats['unknown']} prompts had no fixture")

    def resume(self, out: Path) -> float:
        """A rerun with nothing left to do; report.json must not change. The
        pipeline has no rerun of its own: it re-solves the datasets it saved."""
        if self.name == "pipeline":
            result = run_worker({"mode": "solve", "out_dir": str(out)})
            if result["items"] != self.items or result["wrong"]:
                raise CheckFailed(f"pipeline: re-solved {result['items']} of {self.items} items, "
                                  f"{result['wrong']} wrong")
            return result["seconds"]
        fresh = (out / "report.json").read_bytes()
        result = run_worker(self.job(out))
        if result["failed"]:
            raise CheckFailed(f"{self.name}: resume failed: {result['errors']}")
        if (out / "report.json").read_bytes() != fresh:
            raise CheckFailed(f"{self.name}: resumed report.json differs from the fresh run's")
        return result["seconds"]

    def digests(self, out: Path) -> dict:
        if self.name == "pipeline":
            return {"datasets": tree_digest(out.glob("*.jsonl"))}
        return {"datasets": tree_digest(self.datasets), "report.json": sha256_file(out / "report.json")}

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None


def end_to_end(w: Workload, seconds: float) -> tuple[dict, int, int, dict]:
    setup_times = w.timed_setup()
    rates, rss, resume_times, attempted, failed = [], [], [], 0, 0
    started = time.perf_counter()
    out = None
    while out is None or time.perf_counter() - started < seconds:
        if out is not None:
            shutil.rmtree(out)
        result, out, _ = w.iterate()
        attempted += result["items"]
        failed += result["failed"]
        rates.append(result["items"] / result["seconds"])
        rss.append(result["rss_kb"] / 1024.0)
        reruns_started = time.perf_counter()
        resume_times.append(w.resume(out))
        while time.perf_counter() - reruns_started < RERUN_WALL_S:
            resume_times.append(w.resume(out))
    metrics = {
        "items_per_s": (statistics.median(rates), "1/s"),
        "resume_s": (statistics.median(resume_times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    info = {"items_per_iteration": w.items, "rates": [round(r, 1) for r in rates],
            "resume": [round(t, 4) for t in resume_times], "setup": [round(t, 4) for t in setup_times],
            "failed_frac": failed / attempted, "digests": w.digests(out)}
    return metrics, attempted, failed, info


def per_layer(w: Workload, seconds: float) -> tuple[dict, int, int, dict]:
    import tracing

    w.setup(w.work / "setup")
    untraced, traced = [], []
    attempted = 0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        result, out, _ = w.iterate()
        untraced.append(result["seconds"])
        attempted += result["items"]
        shutil.rmtree(out)
        spans = w.work / f"spans-{len(traced)}.jsonl"
        result, out, stub_stats = w.iterate(spans)
        attempted += result["items"]
        records = out / "records.jsonl"
        record_bytes = records.stat().st_size / w.items if records.exists() else 0.0
        shutil.rmtree(out)
        traced.append((result, stub_stats, spans, record_bytes))
    untraced_s = statistics.median(untraced)
    runs = []
    for result, stub_stats, spans, record_bytes in traced:
        phases = tracing.read_spans(str(spans))
        m = tracing.layer_metrics(
            phases["fresh"], phases.get("resume", []), w.items, w.family_items,
            len(w.facts.get("loose_texts", ())), untraced_s, result["seconds"],
        )
        m.update(http_metrics(m, stub_stats, w.items))
        m["harness.runner.record_bytes_per_record"] = record_bytes
        runs.append(m)
    metrics = {name: (statistics.median(run[name] for run in runs), None) for name in runs[0]}
    info = {"traced_iterations": len(traced), "untraced_s": [round(t, 4) for t in untraced],
            "traced_s": [round(r[0]["seconds"], 4) for r in traced]}
    return metrics, attempted, 0, info


def http_metrics(m: dict, stub_stats: dict, records: int) -> dict:
    if not stub_stats:
        return {
            "harness.backends.http.overhead_ms_p50": 0.0,
            "harness.backends.http.connections_per_call": 0.0,
            "harness.backends.http.retries": 0,
            "harness.backends.http.inflight_mean": 0.0,
        }
    requests_made = stub_stats["requests"]
    return {
        "harness.backends.http.overhead_ms_p50":
            m["harness.backends.complete.p50_us"] / 1000.0 - STUB_DELAY_MS,
        "harness.backends.http.connections_per_call": stub_stats["connections"] / requests_made,
        "harness.backends.http.retries": requests_made - records,
        "harness.backends.http.inflight_mean": stub_stats["inflight_sum"] / requests_made,
    }


def machine_facts() -> dict:
    import requests

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "requests": requests.__version__,
        "output_fs": "unknown",
    }
    best = ""
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype, *_ = line.split()
                if str(OUT).startswith(mount) and len(mount) > len(best):
                    best, facts["output_fs"] = mount, fstype
    except OSError:
        pass
    return facts


WORKLOADS = ("pipeline", "eval_oracle", "eval_replay", "eval_http")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "metareason" / "__init__.py").is_file():
        print(f"error: {SRC / 'metareason'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import metareason
    import tracing

    if Path(metareason.__file__).resolve().parent != (SRC / "metareason").resolve():
        print(f"error: imported metareason from {metareason.__file__}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    w = Workload(args.workload, args.seed, work)
    correct = True
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, info = measure(w, args.seconds)
    except CheckFailed as exc:
        print(f"# check failed: {exc}")
        attempted = failed = getattr(w, "items", 1)
        correct, metrics, info = False, {}, {}
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it

    reported = {name: {"value": value, "unit": unit or tracing.unit_of(name)}
                for name, (value, unit) in metrics.items()}
    print(f"# machine: {json.dumps(machine_facts())}")
    print(f"# {args.workload} seed={args.seed}: {json.dumps(info)}")
    for name, metric in reported.items():
        print(f"{args.workload}.{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
