"""The ``serve-mixed`` workload: a ``repro serve`` daemon under mixed load.

Setup builds a ``small``/``prefix`` bundle with ``build_bundle`` and
starts ``repro serve --port 0`` as its own process, then waits until
``GET /stats`` answers; it is repeated ``SETUP_REPS`` times and the
median reported. The last daemon first links the whole seed-0 provider
batch in one ``POST /link`` (``f1`` is the match quality of its answer
against the generator's truth, the same on every seed), then takes a
closed loop from ``CLIENTS`` keep-alive connections in this process:
per client, three ``/link`` reads of ``RECORDS`` provider records for
every ``/delta`` write into that client's current stream, which is
replaced by a fresh stream every ``STREAM_DELTAS`` deltas so that the
per-request work stays level over the run. The first ``WARMUP_SECONDS``
of load fill the daemon's similarity cache and are checked but not
timed: a daemon pays that once per start, not per request. Client
sockets set ``TCP_NODELAY``: ``http.client`` sends a request's headers
and body in two writes, and Nagle would otherwise hold the body back
until the daemon's delayed ACK, a stall of the client's own making.

Every response is checked afterwards: ``/link`` answers against a cold
in-process ``LinkingJob`` on the same records, ``/delta`` answers
against the same deltas replayed in order through an in-process
``LinkSession`` over the same bundle.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import pipeline
from spans import Tracer, span

from repro.engine import JobConfig, LinkingJob
from repro.index.artifacts import (
    load_bundle,
    record_store_from_payload,
    record_store_to_payload,
)
from repro.linking import RecordStore
from repro.linking.evaluation import evaluate_matching
from repro.rdf.ntriples import parse_ntriples
from repro.serve import (
    LinkSession,
    build_bundle,
    link_response,
    make_blocking,
    response_identity,
)

PRESET = "small"
BLOCKING = "prefix"
#: every catalog item outside the training links (1,500 at ``small``)
BATCH_ITEMS = 1500
POOL_ITEMS = 600
LINK_PAYLOADS = 200
RECORDS = 10
LINKS_PER_DELTA = 3
STREAM_DELTAS = 8
CLIENTS = 2
SETUP_REPS = 7
WARMUP_SECONDS = 3.0
#: timed requests; p99 needs at least ten samples beyond it
MIN_REQUESTS = 1000
MAX_LOAD_SECONDS = 90.0


class Daemon:
    """``repro serve --port 0`` in its own process, reached over HTTP."""

    def __init__(self, root: Path, bundle_dir: Path, log_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--bundle", str(bundle_dir), "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("serve daemon did not announce its port")
            announce = json.loads(line)
            self.host, self.port = announce["host"], announce["port"]
            self.stats()  # up only once /stats answers
        except BaseException:
            self.stop()
            raise

    def connect(self) -> HTTPConnection:
        """A connection whose requests leave without waiting on Nagle."""
        connection = HTTPConnection(self.host, self.port, timeout=60)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        connection = self.connect()
        try:
            connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> Dict[str, object]:
        status, raw = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(2)  # SIGINT: the CLI shuts the daemon down
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Inputs:
    """Everything the seed decides: the batch, the request pool, the schedule."""

    def __init__(self, catalog, seed: int) -> None:
        self.catalog = catalog
        # the quality batch is the same on every seed, so f1 does not move with it
        self.batch_graph, self.batch_truth = pipeline.provider_inputs(
            catalog, BATCH_ITEMS, 0
        )
        pool_graph, _ = pipeline.provider_inputs(catalog, POOL_ITEMS, f"{seed}/pool")
        self.pool = list(RecordStore.from_graph(pool_graph, pipeline.FIELDS))
        rng = random.Random(f"serve-payloads-{seed}")
        self.link_payloads = [
            record_store_to_payload(RecordStore(rng.sample(self.pool, RECORDS)))
            for _ in range(LINK_PAYLOADS)
        ]
        self.seed = seed

    def client_schedule(self, client: int):
        """Endless ``(kind, key, payload)`` requests of one client."""
        rng = random.Random(f"serve-client-{self.seed}-{client}")
        order = list(self.pool)
        rng.shuffle(order)
        k = deltas = 0
        while True:
            if k % (LINKS_PER_DELTA + 1) == LINKS_PER_DELTA:
                start = deltas * RECORDS
                records = [order[(start + i) % len(order)] for i in range(RECORDS)]
                stream = f"c{client}-s{deltas // STREAM_DELTAS}"
                payload = dict(record_store_to_payload(RecordStore(records)), stream=stream)
                yield "delta", stream, payload
                deltas += 1
            else:
                index = rng.randrange(LINK_PAYLOADS)
                yield "link", index, self.link_payloads[index]
            k += 1


class Request(NamedTuple):
    """One load request as sent and as answered."""

    client: int
    kind: str  # "link" or "delta"
    key: object  # link payload index, or delta stream name
    payload: dict
    sent: float
    done: float
    status: Optional[int]
    body: bytes

    @property
    def ms(self) -> float:
        return (self.done - self.sent) * 1000


def cold_link(local: RecordStore, payload, tracer=None):
    """The one-shot path for one request's records: fresh blocking, cold
    comparator, serial job, against a store built from the catalog."""
    external = record_store_from_payload(payload)
    job = LinkingJob(
        make_blocking(BLOCKING),
        pipeline.comparator(),
        pipeline.matcher(),
        JobConfig(executor="serial"),
    )
    with span(tracer, "engine.run"):
        result = job.run(external, local)
    return result


def run_load(daemon: Daemon, inputs: Inputs, seconds: float):
    """The closed loop; returns every request's log entry, the timed ones
    (sent after the warm-up) and the timed wall time."""
    log: List[Request] = []
    lock = threading.Lock()
    started = time.perf_counter()
    timed_from = started + WARMUP_SECONDS
    deadline = timed_from + seconds
    hard_stop = started + MAX_LOAD_SECONDS

    def timed(requests):
        return [r for r in requests if r.sent >= timed_from]

    def client(c: int) -> None:
        schedule = inputs.client_schedule(c)
        connection = daemon.connect()
        try:
            for kind, key, payload in schedule:
                now = time.perf_counter()
                with lock:
                    enough = len(timed(log)) >= MIN_REQUESTS
                if (now >= deadline and enough) or now >= hard_stop:
                    return
                body = json.dumps(payload).encode("utf-8")
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", f"/{kind}", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, raw = response.status, response.read()
                except (OSError, HTTPException) as exc:
                    status, raw = None, repr(exc).encode()
                    connection.close()
                    connection = daemon.connect()
                done = time.perf_counter()
                with lock:
                    log.append(Request(c, kind, key, payload, sent, done, status, raw))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return log, timed(log), time.perf_counter() - timed_from


def repeat_share(log) -> float:
    """Share of request records already sent in an earlier request."""
    seen = set()
    repeats = total = 0
    for request in sorted(log, key=lambda r: r.sent):
        for record in request.payload["records"]:
            key = json.dumps(record, sort_keys=True)
            repeats += key in seen
            total += 1
            seen.add(key)
    return repeats / total


def run(root: Path, out_dir: Path, seed: int, seconds: float, tracer: Optional[Tracer]):
    """One ``serve-mixed`` run; returns ``(metrics, layers, checks, info)``."""
    with span(tracer, "datagen.generate"):
        catalog = pipeline.generate_catalog(PRESET)
    inputs = Inputs(catalog, seed)
    with span(tracer, "records.from_graph"):
        local = RecordStore.from_graph(catalog.local_graph, pipeline.FIELDS)
    store = RecordStore.from_graph(inputs.batch_graph, pipeline.FIELDS)
    batch_body = json.dumps(record_store_to_payload(store)).encode("utf-8")
    reference = cold_link(local, record_store_to_payload(store), tracer)
    batch_identity = response_identity(link_response(reference))
    attempted = failed = 0
    layers: Dict[str, float] = {}
    if tracer is not None:
        layers.update(pipeline.ingest_layers(tracer, catalog))
        with span(tracer, "reference"):
            oracle = pipeline.reference_links(make_blocking(BLOCKING), store, local, tracer)
        layers.update(pipeline.oracle_layers(tracer, oracle, store, local, reference.stats))
        # the engine's batch answer must equal the pairwise oracle's
        attempted += 1
        if pipeline.links_digest(oracle["links"]) != pipeline.links_digest(
            reference.match_pairs
        ):
            failed += 1

    work = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
    setups, builds = [], []
    daemon = None
    try:
        for rep in range(SETUP_REPS):
            # in a traced run the last setup is traced, the others are not
            rep_tracer = tracer if rep == SETUP_REPS - 1 else None
            if daemon is not None:
                daemon.stop()
            bundle_dir = work / f"bundle-{rep}"
            started = time.perf_counter()
            with span(rep_tracer, "setup"):
                with span(rep_tracer, "index.bundle_build"):
                    build_bundle(bundle_dir, preset=PRESET, blocking=BLOCKING)
                built = time.perf_counter()
                with span(rep_tracer, "serve.daemon_start"):
                    daemon = Daemon(root, bundle_dir, out_dir / "serve-daemon.log")
            builds.append(built - started)
            setups.append(time.perf_counter() - started)

        status, raw = daemon.request("POST", "/link", batch_body)
        attempted += 1
        answer = json.loads(raw) if status == 200 else {}
        if response_identity(answer) != batch_identity:
            failed += 1
        daemon_links = [
            (t.subject, t.object)
            for t in parse_ntriples(answer.get("sameas_ntriples", ""))
        ]

        log, timed, load_seconds = run_load(daemon, inputs, seconds)
        stats = daemon.stats()
        peak_rss = daemon.peak_rss_mb()
        daemon.stop()
        daemon = None

        # -- checks: cold references for /link, sequential replay for /delta
        with span(tracer, "index.bundle_open"):
            session = LinkSession(load_bundle(work / f"bundle-{SETUP_REPS - 1}"))
        cold: Dict[int, dict] = {}
        handler_ms, encode_ms, delta_ms = [], [], []
        ordered = sorted(log, key=lambda r: r.sent)
        for request in ordered:
            if request.kind != "link":
                continue
            attempted += 1
            if request.key not in cold:
                cold[request.key] = response_identity(
                    link_response(cold_link(local, request.payload))
                )
            if request.status != 200 or response_identity(json.loads(request.body)) != cold[request.key]:
                failed += 1
            if tracer is not None:
                external = record_store_from_payload(request.payload)
                t0 = time.perf_counter()
                result = session.link(external)
                t1 = time.perf_counter()
                json.dumps(link_response(result), sort_keys=True)
                t2 = time.perf_counter()
                handler_ms.append((t1 - t0) * 1000)
                encode_ms.append((t2 - t1) * 1000)
        for request in ordered:
            if request.kind != "delta":
                continue
            attempted += 1
            records = list(record_store_from_payload(request.payload))
            t0 = time.perf_counter()
            job, delta = session.delta(request.key, records)
            delta_ms.append((time.perf_counter() - t0) * 1000)
            expected = link_response(job.result())
            expected["stream"] = request.key
            expected["delta"] = {
                "index": delta.index,
                "records": delta.records,
                "compared": delta.compared,
                "matches": delta.matches,
            }
            if request.status != 200 or response_identity(
                json.loads(request.body)
            ) != response_identity(expected):
                failed += 1
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)

    # a failed request misses every latency limit
    latencies = [r.ms if r.status == 200 else float("inf") for r in timed]
    link_latencies = [r.ms for r in timed if r.kind == "link" and r.status == 200]
    setup_s = statistics.median(setups)
    # a provider batch here is one /link request of RECORDS records
    link_s = statistics.median(link_latencies) / 1000
    metrics = {
        "setup_s": setup_s,
        "link_s": link_s,
        "total_s": setup_s + link_s,
        "f1": evaluate_matching(daemon_links, inputs.batch_truth).f1,
        "serve_req_per_s": len(timed) / load_seconds,
        "serve_p50_ms": statistics.median(latencies),
        "serve_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98],
        "peak_rss_mb": peak_rss,
    }
    queue = stats["queue"]
    cache = stats["sessions"]["default"]["cache"]
    layers.update({
        "index.bundle_build_s": statistics.median(builds),
        "serve.queue_rejected": queue["rejected"],
        "serve.queue_failed": queue["failed"],
        "serve.cache_hit_rate": cache["hit_rate"],
    })
    if tracer is not None:
        layers.update(
            {
                "index.bundle_open_s": tracer.seconds("index.bundle_open"),
                "serve.handler_ms": statistics.median(handler_ms),
                "serve.delta_ms": statistics.median(delta_ms),
                "serve.encode_ms": statistics.median(encode_ms),
                "serve.transport_ms": statistics.median(link_latencies)
                - statistics.median(handler_ms),
                # the traced setup (the last one) against the untraced ones
                "trace.overhead_frac": setups[-1] / statistics.median(setups[:-1]) - 1.0,
            }
        )
    info = {
        "requests": len(log),
        "timed_requests": len(timed),
        "links": sum(r.kind == "link" for r in log),
        "deltas": sum(r.kind == "delta" for r in log),
        "load_seconds": load_seconds,
        "repeat_share": repeat_share(log),
        "batch_matches": len(reference.matches),
        "samples": {"setup_s": setups},
    }
    return metrics, layers, {"attempted": attempted, "failed": failed}, info
