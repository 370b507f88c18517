"""serve-mix: closed-loop tenants against the shipped kernel server.

The server (``python -m repro.serve``, or the traced entry point) runs as a
subprocess on its default engine.  Two client threads, one keep-alive HTTP
connection each, cycle through the ten paper kernels at their default
scale, meeting at a barrier before every round.  Every
``COALESCE_EVERY``-th round both send the same kernel on the same inputs,
so the server can coalesce them; other rounds draw inputs from a
per-request seed.  Every response's buffers are checked against the
kernel's numpy reference for its seed.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .common import (
    KERNELS,
    ROOT,
    SETUPS,
    SRC,
    WORK,
    BenchError,
    NormClock,
    kernel_names,
    median,
    normalise,
    pin,
    proc_peak_rss_mb,
    seeded_bench,
    tail_percentile,
    work_cpus,
)
from .tracing import Tracer

CLIENTS = 2
#: Divides the ten-kernel cycle, so every cycle shares the same kernels
#: (SS and NN) and costs the same.
COALESCE_EVERY = 5
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)


def request_seed(run_seed: int, client: int, rnd: int) -> int:
    """Input seed of one request; ``client=-1`` for a coalesced round."""
    return (run_seed * 1_000_003 + (client + 2) * 100_019 + rnd) % (2 ** 31)


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {"dtype": str(arr.dtype), "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=np.dtype(obj["dtype"])).reshape(obj["shape"])


def request_body(bench, tenant: str) -> bytes:
    args = {name: encode_array(v) if isinstance(v, np.ndarray) else v
            for name, v in bench.make_args().items()}
    dim = (lambda d: list(d) if isinstance(d, tuple) else d)
    body = {"tenant": tenant, "kernel": bench.source, "grid": dim(bench.grid),
            "block": dim(bench.block_size), "args": args}
    const = bench.const_arrays()
    if const:
        body["const_arrays"] = {k: encode_array(np.asarray(v)) for k, v in const.items()}
    return json.dumps(body).encode()


class ServedResult:
    """The response buffers behind the ``buffer(name)`` accessor the kernels'
    ``check`` and ``output_of`` read."""

    def __init__(self, response: dict) -> None:
        self._buffers = {k: decode_array(v) for k, v in response["buffers"].items()}

    def buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]


def check_response(bench, status: int, raw: bytes):
    """``(ok, reason, response)`` for one HTTP response."""
    if status != 200:
        return False, f"HTTP {status}: {raw[:200]!r}", None
    response = json.loads(raw)
    if not response.get("ok"):
        return False, f"not ok: {response.get('error')}", response
    try:
        ok = bench.check(ServedResult(response))
    except (KeyError, ValueError) as exc:
        return False, f"unreadable buffers: {exc}", response
    return ok, None if ok else "output differs from the numpy reference", response


@dataclass
class Record:
    client: int
    rnd: int
    kernel: str
    seed: int
    latency_s: float
    ok: bool
    reason: str | None
    coalesced: bool
    insts: float
    txns: int
    replays: int
    modeled_ms: float


class Server:
    """One server subprocess, its log in the work directory."""

    def __init__(self, index: int, cpu: int, spans_path=None) -> None:
        WORK.mkdir(exist_ok=True)
        self.log_path = WORK / f"server-{index}.log"
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.serve"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                   str(spans_path)]
        cmd += ["--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "w")
        self.started = time.monotonic()
        # No other thread exists while servers start, so preexec_fn is safe.
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.STDOUT,
                                     env=env, cwd=ROOT, preexec_fn=lambda: pin(cpu))
        self.port = None

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/healthz`` answers."""
        deadline = self.started + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early: {self.log_path.read_text()[-400:]}")
            if self.port is None:
                for line in self.log_path.read_text().splitlines():
                    if "listening on http://" in line:
                        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        conn.close()
                        return time.monotonic() - self.started
                    conn.close()
                except OSError:
                    pass
            time.sleep(0.01)
        raise BenchError("server did not become ready")

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/statz")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -9
        finally:
            self._log.close()


class Rounds:
    """Lockstep rounds: the clients meet before every request.

    Meeting every round keeps the two tenants' requests in step, so an
    unshared request always runs beside its twin of the same kernel and a
    shared one alone: each kernel's latencies sit in one cost mode.  The
    stop decision is taken once per meeting, by the barrier's action, and
    acted on only at cycle boundaries, so every cycle is complete.  The
    action also runs the host-speed probe, while both clients wait and the
    server is idle; round ``r``'s requests lie between probes ``r`` and
    ``r + 1``.
    """

    def __init__(self, deadline: float, clock: NormClock) -> None:
        self.deadline = deadline
        self.past_deadline = False
        self.clock = clock
        self.probes: list = []
        self.barrier = threading.Barrier(CLIENTS, action=self._decide)

    def _decide(self) -> None:
        self.probes.append(self.clock.probe_s())
        self.past_deadline = time.monotonic() >= self.deadline

    def normalise(self, rnd: int, raw_s: float) -> float:
        after = self.probes[min(rnd + 1, len(self.probes) - 1)]
        return normalise(raw_s, self.probes[rnd], after)

    def meet(self, rnd: int) -> bool:
        """Wait for the other client; False when the run is over."""
        try:
            self.barrier.wait(timeout=REQUEST_TIMEOUT_S)
        except threading.BrokenBarrierError:
            return False
        return not (rnd % len(KERNELS) == 0 and rnd >= len(KERNELS) and self.past_deadline)


def is_shared(rnd: int) -> bool:
    return rnd % COALESCE_EVERY == COALESCE_EVERY - 1


def _client(cid: int, port: int, run_seed: int, rounds: Rounds,
            records: list, errors: list, tracer) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    tenant = f"tenant-{cid}"
    rnd = 0
    try:
        while True:
            kernel = KERNELS[rnd % len(KERNELS)]
            shared = is_shared(rnd)
            seed = request_seed(run_seed, -1 if shared else cid, rnd)
            bench = seeded_bench(kernel, seed)
            body = request_body(bench, tenant)
            if not rounds.meet(rnd):
                break
            start = time.monotonic()
            conn.request("POST", "/v1/launch", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            raw = resp.read()
            latency = time.monotonic() - start
            ok, reason, response = tracer.span(
                "kernels.check", check_response, bench, resp.status, raw)
            stats = (response or {}).get("stats") or {}
            records.append(Record(
                client=cid, rnd=rnd, kernel=kernel, seed=seed,
                latency_s=latency, ok=ok, reason=reason,
                coalesced=bool((response or {}).get("coalesced")),
                insts=_total_insts(stats), txns=int(stats.get("global_transactions", 0)),
                replays=int(stats.get("shared_bank_replays", 0)),
                modeled_ms=float((response or {}).get("timing_ms") or 0.0),
            ))
            rnd += 1
    except (OSError, http.client.HTTPException, ValueError) as exc:
        # A dropped connection or unreadable response ends this client;
        # it counts as a failed request, not as a shorter run.
        errors.append(f"client {cid} round {rnd}: {exc!r}")
    finally:
        rounds.barrier.abort()
        conn.close()


def _total_insts(stats: dict) -> float:
    if not stats:
        return 0.0
    from repro.gpusim.stats import KernelStats

    return float(KernelStats(**stats).total_insts)


def tail(latencies_s: list):
    """``(percentile, ms)`` at the highest percentile with >= 10 samples beyond."""
    for pct in TAIL_PERCENTILES:
        try:
            return pct, 1e3 * tail_percentile(latencies_s, pct)
        except BenchError:
            continue
    raise BenchError(f"{len(latencies_s)} requests support no tail percentile")


def run(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    spans_path = WORK / "server-spans.json" if trace else None
    setups, servers, errors = [], [], []
    server_cpu, client_cpu = work_cpus()
    pin(client_cpu)
    clock = NormClock(server_cpu)
    try:
        for i in range(SETUPS):
            clock.last = clock.probe_s()
            server = Server(i, server_cpu, spans_path if i == SETUPS - 1 else None)
            servers.append(server)
            setups.append(clock.scale(server.wait_ready()))
            if i < SETUPS - 1:
                server.stop()
        server = servers[-1]

        records: list = []
        t0 = time.monotonic()
        rounds = Rounds(t0 + seconds, clock)
        threads = [threading.Thread(target=_client, name=f"client-{c}",
                                    args=(c, server.port, seed, rounds, records, errors,
                                          tracer))
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t1 = time.monotonic()
        if len(records) == 0:
            raise BenchError("no request completed")
        statz = server.stats()
        rss = proc_peak_rss_mb(server.proc.pid)
    finally:
        exit_codes = [s.stop() for s in servers]
    if exit_codes[-1] != 0:
        errors.append(f"server exited {exit_codes[-1]} after SIGTERM (unclean drain)")

    failures = [f"{r.kernel} client {r.client} round {r.rnd} seed {r.seed}: {r.reason}"
                for r in records if not r.ok] + errors
    window_s = t1 - t0
    ok_count = sum(r.ok for r in records)
    latencies = [r.latency_s if r.ok else float("inf") for r in records]
    norm = {id(r): rounds.normalise(r.rnd, r.latency_s) for r in records}
    per_kernel = {k: median([norm[id(r)] for r in records if r.kernel == k]) for k in KERNELS}
    # Rounds are lockstep, so the server is busy for the longer of a
    # round's two requests; throughput is taken over those busy times.
    busy_s = sum(max(norm[id(r)] for r in records if r.rnd == rnd)
                 for rnd in {r.rnd for r in records})
    insts = sum(r.insts for r in records if r.ok and not r.coalesced)
    tail_pct, tail_ms = tail(latencies)
    p50_ms = 1e3 * median(latencies)

    rows = [f"{'kernel':6} {'requests':>8} {'median ms':>10} {'raw ms':>8} {'modeled ms':>11}"]
    for k in KERNELS:
        mine = [r for r in records if r.kernel == k]
        rows.append(f"{k:6} {len(mine):8d} {1e3 * per_kernel[k]:10.1f} "
                    f"{1e3 * median([r.latency_s for r in mine]):8.1f} "
                    f"{mine[0].modeled_ms:11.4f}")
    rows.append(f"requests {len(records)} in {window_s:.1f} s; serve_rps "
                f"{ok_count / window_s:.3f}; serve_p50_ms {p50_ms:.1f}; "
                f"serve_p{tail_pct}_ms {tail_ms:.1f} ({len(records)} samples); "
                f"coalesced {statz['batcher']['coalesced']}")

    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - len(failures) / (len(records) + len(errors)),
        "cycle_s": sum(per_kernel.values()),
        "ops_per_s": ok_count / busy_s,
        "sim_minst_per_s": insts / busy_s / 1e6,
    }
    out = {"e2e": e2e, "attempted": len(records) + len(errors),
           "failed": len(failures), "failures": failures, "rows": rows}
    if trace:
        out["layers"] = _layers(tracer, spans_path, records, statz, t0, t1,
                                p50_ms, tail_pct, tail_ms)
    return out


def _layers(tracer, spans_path, records, statz, t0, t1, p50_ms, tail_pct, tail_ms):
    from .layers import layer_metrics, overhead_pct
    from .tracing import load_dump, window

    dump = load_dump(spans_path)
    server_spans = dump["spans"]
    win = window(server_spans, t0, t1) + tracer.spans
    kernel_of = kernel_names({k: seeded_bench(k, 0) for k in KERNELS})
    first = sorted((r for r in records if r.client == 0 and r.rnd < len(KERNELS)),
                   key=lambda r: r.rnd)
    sim = {
        "warp_insts": sum(r.insts for r in first),
        "global_txns": sum(r.txns for r in first),
        "bank_replays": sum(r.replays for r in first),
        "modeled_ms": {r.kernel: r.modeled_ms for r in first},
    }
    batcher, cache, counters = statz["batcher"], statz["kernel_cache"], statz["counters"]
    total = batcher["launches"] + batcher["coalesced"]
    counts = {
        "lower_hits": dump["compile_cache"]["hits"],
        "lower_misses": dump["compile_cache"]["misses"],
        "kernel_cache_hits": cache["hits"],
        "kernel_cache_misses": cache["misses"],
        "coalesced_ratio": batcher["coalesced"] / total if total else 0.0,
        "shed": counters.get("shed_breaker", 0) + counters.get("shed_capacity", 0),
        "errors": counters.get("errors", 0) + counters.get("timeouts", 0),
        "client_latencies_s": [r.latency_s for r in records],
    }
    out = layer_metrics(server_spans, win, kernel_of, sim, counts)
    out["serve.requests"] = len(records)
    out["serve.p50_ms"] = p50_ms
    out["serve.tail_ms"] = tail_ms
    out["serve.tail_pct"] = tail_pct
    out["trace.overhead_pct"] = overhead_pct(len(win), t1 - t0)
    return out
