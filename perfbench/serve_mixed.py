"""The serve-mixed workload: a placement server under a closed-loop mix.

The server runs in its own process, started exactly as ``beaconplace
place-serve`` starts it.  A load-generator process (``loadgen.py``) drives
it closed-loop over two connections.  The request mix, per block of
eight: six requests on a warmed hot set of fields (expected-LE cache
hits) and two on fields never requested before (misses, which build the
field state); Grid, Max and Random in a 2:1:1 ratio; beacon counts from
the paper sweep and noise from the paper levels.  Greedy-k is left out:
one paper-shape request takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import signal
import subprocess
import sys
import time

import harness
import layers
from repro.field import paper_density_sweep
from repro.obs import disable_metrics, enable_metrics
from repro.serve import PlacementClient, PlacementRequest, schema
from repro.sim import PAPER_NOISE_LEVELS
from repro.sim.executors.wire import decode_frame, encode_frame
from repro.sim.incremental import FieldCache

HOT_FIELDS = 8
CONNECTIONS = 2
#: One block of the mix: 6 hits + 2 misses, algorithms 4 grid : 2 max : 2 random.
BLOCK_KINDS = ("hit",) * 6 + ("miss",) * 2
BLOCK_ALGORITHMS = ("grid",) * 4 + ("max",) * 2 + ("random",) * 2
PLAN_BLOCKS = 1000
#: Never-seen fields use indices at or above this; hot fields stay below.
MISS_BASE = 1_000_000
#: Every n-th response is digested by the load generator for the oracle.
SAMPLE_EVERY = 16
ORACLE_CHECKS = 12
#: Requests replayed in-process for the solve/codec split (traced run).
REPLAY_REQUESTS = 96
#: The server's default expected-LE cache (``place-serve --cache``).
CACHE_CAPACITY = 256

_ADDRESS = re.compile(r"on ([0-9.]+):([0-9]+)")


def make_plan(seed: int) -> tuple[list, list]:
    """(hot set, request plan) as :class:`PlacementRequest` lists.

    The seed picks the request seed (so every field's geometry and
    realization), the hot set's field indices and the order of kinds and
    algorithms inside each block.  The (count, noise) sequence is fixed:
    hits cycle through the hot set, misses through the paper counts in
    order, each at the next noise level, so every run does the same work
    in the same order of field sizes whatever its seed.
    """
    rng = random.Random(harness.derive_seed(seed, "serve-plan"))
    request_seed = harness.derive_seed(seed, "serve-seed")
    counts = [int(c) for c in paper_density_sweep()]
    # Hot fields span the sweep evenly (every third count: 20, 50, ..., 230).
    hot = [
        PlacementRequest(
            seed=request_seed,
            count=count,
            noise=PAPER_NOISE_LEVELS[i % len(PAPER_NOISE_LEVELS)],
            field_index=index,
            algorithm="grid",
        )
        for i, (count, index) in enumerate(
            zip(counts[::3][:HOT_FIELDS], rng.sample(range(MISS_BASE), HOT_FIELDS))
        )
    ]
    plan = []
    hits = misses = 0
    for _ in range(PLAN_BLOCKS):
        kinds = list(BLOCK_KINDS)
        algorithms = list(BLOCK_ALGORITHMS)
        rng.shuffle(kinds)
        rng.shuffle(algorithms)
        for kind, algorithm in zip(kinds, algorithms):
            if kind == "hit":
                plan.append(dataclasses.replace(hot[hits % HOT_FIELDS], algorithm=algorithm))
                hits += 1
            else:
                plan.append(
                    PlacementRequest(
                        seed=request_seed,
                        count=counts[misses % len(counts)],
                        noise=PAPER_NOISE_LEVELS[misses % len(PAPER_NOISE_LEVELS)],
                        field_index=MISS_BASE + misses,
                        algorithm=algorithm,
                    )
                )
                misses += 1
    return hot, plan


def is_hot(request: PlacementRequest) -> bool:
    return request.field_index < MISS_BASE


# -- Server process ------------------------------------------------------------


def start_server(env: dict, root: str, hot: list) -> tuple:
    """Start ``place-serve``, warm the hot set; returns (proc, address, seconds)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--bind", "127.0.0.1:0", "place-serve"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=root,
    )
    try:
        line = proc.stdout.readline()
        match = _ADDRESS.search(line)
        if match is None:
            raise RuntimeError(f"place-serve did not report its address: {line!r}")
        address = (match.group(1), int(match.group(2)))
        with PlacementClient(address) as client:
            for request in hot:
                client.place(request)
    except BaseException:
        stop_server(proc)
        raise
    return proc, address, time.perf_counter() - started


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt the server (its clean shutdown path) and wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def drive(env: dict, root: str, address, plan: list, seconds: float) -> dict:
    """Run the load generator against ``address``; returns its report."""
    spec = {
        "address": list(address),
        "connections": CONNECTIONS,
        "seconds": seconds,
        "plan": [r.payload() for r in plan],
        "sample_every": SAMPLE_EVERY,
    }
    loadgen = subprocess.run(
        [sys.executable, f"{root}/perfbench/loadgen.py"],
        input=json.dumps(spec), capture_output=True, text=True, env=env, cwd=root,
        timeout=seconds + 120,
    )
    if loadgen.returncode != 0:
        raise RuntimeError(f"load generator failed: {loadgen.stderr.strip()[-2000:]}")
    return json.loads(loadgen.stdout)


# -- In-process replay -----------------------------------------------------------


def replay(hot: list, requests: list, tracer=None) -> dict:
    """Solve ``requests`` in-process against a freshly warmed cache.

    The same calls the server makes per request: :func:`solve_request`, the
    result frame's array encoding and framing, and the client's decoding.
    Calls go through the ``schema`` module so a traced replay sees them.
    """
    cache = FieldCache(capacity=CACHE_CAPACITY)
    for request in hot:
        schema.solve_request(request, cache)
    solve, codec, sizes = [], [], []
    if tracer is not None:
        registry = enable_metrics()
        layers.install(tracer)
    start = time.perf_counter()
    try:
        for i, request in enumerate(requests):
            t0 = time.perf_counter()
            solution = schema.solve_request(request, cache)
            t1 = time.perf_counter()
            frame = encode_frame({
                "type": "result",
                "id": i,
                "algorithm": solution.algorithm,
                "picks": [[x, y] for x, y in solution.picks],
                "mean": schema.encode_float(solution.base_mean),
                "median": schema.encode_float(solution.base_median),
                "errors": schema.encode_array(solution.errors),
                "cache_hit": solution.cache_hit,
                "fingerprint": solution.fingerprint,
                "seconds": t1 - t0,
            })
            schema.decode_array(decode_frame(frame[4:])["errors"])
            codec.append(time.perf_counter() - t1)
            solve.append(t1 - t0)
            sizes.append(len(frame))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            disable_metrics()
    out = {"solve": solve, "codec": codec, "sizes": sizes, "wall": wall}
    if tracer is not None:
        out["snapshot"] = registry.snapshot()
    return out


# -- Oracle -----------------------------------------------------------------------


def check(plan: list, report: dict, log) -> tuple[int, int]:
    """(checks, mismatches): sampled answers against direct solves.

    Every sampled response must equal a direct :func:`solve_request` with
    no cache byte for byte (picks, LE-map bytes, base mean), and every
    response's ``cache_hit`` flag must say hot-set field ⇔ hit.
    """
    mismatches = 0
    wrong_flags = [
        r[0] for r in report["records"] if bool(r[3]) != is_hot(plan[r[0]])
    ]
    if wrong_flags:
        log(f"ORACLE: {len(wrong_flags)} response(s) with a wrong cache_hit flag, e.g. #{wrong_flags[0]}")
        mismatches += len(wrong_flags)
    sampled = sorted((r for r in report["records"] if r[4] is not None), key=lambda r: r[0])
    for index, _sent, _latency, _hit, digest in sampled[:ORACLE_CHECKS]:
        direct = schema.solve_request(plan[index])
        expected = harness.solution_digest(
            direct.algorithm, direct.picks, direct.errors.tobytes(), direct.base_mean
        )
        if expected != digest:
            log(f"ORACLE: response #{index} differs from a direct solve_request")
            mismatches += 1
    checks = len(sampled[:ORACLE_CHECKS])
    log(f"oracle: {checks} sampled response(s) checked byte for byte, {mismatches} mismatch(es)")
    return checks, mismatches


# -- Entry point ---------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, env: dict, root: str, log) -> dict:
    hot, plan = make_plan(seed)
    setups = []
    proc = None
    try:
        # Set up several times, each from a fresh server process; measure
        # against the last one.
        for _ in range(harness.SETUP_REPEATS):
            if proc is not None:
                stop_server(proc)
            proc, address, elapsed = start_server(env, root, hot)
            setups.append(elapsed)
        report = drive(env, root, address, plan, seconds)
    finally:
        if proc is not None:
            stop_server(proc)
    # Taken before the replay and the oracle, which solve in this process.
    result = {
        "setups": setups, "plan": plan, "hot": hot, "report": report,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    if trace:
        served = sorted(r[0] for r in report["records"])[:REPLAY_REQUESTS]
        requests = [plan[i] for i in served]
        result["replay"] = replay(hot, requests)
        tracer = layers.Tracer()
        result["traced_replay"] = replay(hot, requests, tracer)
        result["totals"] = tracer.totals()
    checks, mismatches = check(plan, report, log)
    result["checks"] = checks
    result["mismatches"] = mismatches
    return result
