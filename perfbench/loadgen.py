"""Closed-loop load generator for the serve-mixed workload.

Runs in its own process so the client's decoding never shares an
interpreter lock with the server.  Reads one JSON object on stdin::

    {"address": [host, port], "connections": 2, "seconds": 10.0,
     "plan": [<PlacementRequest payload>, ...], "sample_every": 8}

Each connection takes the next request of the plan, waits for its answer,
then takes the next (closed loop); no request is sent after ``seconds``.
Prints one JSON object on stdout: per-request records ``[index, send
offset s, latency s, cache_hit, digest or null]`` and the error records.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import harness
from repro.serve import PlacementClient, PlacementRequest, PlacementServiceError
from repro.sim.executors.wire import ProtocolError


def main() -> int:
    spec = json.load(sys.stdin)
    plan = [PlacementRequest.from_payload(p) for p in spec["plan"]]
    address = tuple(spec["address"])
    sample_every = int(spec["sample_every"])
    lock = threading.Lock()
    state = {"next": 0}
    records: list = []
    errors: list = []
    clients = [PlacementClient(address) for _ in range(int(spec["connections"]))]
    start = time.perf_counter()
    deadline = start + float(spec["seconds"])

    def drive(client: PlacementClient) -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= len(plan) or time.perf_counter() >= deadline:
                    return
                state["next"] = index + 1
            sent = time.perf_counter()
            try:
                solution = client.place(plan[index])
            except PlacementServiceError as exc:  # an error frame
                with lock:
                    errors.append([index, str(exc)])
                continue
            except (OSError, ProtocolError) as exc:  # the connection is gone
                with lock:
                    errors.append([index, f"{type(exc).__name__}: {exc}"])
                return
            latency = time.perf_counter() - sent
            digest = None
            if index % sample_every == 0:
                digest = harness.solution_digest(
                    solution.algorithm, solution.picks,
                    solution.errors.tobytes(), solution.base_mean,
                )
            with lock:
                records.append([index, sent - start, latency, solution.cache_hit, digest])

    threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for client in clients:
        client.close()
    json.dump({"records": records, "errors": errors, "wall": wall}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
