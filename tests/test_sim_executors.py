"""Tests for repro.sim.executors: serial/pool/socket backends, the wire
protocol, per-worker world caching and journal merging."""

import os
import socket as socket_mod
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.obs import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    merge_journals,
)
from repro.placement import MaxPlacement, RandomPlacement
from repro.sim import (
    CellExecutor,
    PoolExecutor,
    RetryPolicy,
    SerialExecutor,
    SocketExecutor,
    SweepJournal,
    WorkerRejected,
    make_executor,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    run_cells,
    run_worker,
    spawn_context,
)
from repro.sim.executors.base import cell_fn_ref, resolve_cell_fn, run_one_cell
from repro.sim.executors.cache import (
    cached_grid,
    cached_layout,
    clear_world_cache,
)
from repro.sim.executors.local import auto_chunk
from repro.sim.executors.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_payload,
    enable_nodelay,
    encode_frame,
    encode_payload,
    recv_frame,
    send_frame,
)
from repro.sim.resilient import _improvement_cell, _mean_error_cell


def _double(args):
    return args * 2


def _exit_on_die(args):
    # Kills its whole process — only ever run in a subprocess worker.
    if args == "die":
        os._exit(1)
    return args * 10


def _worker_process_main(host, port):
    from repro.sim.executors import run_worker as rw

    rw((host, port), connect_timeout=30.0)


class _WorkerThread(threading.Thread):
    """run_worker on a background thread, capturing its result/exception."""

    def __init__(self, address, **kwargs):
        super().__init__(daemon=True)
        self.address = address
        self.kwargs = kwargs
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = run_worker(self.address, **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            self.error = exc


# -- Wire protocol -----------------------------------------------------------


class TestWire:
    def test_frame_roundtrip_counts_bytes(self):
        a, b = socket_mod.socketpair()
        try:
            sent = send_frame(a, {"type": "hello", "protocol": 1})
            message, read = recv_frame(b)
            assert message == {"type": "hello", "protocol": 1}
            assert read == sent
        finally:
            a.close()
            b.close()

    def test_clean_close_returns_none(self):
        a, b = socket_mod.socketpair()
        a.close()
        try:
            assert recv_frame(b) == (None, 0)
        finally:
            b.close()

    def test_mid_frame_close_raises(self):
        a, b = socket_mod.socketpair()
        a.sendall(struct.pack(">I", 16) + b"abc")  # promises 16, sends 3
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_length_rejected(self):
        a, b = socket_mod.socketpair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_untyped_frame_rejected(self):
        a, b = socket_mod.socketpair()
        payload = b'{"no_type": 1}'
        a.sendall(struct.pack(">I", len(payload)) + payload)
        try:
            with pytest.raises(ProtocolError, match="typed"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_payload_roundtrip(self):
        args = (1.5, "stall", (2, 3), {"k": [None, True]})
        assert decode_payload(encode_payload(args)) == args

    @pytest.mark.parametrize("partial", [1, 2, 3])
    def test_mid_header_close_raises(self, partial):
        # A peer that dies 1-3 bytes into the 4-byte header left a torn
        # frame; this must NOT be reported as a clean (None, 0) close.
        a, b = socket_mod.socketpair()
        a.sendall(struct.pack(">I", 16)[:partial])
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_mid_payload_close_raises(self):
        a, b = socket_mod.socketpair()
        payload = encode_frame({"type": "batch", "cells": list(range(100))})
        a.sendall(payload[:-5])  # full header, payload cut short
        a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_nan_bearing_frame_rejected(self, value):
        # Strict JSON: bare NaN/Infinity tokens are not parseable from
        # other languages, so the frame layer refuses them outright.
        a, b = socket_mod.socketpair()
        try:
            with pytest.raises(ProtocolError, match="non-finite"):
                send_frame(a, {"type": "heartbeat", "metric": value})
        finally:
            a.close()
            b.close()

    def test_nan_payload_rides_through_encode_payload(self):
        # The sanctioned route for non-finite values: pickle-in-base64.
        a, b = socket_mod.socketpair()
        try:
            send_frame(
                a,
                {"type": "result", "outcome": encode_payload(float("nan"))},
            )
            message, _ = recv_frame(b)
            decoded = decode_payload(message["outcome"])
            assert decoded != decoded  # NaN survived the trip
        finally:
            a.close()
            b.close()

    def test_encode_frame_oversize_rejected(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.executors.wire.MAX_FRAME_BYTES", 64
        )
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame({"type": "batch", "cells": ["x" * 200]})

    def test_decode_frame_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")
        with pytest.raises(ProtocolError, match="typed"):
            decode_frame(b"[1, 2, 3]")

    def test_payload_fuzz_roundtrip(self):
        # Adversarial-ish payloads: deep nesting, non-finite floats, byte
        # strings, unicode astray, big ints — all must survive untouched.
        import math
        import random

        rng = random.Random(20010416)

        def scramble(depth=0):
            kind = rng.randrange(8 if depth < 4 else 6)
            if kind == 0:
                return rng.choice(
                    [float("nan"), float("inf"), float("-inf"), -0.0, 1e308]
                )
            if kind == 1:
                return rng.getrandbits(200) - 2**199
            if kind == 2:
                return bytes(rng.randrange(256) for _ in range(rng.randrange(32)))
            if kind == 3:
                return "".join(
                    chr(rng.randrange(1, 0x10000)) for _ in range(rng.randrange(16))
                )
            if kind == 4:
                return rng.choice([None, True, False])
            if kind == 5:
                return rng.random()
            if kind == 6:
                return [scramble(depth + 1) for _ in range(rng.randrange(4))]
            return {
                f"k{i}": scramble(depth + 1) for i in range(rng.randrange(4))
            }

        def equal(x, y):
            if isinstance(x, float):
                return (
                    isinstance(y, float)
                    and (x == y or (math.isnan(x) and math.isnan(y)))
                )
            if isinstance(x, list):
                return (
                    isinstance(y, list)
                    and len(x) == len(y)
                    and all(equal(a, b) for a, b in zip(x, y))
                )
            if isinstance(x, dict):
                return (
                    isinstance(y, dict)
                    and x.keys() == y.keys()
                    and all(equal(v, y[k]) for k, v in x.items())
                )
            return type(x) is type(y) and x == y

        for _ in range(200):
            obj = scramble()
            assert equal(decode_payload(encode_payload(obj)), obj)

    def test_enable_nodelay_tcp_and_nontcp(self):
        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket_mod.create_connection(listener.getsockname())
        try:
            enable_nodelay(client)
            assert client.getsockopt(
                socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY
            )
        finally:
            client.close()
            listener.close()
        # Non-TCP sockets (the socketpair tests use) must not blow up.
        a, b = socket_mod.socketpair()
        try:
            enable_nodelay(a)
        finally:
            a.close()
            b.close()


# -- Executor factory and helpers --------------------------------------------


class TestFactory:
    def test_default_dispatch(self):
        with make_executor(workers=1) as executor:
            assert isinstance(executor, SerialExecutor)
        with make_executor("pool", workers=1) as executor:
            assert isinstance(executor, PoolExecutor)
        with make_executor("socket") as executor:
            assert isinstance(executor, SocketExecutor)
            assert executor.address[1] != 0  # a real port was bound

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("telepathy")

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk"):
            PoolExecutor(workers=1, chunk=0)
        with pytest.raises(ValueError, match="chunk"):
            SocketExecutor(chunk=0)

    def test_auto_chunk_bounds(self):
        assert auto_chunk(6, 2) == 1  # tiny sweeps keep per-cell dispatch
        assert auto_chunk(40, 2) == 5
        assert auto_chunk(4096, 2) == 16  # capped

    def test_cell_fn_ref_roundtrip(self):
        ref = cell_fn_ref(_double)
        assert resolve_cell_fn(ref) is _double

    def test_cell_fn_ref_rejects_locals(self):
        with pytest.raises(ValueError, match="module-level"):
            cell_fn_ref(lambda x: x)

    def test_resolve_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            resolve_cell_fn("no-colon-here")

    def test_run_one_cell_catches_exception(self):
        def boom(args):
            raise RuntimeError("kapow")

        outcome = run_one_cell(boom, None)
        assert outcome["ok"] is False
        assert "kapow" in outcome["error"]
        assert outcome["seconds"] >= 0.0

    def test_run_one_cell_instrumented_snapshot(self):
        outcome = run_one_cell(_double, 4, instrument=True)
        assert outcome == {
            "ok": True,
            "value": 8,
            "seconds": outcome["seconds"],
            "metrics": outcome["metrics"],
            "worker": outcome["worker"],
            "span": outcome["span"],
        }
        hist = outcome["metrics"]["histograms"]["sweep.cell.seconds"]
        assert hist["count"] == 1
        assert outcome["worker"]["pid"] == os.getpid()
        span = outcome["span"]
        assert span["name"] == "sweep.cell"
        assert span["pid"] == os.getpid()
        assert span["span"]


class TestWorkerValidation:
    def test_oversubscription_warns_but_allows(self):
        from repro.sim import validate_workers

        too_many = (os.cpu_count() or 1) + 1
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            assert validate_workers(too_many) == too_many

    def test_sane_count_is_silent(self):
        import warnings

        from repro.sim import validate_workers

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_workers(1) == 1

    def test_spawn_context_pinned(self):
        assert spawn_context().get_start_method() == "spawn"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_run_cells_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_cells([((1,), 1)], _double, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_executor(workers=workers)


# -- Local backends ----------------------------------------------------------


class TestPoolChunking:
    def test_chunked_matches_unchunked(self):
        jobs = [((i,), i) for i in range(7)]
        with PoolExecutor(workers=2, chunk=5) as chunked:
            coarse = run_cells(jobs, _double, executor=chunked)
        with PoolExecutor(workers=2, chunk=1) as per_cell:
            fine = run_cells(jobs, _double, executor=per_cell)
        assert coarse == fine == {(i,): i * 2 for i in range(7)}


def _sleep_or_die(args):
    if args == "die":
        os._exit(1)
    time.sleep(0.5)
    return args


def _fail_first_attempt(args):
    directory, index, kind = args
    if kind == "flaky":
        marker = os.path.join(directory, f"tried-{index}")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            raise RuntimeError("first attempt fails")
    else:
        time.sleep(0.1)
    return index


def _pid(args):
    return os.getpid()


def _exit_at_start(conn):
    os._exit(3)


class _DeadOnArrival:
    """A spawn context whose processes exit before reporting ready."""

    def __init__(self):
        self._spawn = spawn_context()
        self.Pipe = self._spawn.Pipe

    def Process(self, *, target, args, daemon):
        return self._spawn.Process(target=_exit_at_start, args=args, daemon=daemon)


class TestPoolFailureAttribution:
    def test_slots_reused_across_sessions_and_stopped_by_close(self):
        jobs = [((i,), i) for i in range(4)]
        pool = PoolExecutor(workers=2, chunk=1)
        run_cells(jobs, _pid, executor=pool)
        processes = [slot.process for slot in pool._slots]
        again = run_cells(jobs, _pid, executor=pool)
        assert set(again.values()) <= {process.pid for process in processes}
        pool.close()
        for process in processes:
            process.join(30.0)
            assert process.exitcode == 0  # stopped, not killed

    def test_start_up_death_is_an_error_not_a_respawn_loop(self):
        with PoolExecutor(workers=1, mp_context=_DeadOnArrival()) as pool:
            with pytest.raises(RuntimeError, match=r"start-up \(exit code 3\)"):
                run_cells([((0,), 0)], _double, executor=pool)

    def test_unpicklable_cell_fn_degrades_every_cell(self):
        with PoolExecutor(workers=1, chunk=2) as pool:
            results = run_cells(
                [((i,), i) for i in range(3)], lambda x: x, executor=pool,
                policy=RetryPolicy(max_attempts=2, backoff=0.0),
            )
        assert results == {(0,): None, (1,): None, (2,): None}

    def test_death_charges_only_its_own_chunk(self, tmp_path):
        """Eight healthy cells and one that kills its worker, on three
        slots: every healthy cell succeeds on its first attempt and the
        dying cell is charged exactly its two attempts."""
        registry = enable_metrics()
        jobs = [((f"h{i}",), f"h{i}") for i in range(8)] + [(("die",), "die")]
        try:
            with PoolExecutor(workers=3, chunk=1) as pool, \
                    SweepJournal.open(tmp_path / "j.jsonl", "fp") as journal:
                results = run_cells(
                    jobs, _sleep_or_die, executor=pool, journal=journal,
                    policy=RetryPolicy(max_attempts=2, timeout=30.0, backoff=0.0),
                )
                attempts = {key: journal.entry(key)["attempts"] for key, _ in jobs}
        finally:
            disable_metrics()
        assert results == {**{(f"h{i}",): f"h{i}" for i in range(8)}, ("die",): None}
        assert attempts == {**{(f"h{i}",): 1 for i in range(8)}, ("die",): 2}
        assert registry.counter("sweep.cells.worker_death").value == 2

    def test_backoff_does_not_stall_other_chunks(self, tmp_path):
        """A failed chunk's retries wait out their backoff off the collect
        loop: a 0.5 s backoff adds about that much, not 0.5 s per cell."""
        def sweep(backoff, name):
            directory = tmp_path / name
            directory.mkdir()
            jobs = [((i,), (str(directory), i, "flaky")) for i in range(8)]
            jobs += [((i,), (str(directory), i, "slow")) for i in range(8, 32)]
            start = time.monotonic()
            results = run_cells(
                jobs, _fail_first_attempt, executor=pool,
                policy=RetryPolicy(max_attempts=2, backoff=backoff),
            )
            assert results == {(i,): i for i in range(32)}
            return time.monotonic() - start

        with PoolExecutor(workers=2, chunk=8) as pool:
            # Spawn both slots outside the timings.
            run_cells([((i,), i) for i in range(16)], _double, executor=pool)
            instant = sweep(0.0, "instant")
            backed_off = sweep(0.5, "backed-off")
        assert backed_off - instant < 1.0


class TestSerialPlanningCap:
    """The serial executor plans at most MAX_CHUNK cells per kernel pass."""

    @pytest.fixture
    def config(self, tiny_config):
        return tiny_config.with_counts([8, 20]).with_fields(20)  # 40 cells

    @pytest.fixture
    def warm_sizes(self, monkeypatch):
        from repro.sim import resilient

        sizes = []
        real = resilient.warm_worlds

        def spy(worlds, **kwargs):
            sizes.append(len(worlds))
            return real(worlds, **kwargs)

        monkeypatch.setattr(resilient, "warm_worlds", spy)
        return sizes

    @staticmethod
    def sweeps(config):
        """The Figure 4 and Figure 5 cells of ``config`` through run_cells
        on a serial executor, so the batch planners engage."""
        algorithms = (RandomPlacement(), MaxPlacement())
        keys = [
            (count, index)
            for count in config.beacon_counts
            for index in range(config.fields_per_density)
        ]
        with SerialExecutor() as executor:
            means = run_cells(
                [(key, (config, 0.3, *key, None, 0.0)) for key in keys],
                _mean_error_cell, executor=executor,
            )
            gains = run_cells(
                [(key, (config, 0.3, *key, None, 0.0, algorithms)) for key in keys],
                _improvement_cell, executor=executor,
            )
        return means, gains

    def test_no_warm_pass_exceeds_the_cap(self, config, warm_sizes):
        from repro.sim.executors.local import MAX_CHUNK

        assert MAX_CHUNK == auto_chunk(10**6, 1) == 16
        self.sweeps(config)
        assert warm_sizes and max(warm_sizes) <= MAX_CHUNK
        # Each sweep warms each of its 40 worlds exactly once.
        assert sum(warm_sizes) == 2 * 40

    def test_values_identical_to_one_block_and_to_scalar(
        self, config, warm_sizes, monkeypatch
    ):
        """The cap changes memory, never bits: the same cells planned as a
        single 128-cell block, or run unplanned, give identical values."""
        import repro.sim.executors.local as local

        capped = self.sweeps(config)
        warm_sizes.clear()
        monkeypatch.setattr(local, "MAX_CHUNK", 128)
        whole = self.sweeps(config)
        assert max(warm_sizes) == 40  # really one block this time
        assert capped == whole
        for (count, index), value in capped[0].items():
            assert value == _mean_error_cell((config, 0.3, count, index, None, 0.0))


class _Recording(CellExecutor):
    """A non-serial backend (so sweeps dispatch heaviest-first) that records
    the order cells are handed to it and runs them in-process."""

    def __init__(self):
        self.keys = []

    def execute(self, pending, fn, **kwargs):
        pending = list(pending)
        self.keys.extend(key for key, _ in pending)
        SerialExecutor().execute(pending, fn, **kwargs)


class TestDispatchOrder:
    """Resilient sweeps hand cells out heaviest (largest count) first, so a
    pool's last chunks are its cheapest; the curves keep the config order."""

    def test_mean_error_curve_dispatches_largest_count_first(self, tiny_config):
        recorder = _Recording()
        curve = resilient_mean_error_curve(tiny_config, 0.3, executor=recorder)
        counts = [key[1] for key in recorder.keys]
        assert counts == sorted(counts, reverse=True)
        assert set(counts) == set(tiny_config.beacon_counts)
        assert curve.counts == tuple(tiny_config.beacon_counts)
        assert curve.values == resilient_mean_error_curve(tiny_config, 0.3).values

    def test_improvement_curves_dispatch_largest_count_first(self, tiny_config):
        recorder = _Recording()
        config = tiny_config.with_counts([8, 20])
        resilient_placement_improvement_curves(
            config, 0.0, [RandomPlacement()], executor=recorder
        )
        counts = [key[1] for key in recorder.keys]
        assert counts == [20] * config.fields_per_density + [8] * config.fields_per_density


class TestWorkerImports:
    def test_sweep_import_leaves_heavy_dependencies_unloaded(self):
        # Every spawned pool worker re-imports the package; scipy.stats,
        # scipy.special and networkx are loaded only by the functions that
        # use them, never by a sweep cell.
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro, repro.sim, repro.sim.resilient; "
            "print(','.join(m for m in ('scipy.stats', 'scipy.special', 'networkx') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == ""


# -- Socket backend ----------------------------------------------------------


class TestSocketExecutor:
    def test_loopback_matches_serial(self):
        jobs = [((i,), i) for i in range(11)]
        serial = run_cells(jobs, _double)
        with SocketExecutor(chunk=4) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            via_socket = run_cells(jobs, _double, executor=executor)
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert worker.error is None
        assert worker.result == len(jobs)
        assert via_socket == serial

    def test_executor_reused_across_sessions(self):
        """One executor (and its worker) serves several sweeps, like a
        multi-panel figure does."""
        with SocketExecutor(chunk=3) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            first = run_cells([((i,), i) for i in range(5)], _double, executor=executor)
            second = run_cells([((i,), i + 100) for i in range(4)], _double, executor=executor)
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert worker.error is None
        assert first == {(i,): i * 2 for i in range(5)}
        assert second == {(i,): (i + 100) * 2 for i in range(4)}

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        journal = SweepJournal.open(tmp_path / "j.jsonl", "fp-right")
        jobs = [((i,), i) for i in range(3)]
        done = threading.Event()
        results = {}

        def serve():
            results.update(
                run_cells(jobs, _double, executor=executor, journal=journal)
            )
            done.set()

        with SocketExecutor(chunk=2) as executor:
            server = threading.Thread(target=serve, daemon=True)
            server.start()
            with pytest.raises(WorkerRejected, match="fingerprint"):
                run_worker(
                    executor.address, fingerprint="fp-wrong", connect_timeout=5.0
                )
            good = _WorkerThread(
                executor.address, fingerprint="fp-right", connect_timeout=5.0
            )
            good.start()
            server.join(timeout=30.0)
            assert done.is_set()
        good.join(timeout=15.0)
        journal.close()
        assert good.error is None
        assert good.result == 3
        assert results == {(i,): i * 2 for i in range(3)}

    def test_worker_crash_mid_batch_requeues_innocent(self):
        """A worker dying mid-batch charges only the running cell; its
        batch-mates requeue and finish on the next worker."""
        ctx = spawn_context()
        jobs = [(("die",), "die")] + [((i,), i) for i in range(4)]
        registry = MetricsRegistry()
        enable_metrics(registry)
        try:
            with SocketExecutor(chunk=8) as executor:
                host, port = executor.address
                victim = ctx.Process(
                    target=_worker_process_main, args=(host, port), daemon=True
                )
                victim.start()
                relief = {}

                def send_relief():
                    victim.join()
                    proc = ctx.Process(
                        target=_worker_process_main, args=(host, port), daemon=True
                    )
                    proc.start()
                    relief["proc"] = proc

                relief_thread = threading.Thread(target=send_relief, daemon=True)
                relief_thread.start()
                results = run_cells(
                    jobs,
                    _exit_on_die,
                    executor=executor,
                    policy=RetryPolicy(max_attempts=1, backoff=0.0),
                )
            relief_thread.join(timeout=30.0)
            relief["proc"].join(timeout=30.0)
        finally:
            disable_metrics()
        assert results[("die",)] is None  # charged, degraded to NaN
        assert results == {("die",): None, **{(i,): i * 10 for i in range(4)}}
        assert registry.counter("sweep.cells.worker_death").value == 1
        assert registry.counter("sweep.cells.requeued_innocent").value == 4
        assert registry.counter("executor.socket.requeues").value == 4

    def test_silent_connection_reaped_and_batch_requeued(self):
        """A worker silent for 3× the heartbeat interval — alive at the TCP
        level but sending neither results nor heartbeats — is declared dead
        and its whole batch requeues onto the next worker."""
        jobs = [((i,), i) for i in range(5)]
        registry = MetricsRegistry()
        enable_metrics(registry)
        silent_state = {}
        release = threading.Event()

        def silent_client(host, port):
            # Handshake like a real worker, accept one batch, then vanish
            # into silence: no heartbeats, no results, socket held open.
            sock = socket_mod.create_connection((host, port), timeout=10.0)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                welcome, _ = recv_frame(sock)
                silent_state["welcome"] = welcome
                batch, _ = recv_frame(sock)
                silent_state["batch"] = batch
                release.wait(timeout=30.0)
            finally:
                sock.close()

        try:
            with SocketExecutor(chunk=8, heartbeat=0.2) as executor:
                host, port = executor.address
                mute = threading.Thread(
                    target=silent_client, args=(host, port), daemon=True
                )
                mute.start()
                relief = {}

                def send_relief():
                    # Give the silent client time to claim the batch first.
                    time.sleep(0.3)
                    worker = _WorkerThread(executor.address, connect_timeout=10.0)
                    worker.start()
                    relief["worker"] = worker

                relief_thread = threading.Thread(target=send_relief, daemon=True)
                relief_thread.start()
                results = run_cells(
                    jobs,
                    _double,
                    executor=executor,
                    policy=RetryPolicy(max_attempts=2, backoff=0.0),
                )
                release.set()
            relief_thread.join(timeout=30.0)
            relief["worker"].join(timeout=15.0)
        finally:
            release.set()
            disable_metrics()
        mute.join(timeout=15.0)
        assert silent_state["welcome"]["type"] == "welcome"
        assert silent_state["batch"]["type"] == "batch"
        assert len(silent_state["batch"]["cells"]) == 5
        assert results == {(i,): i * 2 for i in range(5)}
        # The running cell is charged to the dead connection; batch-mates
        # requeue as innocents.  Everyone finishes on the relief worker.
        assert registry.counter("sweep.cells.worker_death").value == 1
        assert registry.counter("sweep.cells.requeued_innocent").value == 4


class TestBackendsBitIdentical:
    def test_mean_error_curve_identical_across_backends(self, tiny_config):
        config = tiny_config.with_counts([8, 20])
        serial = resilient_mean_error_curve(config, 0.3)
        with PoolExecutor(workers=2, chunk=2) as pool:
            pooled = resilient_mean_error_curve(config, 0.3, executor=pool)
        with SocketExecutor(chunk=2) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            socketed = resilient_mean_error_curve(config, 0.3, executor=executor)
        worker.join(timeout=15.0)
        assert worker.error is None
        for got in (pooled, socketed):
            assert got.values == serial.values
            assert got.ci_half_widths == serial.ci_half_widths
            assert got.meta["failed_cells"] == 0

    def test_improvement_curvesets_identical_across_backends(self, tiny_config):
        config = tiny_config.with_counts([8])
        algorithms = [RandomPlacement(), MaxPlacement()]
        serial_sets = resilient_placement_improvement_curves(config, 0.0, algorithms)
        with PoolExecutor(workers=2, chunk=2) as pool:
            pool_sets = resilient_placement_improvement_curves(
                config, 0.0, algorithms, executor=pool
            )
        with SocketExecutor(chunk=2) as executor:
            worker = _WorkerThread(executor.address, connect_timeout=5.0)
            worker.start()
            socket_sets = resilient_placement_improvement_curves(
                config, 0.0, algorithms, executor=executor
            )
        worker.join(timeout=15.0)
        assert worker.error is None
        for got_sets in (pool_sets, socket_sets):
            for got_set, want_set in zip(got_sets, serial_sets):
                for got, want in zip(got_set.curves, want_set.curves):
                    assert got.values == want.values
                    assert got.ci_half_widths == want.ci_half_widths


# -- World-component cache ---------------------------------------------------


class TestWorldCache:
    def test_identical_objects_and_counters(self):
        clear_world_cache()
        registry = MetricsRegistry()
        enable_metrics(registry)
        try:
            first = cached_grid(60.0, 3.0)
            again = cached_grid(60.0, 3.0)
            assert first is again
            layout = cached_layout(60.0, 12.0, 100)
            assert cached_layout(60.0, 12.0, 100) is layout
            assert registry.counter("worldcache.misses").value == 2
            assert registry.counter("worldcache.hits").value == 2
        finally:
            disable_metrics()
            clear_world_cache()

    def test_build_world_shares_components_across_cells(self, tiny_config):
        from repro.sim.sweep import build_world

        one = build_world(tiny_config, 0.0, 8, 0)
        two = build_world(tiny_config, 0.0, 8, 1)
        assert one.grid is two.grid
        assert one.layout is two.layout
        assert one.localizer is two.localizer
        # Distinct per-cell state is still per-cell.
        assert one.field is not two.field


# -- Journal merging ---------------------------------------------------------


def _write_journal(path, fingerprint, cells):
    with SweepJournal.open(path, fingerprint) as journal:
        for key, value in cells:
            journal.record(key, ok=True, value=value, attempts=1)


class TestJournalMerge:
    def test_last_writer_wins(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp", [((0,), 1.0), ((1,), 2.0)])
        _write_journal(b, "fp", [((1,), 20.0), ((2,), 3.0)])
        out = tmp_path / "merged.jsonl"
        stats = merge_journals(out, [a, b])
        assert stats.inputs == 2
        assert stats.cells == 3
        assert stats.superseded == 1
        merged = SweepJournal.open(out, "fp")
        assert merged.entry((1,))["value"] == 20.0  # b came last
        assert merged.entry((0,))["value"] == 1.0

    def test_mismatched_fingerprints_refused(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp-one", [((0,), 1.0)])
        _write_journal(b, "fp-two", [((1,), 2.0)])
        with pytest.raises(ValueError, match="different sweeps"):
            merge_journals(tmp_path / "merged.jsonl", [a, b])

    def test_output_may_be_an_input(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp", [((0,), 1.0)])
        _write_journal(b, "fp", [((1,), 2.0)])
        stats = merge_journals(a, [a, b])
        assert stats.cells == 2
        merged = SweepJournal.open(a, "fp")
        assert len(merged) == 2

    def test_cli_merge_round_trip(self, capsys, tmp_path, monkeypatch, tiny_config):
        """Shards of a real sweep merge into a journal that resumes the
        full sweep without recomputing anything."""
        config = tiny_config.with_counts([8, 20])
        path = tmp_path / "full.jsonl"
        full = resilient_mean_error_curve(config, 0.0, journal_path=path)
        lines = path.read_text().splitlines()
        header, cells = lines[0], lines[1:]
        mid = len(cells) // 2
        shard_a = tmp_path / "shard_a.jsonl"
        shard_b = tmp_path / "shard_b.jsonl"
        shard_a.write_text("\n".join([header] + cells[:mid]) + "\n")
        shard_b.write_text("\n".join([header] + cells[mid:]) + "\n")
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["journal", "--merge", str(merged), str(shard_a), str(shard_b)]
        ) == 0
        out = capsys.readouterr().out
        assert "merged 2 journal(s)" in out

        def poison(args):
            raise AssertionError("cell recomputed despite merged journal")

        monkeypatch.setattr("repro.sim.resilient._mean_error_cell", poison)
        resumed = resilient_mean_error_curve(config, 0.0, journal_path=merged)
        assert resumed.values == full.values

    def test_cli_merge_mismatch_fails(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp-one", [((0,), 1.0)])
        _write_journal(b, "fp-two", [((1,), 2.0)])
        code = main(["journal", "--merge", str(tmp_path / "out.jsonl"), str(a), str(b)])
        assert code == 1
        assert "different sweeps" in capsys.readouterr().err

    def test_cli_multiple_paths_need_merge(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_journal(a, "fp", [((0,), 1.0)])
        _write_journal(b, "fp", [((1,), 2.0)])
        assert main(["journal", str(a), str(b)]) == 1
        assert capsys.readouterr().err != ""


# -- CLI parsing -------------------------------------------------------------


class TestExecutorCLI:
    def test_executor_flag_parses(self):
        args = build_parser().parse_args(
            ["--executor", "socket", "--bind", "0.0.0.0:9000", "reproduce", "fig4"]
        )
        assert args.executor == "socket"
        assert args.bind == ("0.0.0.0", 9000)

    def test_executor_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--executor", "telepathy", "reproduce", "fig4"])

    def test_chunk_flag_parses(self):
        args = build_parser().parse_args(["--chunk", "5", "reproduce", "fig4"])
        assert args.chunk == 5

    def test_bad_hostport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--bind", "no-port", "reproduce", "fig4"])

    def test_worker_parses(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.7:9000", "--fingerprint", "abc"]
        )
        assert args.command == "worker"
        assert args.connect == ("10.0.0.7", 9000)
        assert args.fingerprint == "abc"
        assert args.connect_timeout == 10.0

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_serve_parses(self):
        args = build_parser().parse_args(["serve", "fig4"])
        assert args.command == "serve"
        assert args.figure == "fig4"

    def test_worker_against_dead_address_fails(self, capsys):
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--connect-timeout", "0.1"]
        ) == 1
        assert "no sweep server" in capsys.readouterr().err
