"""Distributed plan execution: shard plans across processes and hosts.

The paper's headline numbers average thousands of independently-seeded
noise realizations per circuit — an embarrassingly parallel workload whose
natural shipping unit already exists: the frozen, picklable
:class:`~repro.runtime.plan.ExecutionPlan`. This module splits compiled
plans into self-contained :class:`~repro.runtime.plan.PlanShard` work
units, executes them on a pluggable executor layer, and merges the partial
results with the runtime's existing associative aggregation::

    batch = run(tasks, device, backend="distributed", workers=4)

Two transports ship with the library:

* ``local`` (the default) — a ``ProcessPoolExecutor`` on this machine.
  Worker-process crashes are recovered by re-queueing the lost shards onto
  a fresh pool (and, as a last resort, executing them inline), so a run
  always completes.
* ``socket`` — the coordinator serves a shard queue over TCP
  (``configure(dist_serve="0.0.0.0:7777")`` or ``--dist-serve``), spawns
  its local workers as subprocesses that pull from it, and lets any other
  host join the same run::

      python -m repro.runtime.distributed worker --connect HOST:7777

  The inverse topology is also supported for workers behind a firewall the
  coordinator can reach: the worker listens
  (``... worker --listen 0.0.0.0:7778``) and the coordinator dials out
  (``configure(dist_connect="workerhost:7778")``). A worker that vanishes
  mid-shard (killed, crashed, unplugged) just gets its shard re-queued for
  the next puller; when no workers remain the coordinator drains the queue
  itself.

Results are bit-for-bit identical to ``backend="trajectory"`` (or to
whichever ``inner`` backend executes the shards) for every shard size,
worker count, transport, and failure/recovery history: per-realization
seeds are derived from the plan at compile time — never from the worker —
and the coordinator reassembles shard results in realization order before
aggregating, so scheduling can only ever change wall time.

Shards travel as pickles. That is the right trade for a trusted cluster
(zero-copy NumPy, exact object fidelity) but it means a malicious peer on
the queue port can execute arbitrary code — bind ``--dist-serve`` to
trusted networks only.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...sim.executor import SimOptions, SimResult
from ..backends import Backend, get_backend
from ..plan import ExecutionPlan, PlanShard, plan_options, shard_plans
from ..task import TaskResult

#: ``(plan_index, shard_index)`` — how shard results are keyed and merged.
ShardKey = Tuple[int, int]
#: One executed unit: the simulation result and its wall time.
UnitOutcome = Tuple[SimResult, float]


@dataclass(frozen=True)
class WorkUnit:
    """A shard plus the execution context a worker needs to run it.

    ``options`` overrides the shard's compile-time options for this
    execution (the backend passes the batch-level options here, mirroring
    in-process execution); ``None`` falls back to ``shard.options``.
    ``crash_token`` is a failure-injection hook for the recovery tests: the
    first *worker* that picks the unit up creates the token file and dies
    abruptly (``os._exit``), so the shard exercises the re-queue path
    exactly once and then executes normally. Inline (coordinator-side)
    execution ignores it.
    """

    shard: PlanShard
    inner: str
    options: Optional[SimOptions] = None
    crash_token: Optional[str] = None

    @property
    def key(self) -> ShardKey:
        return (self.shard.plan_index, self.shard.shard_index)


def execute_work_unit(unit: WorkUnit, in_worker: bool = True) -> List[UnitOutcome]:
    """Run every simulation unit of one shard on the inner backend.

    This is the worker-side kernel shared by both transports (and by the
    coordinator's inline drain, with ``in_worker=False`` so the crash hook
    cannot kill the coordinator). Engines are shared between units whose
    scheduled circuits are the same object — pickling preserves that
    sharing within a shard — and results come back in unit order.
    """
    if in_worker and unit.crash_token is not None:
        try:
            fd = os.open(unit.crash_token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # already crashed once for this token; execute normally
        else:
            os.close(fd)
            os._exit(17)
    backend = get_backend(unit.inner)
    shard = unit.shard
    options = unit.options if unit.options is not None else shard.options
    options = options or SimOptions()
    engines: Dict[Tuple[int, int], Any] = {}
    outcomes: List[UnitOutcome] = []
    for plan_unit in shard.units:
        key = (id(plan_unit.scheduled), id(plan_unit.device))
        engine = engines.get(key)
        if engine is None:
            engine = backend._make_engine(plan_unit.scheduled, plan_unit.device, options)
            engines[key] = engine
        start = time.perf_counter()
        result = backend._execute(
            engine, shard.kind, shard.payload, shard.shots, plan_unit.seed
        )
        outcomes.append((result, time.perf_counter() - start))
    return outcomes


# ---------------------------------------------------------------------------
# Local executor: a process pool with crash recovery
# ---------------------------------------------------------------------------


class LocalShardExecutor:
    """Execute work units on a ``ProcessPoolExecutor``, surviving crashes.

    A worker process that dies mid-shard breaks the whole pool (that is how
    ``concurrent.futures`` reports it), taking every in-flight future with
    it. Recovery is simple because shards are idempotent — seeds come from
    the plan, so re-running one reproduces the same bits: unfinished shards
    are re-submitted to a fresh pool up to ``max_retries`` times, and
    whatever still remains executes inline in the coordinator, where a
    genuine (deterministic) error finally surfaces with a clean traceback.
    """

    def __init__(self, workers: int, max_retries: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.max_retries = max_retries

    def run(self, units: Sequence[WorkUnit]) -> Dict[ShardKey, List[UnitOutcome]]:
        results: Dict[ShardKey, List[UnitOutcome]] = {}
        pending = list(units)
        for _attempt in range(self.max_retries + 1):
            if not pending:
                break
            pending = self._round(pending, results)
        for unit in pending:  # last resort: always completes (or raises)
            results[unit.key] = execute_work_unit(unit, in_worker=False)
        return results

    def _round(
        self,
        units: List[WorkUnit],
        results: Dict[ShardKey, List[UnitOutcome]],
    ) -> List[WorkUnit]:
        """One pool generation; returns the units lost to a crash."""
        crashed: List[WorkUnit] = []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(units))) as pool:
            futures = [(unit, pool.submit(execute_work_unit, unit)) for unit in units]
            for unit, future in futures:
                try:
                    results[unit.key] = future.result()
                except BrokenProcessPool:
                    crashed.append(unit)
        return crashed


# ---------------------------------------------------------------------------
# Socket transport: length-prefixed pickle frames
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">Q")
#: Largest frame a peer may announce. Real frames (a shard of scheduled
#: circuits, or its results) stay far below this; a larger header is treated
#: as a torn frame instead of buffering until the peer hangs up.
MAX_FRAME_BYTES = 1 << 30


def _send_msg(sock: socket.socket, message: Dict) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_msg(sock: socket.socket) -> Optional[Dict]:
    """One framed message, or ``None`` on EOF / a torn or oversized frame."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        return None
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def parse_address(spec: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) -> ``(host, port)``."""
    text = str(spec).strip()
    if ":" in text:
        host, _, port = text.rpartition(":")
        host = host or default_host
    else:
        host, port = default_host, text
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid address {spec!r}; expected HOST:PORT") from None


class _ShardQueue:
    """The coordinator's work queue: checkout, result, and re-queue logic.

    One serving thread runs per worker connection; the strictly alternating
    ready/unit/result protocol means each connection has at most one shard
    in flight, and a connection that dies simply puts that shard back in
    the queue. Duplicate results (a shard drained inline while a slow
    worker raced on it) are harmless: the first one wins, and both are
    bit-identical by construction.
    """

    def __init__(self, units: Sequence[WorkUnit]):
        self.total = len(units)
        self.results: Dict[ShardKey, List[UnitOutcome]] = {}
        self._pending = deque(units)
        self._cond = threading.Condition()
        self._active = 0  # live worker connections
        self._inflight = 0  # shards handed out but not yet completed

    # -- queue state -----------------------------------------------------------

    @property
    def complete(self) -> bool:
        with self._cond:
            return len(self.results) == self.total

    def idle_and_unfinished(self) -> bool:
        """No live workers, nothing in flight, work still pending."""
        with self._cond:
            return (
                self._active == 0
                and self._inflight == 0
                and len(self.results) < self.total
            )

    def wait(self, timeout: float) -> bool:
        """Block until complete (or ``timeout`` elapses); returns complete."""
        with self._cond:
            if len(self.results) < self.total:
                self._cond.wait(timeout)
            return len(self.results) == self.total

    def steal(self) -> Optional[WorkUnit]:
        """Check a unit out for inline execution by the coordinator."""
        with self._cond:
            if not self._pending:
                return None
            self._inflight += 1
            return self._pending.popleft()

    def deposit(self, key: ShardKey, outcomes: List[UnitOutcome]) -> None:
        with self._cond:
            self._inflight -= 1
            self.results.setdefault(key, outcomes)
            self._cond.notify_all()

    def _requeue(self, unit: WorkUnit) -> None:
        with self._cond:
            self._inflight -= 1
            self._pending.append(unit)
            self._cond.notify_all()

    # -- one worker connection -------------------------------------------------

    def serve_connection(self, conn: socket.socket) -> None:
        with self._cond:
            self._active += 1
        inflight: Optional[WorkUnit] = None
        try:
            while True:
                message = _recv_msg(conn)
                if message is None:
                    break
                kind = message.get("type")
                if kind == "result":
                    if inflight is not None and message["key"] == inflight.key:
                        self.deposit(inflight.key, message["results"])
                        inflight = None
                elif kind == "ready":
                    if self.complete:
                        _send_msg(conn, {"type": "done"})
                        break
                    unit = self.steal()
                    if unit is not None:
                        inflight = unit
                        _send_msg(conn, {"type": "unit", "unit": unit})
                    else:
                        # Queue momentarily empty, but a re-queue may still
                        # happen: ask the worker to poll again shortly.
                        _send_msg(conn, {"type": "wait", "seconds": 0.05})
        except OSError:
            pass  # connection died; the re-queue below recovers the shard
        finally:
            with self._cond:
                self._active -= 1
                self._cond.notify_all()
            if inflight is not None:
                self._requeue(inflight)
            try:
                conn.close()
            except OSError:
                pass


def _worker_command(address: str, worker_args: Sequence[str]) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro.runtime.distributed",
        "worker",
        "--connect",
        address,
        *worker_args,
    ]


def _worker_env() -> Dict[str, str]:
    """Spawned workers must import ``repro`` exactly as the coordinator did."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[3])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


class SocketShardExecutor:
    """Serve the shard queue over TCP; spawn and/or adopt pulling workers.

    Args:
        spawn: local worker subprocesses to launch against the queue
            (each runs ``python -m repro.runtime.distributed worker
            --connect ...``).
        serve: ``"host:port"`` to bind the queue at (``None`` binds an
            ephemeral localhost port when ``spawn`` workers need one). Any
            host may join the run while it is live by connecting a worker
            to this address.
        connect: worker addresses the *coordinator* dials out to — the
            inverse topology, for workers running ``worker --listen`` on
            hosts that cannot reach the coordinator.
        worker_args: extra CLI arguments for spawned workers (used by the
            failure-injection tests).
        poll: coordinator wake-up interval while waiting for results.

    Liveness guarantee: when every connection is gone, nothing is in
    flight, and shards remain, the coordinator executes them inline — a
    run never hangs on dead workers. The only indefinitely-blocking shape
    is a pure ``serve`` with no spawned and no dialed workers, which is
    precisely "wait for a host to join".
    """

    def __init__(
        self,
        spawn: int = 0,
        serve: Optional[str] = None,
        connect: Sequence[str] = (),
        worker_args: Sequence[str] = (),
        poll: float = 0.05,
    ):
        if spawn < 0:
            raise ValueError("spawn must be >= 0")
        self.spawn = spawn
        self.serve = serve
        self.connect = tuple(connect)
        self.worker_args = tuple(worker_args)
        self.poll = poll

    def run(self, units: Sequence[WorkUnit]) -> Dict[ShardKey, List[UnitOutcome]]:
        queue = _ShardQueue(units)
        listener: Optional[socket.socket] = None
        threads: List[threading.Thread] = []
        procs: List[subprocess.Popen] = []
        stop = threading.Event()

        def track(target, *args) -> None:
            thread = threading.Thread(target=target, args=args, daemon=True)
            thread.start()
            threads.append(thread)

        try:
            if self.serve is not None or self.spawn:
                host, port = (
                    parse_address(self.serve)
                    if self.serve is not None
                    else ("127.0.0.1", 0)
                )
                listener = socket.create_server((host, port))
                listener.settimeout(0.1)
                bound = listener.getsockname()
                spawn_at = f"{'127.0.0.1' if bound[0] == '0.0.0.0' else bound[0]}:{bound[1]}"

                def accept_loop() -> None:
                    while not stop.is_set():
                        try:
                            conn, _addr = listener.accept()
                        except socket.timeout:
                            continue
                        except OSError:
                            return
                        track(queue.serve_connection, conn)

                track(accept_loop)
                for _ in range(self.spawn):
                    procs.append(
                        subprocess.Popen(
                            _worker_command(spawn_at, self.worker_args),
                            env=_worker_env(),
                        )
                    )
            for address in self.connect:
                conn = socket.create_connection(parse_address(address), timeout=30)
                # The 30s bound is for *connecting* only: left in place it
                # would also cap every recv, and a shard that simulates
                # longer than that would get its live worker treated as
                # vanished. Shards have no deadline — block indefinitely.
                conn.settimeout(None)
                track(queue.serve_connection, conn)

            while not queue.wait(self.poll):
                if queue.idle_and_unfinished() and not self._capacity_left(procs):
                    # Every worker is gone: finish the job ourselves.
                    while True:
                        unit = queue.steal()
                        if unit is None:
                            break
                        queue.deposit(
                            unit.key, execute_work_unit(unit, in_worker=False)
                        )
        finally:
            stop.set()
            if listener is not None:
                try:
                    listener.close()
                except OSError:
                    pass
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        return queue.results

    def _capacity_left(self, procs: List[subprocess.Popen]) -> bool:
        """Could a worker still show up without coordinator help?

        Spawned workers that have exited are never coming back; a pure
        ``serve`` queue, by contrast, is an open invitation — external
        workers may join at any time, so the coordinator keeps waiting.
        """
        if any(proc.poll() is None for proc in procs):
            return True
        return self.serve is not None and not procs and not self.connect


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class DistributedBackend(Backend):
    """Shard compiled plans across processes (and hosts) and merge results.

    The compile stage is untouched — plans come from the shared
    :func:`~repro.runtime.plan.compile_tasks` path like every other
    backend. Execution splits each plan's units into
    :class:`~repro.runtime.plan.PlanShard` blocks, ships them to an
    executor (``local`` process pool by default; the socket queue when
    ``serve``/``connect`` is set), and merges the partial results with the
    same associative aggregation the in-process backends use — after
    reordering them into realization order, which is what makes the output
    bit-for-bit identical to the ``inner`` backend run locally, for every
    (shard size × worker count × transport) combination and across worker
    crashes.

    Args:
        inner: backend that executes the shards inside each worker
            (default ``"vectorized"``; ``"trajectory"`` works identically).
        dist_workers: worker processes. ``None`` defers to
            ``configure(dist_workers=...)``, then to the ``workers``
            argument of the run.
        shard_size: realizations per shard. ``None`` auto-sizes to roughly
            :data:`SHARDS_PER_WORKER` shards per worker so re-queues and
            stragglers load-balance.
        serve: ``"host:port"`` queue address for the socket transport.
        connect: worker address(es) the coordinator should dial out to.

    Example:
        >>> run(tasks, device, backend="distributed", workers=4)  # doctest: +SKIP
        >>> configure(dist_serve="0.0.0.0:7777", dist_workers=2)  # doctest: +SKIP
    """

    name = "distributed"

    #: Auto shard sizing targets this many shards per worker: small enough
    #: to load-balance stragglers and cheap re-queues, large enough that
    #: per-shard transport overhead stays amortized.
    SHARDS_PER_WORKER = 4

    def __init__(
        self,
        inner: Optional[str] = None,
        dist_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        serve: Optional[str] = None,
        connect: Optional[Sequence[str]] = None,
    ):
        if inner == self.name:
            raise ValueError("distributed cannot be its own inner backend")
        if dist_workers is not None and dist_workers < 1:
            raise ValueError("dist_workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.inner = inner
        self.dist_workers = dist_workers
        self.shard_size = shard_size
        self.serve = serve
        self.connect = (
            [connect] if isinstance(connect, str) else list(connect or ())
        )
        #: Failure-injection hook (see :class:`WorkUnit`); tests only.
        self._crash_token: Optional[str] = None
        #: Extra CLI args for spawned socket workers; tests only.
        self._worker_args: Sequence[str] = ()

    # The ABC hooks delegate to the inner backend so a DistributedBackend
    # still works anywhere a plain Backend is expected; the real fan-out
    # lives in execute_plans.
    def _make_engine(self, scheduled, device, options):
        return self._inner_backend()._make_engine(scheduled, device, options)

    def _execute(self, engine, kind, payload, shots, seed, workers=1):
        return self._inner_backend()._execute(
            engine, kind, payload, shots, seed, workers=workers
        )

    def _inner_backend(self) -> Backend:
        from ..run import default_dist_inner

        return get_backend(self.inner or default_dist_inner())

    def _resolve(self, workers: int):
        """Fold instance args, configured defaults, and run args."""
        from ..run import (
            default_dist_connect,
            default_dist_serve,
            default_dist_shard_size,
            default_dist_workers,
        )

        count = self.dist_workers or default_dist_workers() or max(workers, 1)
        serve = self.serve if self.serve is not None else default_dist_serve()
        connect = self.connect or default_dist_connect()
        shard_size = self.shard_size or default_dist_shard_size()
        return count, serve, connect, shard_size

    def execute_plans(
        self,
        plans: Sequence[ExecutionPlan],
        options: Optional[SimOptions] = None,
        workers: int = 1,
    ) -> List[TaskResult]:
        """Shard the plans, execute them distributed, merge the results."""
        if options is None:
            options = plan_options(plans)
        options = options or SimOptions()
        inner = self._inner_backend()
        count, serve, connect, shard_size = self._resolve(workers)
        # Size from the units that will actually ship: collapsible plans
        # reduce to one unit for seed-insensitive inner backends.
        total_units = sum(
            1 if plan.collapsible and not inner.seed_sensitive else len(plan.units)
            for plan in plans
        )
        if shard_size is None:
            shard_size = max(
                1, -(-total_units // max(1, count * self.SHARDS_PER_WORKER))
            )
        shards = shard_plans(plans, shard_size, seed_sensitive=inner.seed_sensitive)
        units = [
            WorkUnit(
                shard=shard,
                inner=inner.name,
                options=options,
                crash_token=self._crash_token,
            )
            for shard in shards
        ]
        if serve is not None or connect:
            # Dial-out-only coordinators don't spawn local pullers: the
            # listening workers they connect to *are* the capacity.
            executor = SocketShardExecutor(
                spawn=count if serve is not None else 0,
                serve=serve,
                connect=connect,
                worker_args=self._worker_args,
            )
        else:
            executor = LocalShardExecutor(count)
        outcomes = executor.run(units)

        # Reassemble in realization order before aggregating: shards are
        # already sorted by (plan_index, shard_index), so a plain ordered
        # walk reproduces exactly the unit order local execution uses.
        per_plan: List[List[UnitOutcome]] = [[] for _ in plans]
        for shard in shards:
            key = (shard.plan_index, shard.shard_index)
            per_plan[shard.plan_index].extend(outcomes[key])
        return [
            self._aggregate(plan.task, results, plan.direct)
            for plan, results in zip(plans, per_plan)
        ]


# ---------------------------------------------------------------------------
# Worker CLI: python -m repro.runtime.distributed worker ...
# ---------------------------------------------------------------------------


def _worker_loop(sock: socket.socket, max_units: Optional[int] = None) -> bool:
    """Pull-and-execute until the coordinator says done; True on clean end.

    ``max_units`` is the failure-injection hook: the worker hard-exits
    (``os._exit``, no goodbye frame) right after *receiving* its Nth unit,
    so the coordinator sees a vanished connection with a shard in flight —
    exactly what a crash, OOM kill, or pulled cable looks like.
    """
    received = 0
    _send_msg(sock, {"type": "ready"})
    while True:
        message = _recv_msg(sock)
        if message is None:
            return False
        kind = message.get("type")
        if kind == "done":
            return True
        if kind == "wait":
            time.sleep(message.get("seconds", 0.05))
            _send_msg(sock, {"type": "ready"})
            continue
        if kind != "unit":
            continue
        received += 1
        if max_units is not None and received > max_units:
            os._exit(23)
        unit: WorkUnit = message["unit"]
        outcomes = execute_work_unit(unit)
        _send_msg(sock, {"type": "result", "key": unit.key, "results": outcomes})
        _send_msg(sock, {"type": "ready"})


def _run_worker(args: argparse.Namespace) -> int:
    if (args.connect is None) == (args.listen is None):
        print("worker: give exactly one of --connect or --listen", file=sys.stderr)
        return 2
    if args.connect is not None:
        try:
            sock = socket.create_connection(parse_address(args.connect), timeout=30)
        except OSError as exc:
            print(f"worker: cannot reach {args.connect}: {exc}", file=sys.stderr)
            return 1
        sock.settimeout(None)  # connect deadline only; waits have no bound
        try:
            _worker_loop(sock, max_units=args.max_units)
        finally:
            sock.close()
        return 0
    listener = socket.create_server(parse_address(args.listen, "0.0.0.0"))
    print(f"worker listening on {listener.getsockname()}", flush=True)
    try:
        while True:
            conn, _addr = listener.accept()
            try:
                _worker_loop(conn, max_units=args.max_units)
            finally:
                conn.close()
            if args.once:
                return 0
    finally:
        listener.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.distributed",
        description="Join (or offer capacity to) a distributed run.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    worker = commands.add_parser(
        "worker",
        help="pull and execute plan shards from a running coordinator",
        description=(
            "Execute plan shards for a coordinator. --connect dials a "
            "coordinator started with --dist-serve; --listen waits for a "
            "coordinator configured with --dist-connect to dial in."
        ),
    )
    worker.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="coordinator queue address to pull shards from",
    )
    worker.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="bind here and serve coordinators that dial in (--dist-connect)",
    )
    worker.add_argument(
        "--once",
        action="store_true",
        help="with --listen: exit after serving one coordinator",
    )
    worker.add_argument(
        "--max-units",
        type=int,
        default=None,
        metavar="N",
        help="exit abruptly after receiving N shards (failure-injection "
        "hook used by the recovery tests)",
    )
    args = parser.parse_args(argv)
    if args.command == "worker":
        return _run_worker(args)
    return 2

