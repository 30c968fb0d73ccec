#!/usr/bin/env python3
"""GridBank benchmark: served-bank workloads, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pay_replicated --seed 1 --seconds 30 --trace 0

Workloads (see README.md beside this file for why each was chosen):
``pay_direct``, ``pay_replicated``, ``cross_shard``, ``statements``.

The banks run as separate ``gridbank serve`` processes on loopback with
the default serve flags; the load is this process, two client threads
with one connection each, in a closed loop. A run sets the deployment up,
warms it, then measures a fixed number of operations sized to last about
``--seconds`` at the rates in :data:`WORKLOADS`, and checks the results.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs the
same measured window, on banks without any wrapper, and then sets up a
second deployment from the same seed whose banks and client have every
layer's public functions wrapped. It traces a window of half the length
there and prints the per-layer table. The last line of standard output
is one JSON object: ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "cli.py").is_file():
    sys.stderr.write(f"perfbench: no GridBank sources under {ROOT / 'src'}; "
                     "run from the root of a full checkout\n")
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.errors import ReproError  # noqa: E402
from repro.net.rpc import RPCClient  # noqa: E402
from repro.net.tcp import TCPClientConnection  # noqa: E402
from repro.util.money import Credits  # noqa: E402

from perfbench import deploy, load, tracer as layer_tracer  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.spans import percentile  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402


class Workload(NamedTuple):
    topology: str  # "single", "replicated" or "sharded"
    rate: float  # ops/s at the reference speed (speed.py); sizes the fixed work
    ledger: int  # transfers written as history during set-up


# BENCHMARK.json runs pay_replicated and cross_shard; README.md says why
WORKLOADS = {
    "pay_direct": Workload("single", 265.0, 0),
    "pay_replicated": Workload("replicated", 215.0, 0),
    "cross_shard": Workload("sharded", 250.0, 0),
    "statements": Workload("single", 185.0, 20_000),
}

CONSUMERS = 1_000
PROVIDERS = 8
REPLY_CAP = 10_000  # ReplyCache default max_entries
SPAN_CAP = 50_000  # SpanStore default max_rows
WARMUP_OPS = 150  # per client thread, untimed
TRACED_SHARE = 0.5  # traced window length relative to the measured one


def _rpc(address: str, credential) -> RPCClient:
    host, _, port = address.partition(":")
    client = RPCClient(TCPClientConnection((host, int(port))), *credential)
    client.connect()
    return client


class Deployment:
    """The bank processes of one workload, set up from the seed."""

    def __init__(self, workload: Workload, seed: int, work: Path, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.trace = trace
        self.ledger = deploy.Ledger()
        self.primaries: list[deploy.BankProcess] = []
        self.standby: deploy.BankProcess | None = None
        self.clients: list[tuple] = []  # (api, connection) per load thread

    @property
    def banks(self) -> list:
        return self.primaries + ([self.standby] if self.standby else [])

    def start(self) -> None:
        work, seed = self.work, self.seed
        topology = self.workload.topology
        first = work / "bank-1"
        deploy.init_home(first, seed)
        self.credential = deploy.bank_credential(first)
        if topology == "sharded":
            second = work / "bank-2"
            shutil.copytree(first, second)  # one bank identity, two shards
            ports = deploy.free_ports(4)
            addresses = {"s1": f"127.0.0.1:{ports[0]}", "s2": f"127.0.0.1:{ports[2]}"}
            shard_map = deploy.two_range_map(addresses)
            map_file = work / "shard-map.json"
            map_file.write_bytes(shard_map.to_json())
            for i, (sid, home) in enumerate((("s1", first), ("s2", second))):
                deploy.populate(home, self.ledger, sid, CONSUMERS // 2, PROVIDERS // 2,
                                seed + i, shard_map=shard_map)
            for i, (sid, home) in enumerate((("s1", first), ("s2", second))):
                self.primaries.append(deploy.BankProcess(
                    sid, home, ["--shard-id", sid, "--shard-map", str(map_file)],
                    work, self.trace, ports=ports[2 * i: 2 * i + 2],
                ))
        else:
            deploy.populate(first, self.ledger, "bank", CONSUMERS, PROVIDERS, seed,
                            transfers=self.workload.ledger)
            self.primaries.append(deploy.BankProcess("bank-1", first, [], work, self.trace))
        for bank in self.primaries:
            bank.expect("listening on")
        if topology == "replicated":
            standby_home = work / "standby"
            deploy.init_standby(standby_home, first)
            self.standby = deploy.BankProcess(
                "standby", standby_home, ["--standby-of", self.primaries[0].address],
                work, self.trace,
            )
            self.standby.expect("listening on")
            self.wait_replicated()
        for bank in self.primaries:
            bank.send(f"prefill {seed} {REPLY_CAP} {SPAN_CAP} {deploy.CONSUMER}")
        for bank in self.primaries:
            bank.expect("prefilled", timeout=150)
        if self.standby is not None:
            self.wait_replicated()
        identity = deploy.issue_identity(first, "consumer")
        for t in range(2):
            bank = self.primaries[t % len(self.primaries)]
            self.clients.append(load.connect(bank.address, *identity, seed=seed * 10 + t))

    def _position(self, bank) -> tuple:
        client = _rpc(bank.address, self.credential)
        try:
            status = client.call("Replication.Status")
        finally:
            client.close()
        return status["epoch"], status["seq"]

    def wait_replicated(self, timeout: float = 120.0) -> None:
        """Block until the standby has applied everything the primary wrote."""
        deadline = time.monotonic() + timeout
        while True:
            if self._position(self.standby) == self._position(self.primaries[0]):
                return
            if time.monotonic() > deadline:
                raise RuntimeError("standby did not catch up with the primary")
            time.sleep(0.1)

    def stop(self) -> None:
        for api, _ in self.clients:
            try:
                api.close()
            except (ReproError, OSError):
                pass
        for bank in self.banks:
            bank.stop()


def _read_balances(apis: list, accounts: list[list[str]]) -> dict:
    """Available balances of *accounts[i]* read through *apis[i]*, in parallel."""
    found: dict = {}
    errors: list = []

    def read(api, subset):
        try:
            for account in subset:
                found[account] = Credits(api.account_details(account)["AvailableBalance"])
        except ReproError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=read, args=pair) for pair in zip(apis, accounts)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    return found


def _reachable(diff: Credits, amounts: list) -> bool:
    """Whether *diff* is the sum of some subset of *amounts*."""
    if len(amounts) > 16:  # too many subsets to list: bound it instead
        low = sum((a for a in amounts if a < 0), Credits(0))
        high = sum((a for a in amounts if a > 0), Credits(0))
        return low <= diff <= high
    sums = {Credits(0)}
    for amount in amounts:
        sums |= {s + amount for s in sums}
    return diff in sums


def check_end_state(dep: Deployment, results: list) -> list[str]:
    """End-of-run correctness checks; returns the violations found."""
    problems = [v for r in results for v in r.violations]
    ledger = dep.ledger
    expected = dict(ledger.balance)
    for r in results:
        for drawer, recipient, amount in r.confirmed:
            expected[drawer] = expected[drawer] - amount
            expected[recipient] = expected[recipient] + amount
    if dep.workload.topology == "sharded":
        owned = Credits(0)
        for bank in dep.primaries:  # no intent may be left prepared
            deadline = time.monotonic() + 20
            while True:
                client = _rpc(bank.address, dep.credential)
                try:
                    status = client.call("Shard.Status")
                finally:
                    client.close()
                if status["prepared_intents"] == 0 or time.monotonic() > deadline:
                    break
                time.sleep(0.5)
            if status["prepared_intents"]:
                problems.append(f"{bank.name}: {status['prepared_intents']} intents left prepared")
            owned = owned + Credits(status["owned_funds"])
        if owned != ledger.deposited:
            problems.append(f"shards own {owned}, {ledger.deposited} was deposited")
        split = [ledger.consumers["s1"] + ledger.providers["s1"],
                 ledger.consumers["s2"] + ledger.providers["s2"]]
    else:
        every = sorted(expected)
        split = [every[0::2], every[1::2]]
    auditor = deploy.issue_identity(dep.primaries[0].home, "auditor")

    def read(banks: list) -> dict:
        apis = [load.connect(bank.address, *auditor, seed=dep.seed * 10 + 5 + t)[0]
                for t, bank in enumerate(banks)]
        try:
            return _read_balances(apis, split)
        finally:
            for api in apis:
                api.close()

    balances = read(dep.primaries if len(dep.primaries) == 2 else dep.primaries * 2)
    if sum(balances.values(), Credits(0)) != ledger.deposited:
        problems.append(f"funds not conserved: {sum(balances.values(), Credits(0))} "
                        f"on the books, {ledger.deposited} deposited")
    # a transfer that answered with an error may or may not have moved
    # its funds; each account may differ by any subset of those amounts
    open_deltas: dict[str, list] = {}
    for r in results:
        for drawer, recipient, amount in r.unconfirmed:
            open_deltas.setdefault(drawer, []).append(-amount)
            open_deltas.setdefault(recipient, []).append(amount)
    wrong = [a for a in expected
             if balances.get(a) is None
             or not _reachable(balances[a] - expected[a], open_deltas.get(a, []))]
    if wrong:
        problems.append(f"{len(wrong)} balances differ from the confirmed transfers, "
                        f"e.g. {wrong[0]}: {balances.get(wrong[0])} != {expected[wrong[0]]}")
    if dep.standby is not None:
        dep.wait_replicated()
        replica = read([dep.standby, dep.standby])
        if replica != balances:
            differ = sum(1 for a in balances if replica.get(a) != balances[a])
            problems.append(f"standby differs from the primary on {differ} balances")
    return problems


class Window(NamedTuple):
    seconds: float
    results: list  # PhaseResult per load thread
    server_cpu: float
    client_cpu: float
    wal_bytes: int
    wire_bytes: int
    scrape_before: list
    scrape_after: list
    monotonic: tuple = (0.0, 0.0)  # the window's start and end
    slowdown: float = 1.0  # the VM's speed during it, from speed.py


def run_window(dep: Deployment, phases_per_thread: list, client_tracer, on_warm) -> tuple:
    """Run the load threads through the warm-up, whose end *on_warm* is
    told of, and then the window; returns the window's :class:`Window` and
    every thread's results of both phases. With *client_tracer* the banks
    and this client record layer spans during the window."""
    barrier = threading.Barrier(3)
    threads = [
        load.LoadThread(api, conn, dep.ledger, phases, barrier)
        for (api, conn), phases in zip(dep.clients, phases_per_thread)
    ]
    for thread in threads:
        thread.start()
    try:
        window = _window(dep, threads, barrier, client_tracer, on_warm)
    except threading.BrokenBarrierError:
        for thread in threads:
            thread.join(timeout=60)
            if thread.error is not None:
                raise thread.error from None
        raise
    for thread in threads:
        thread.join(timeout=60)
        if thread.error is not None:
            raise thread.error
    return window, [r for t in threads for r in t.results]


def _set_trace(dep: Deployment, client_tracer, on: bool) -> None:
    word = "on" if on else "off"
    for bank in dep.banks:
        bank.send(f"trace {word}")
    for bank in dep.banks:
        bank.expect(f"trace {word}")
    client_tracer.on = on


def _window(dep, threads, barrier, client_tracer, on_warm) -> Window:
    barrier.wait()  # warm-up
    barrier.wait()
    on_warm()
    scrape_before = [bank.scrape() for bank in dep.banks]
    if client_tracer is not None:
        _set_trace(dep, client_tracer, True)
    cpu0 = sum(bank.cpu_seconds() for bank in dep.banks)
    wal0 = sum(bank.wal_bytes() for bank in dep.banks)
    wire0 = sum(conn.bytes for _, conn in dep.clients)
    client0 = time.process_time()
    barrier.wait()
    started = time.monotonic()
    barrier.wait()
    ended = time.monotonic()
    client1 = time.process_time()
    wire1 = sum(conn.bytes for _, conn in dep.clients)
    wal1 = sum(bank.wal_bytes() for bank in dep.banks)
    cpu1 = sum(bank.cpu_seconds() for bank in dep.banks)
    if client_tracer is not None:
        _set_trace(dep, client_tracer, False)
    return Window(
        ended - started, [t.results[1] for t in threads], cpu1 - cpu0, client1 - client0,
        wal1 - wal0, wire1 - wire0, scrape_before, [bank.scrape() for bank in dep.banks],
        (started, ended),
    )


def _by_kind(window: Window) -> dict[str, list]:
    """The window's latencies by operation kind."""
    by_kind: dict[str, list] = {}
    for r in window.results:
        for kind, values in r.latencies.items():
            by_kind.setdefault(kind, []).extend(values)
    return by_kind


def end_to_end(window: Window, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics as measured, before speed normalisation."""
    ops = sum(r.attempted for r in window.results)
    failed = sum(sum(r.failures.values()) for r in window.results)
    rescued = sum(r.rescued for r in window.results)
    by_kind = _by_kind(window)
    every = [v for values in by_kind.values() for v in values]

    def ms(values, q):
        return 1000.0 * percentile(values, q)

    # a workload without cross-shard transfers reports over all its operations
    cross = by_kind.get(load.XPAY) or every
    return {
        "ops_per_s": (ops / window.seconds, "1/s"),
        "p50_ms": (ms(every, 0.50), "ms"),
        "p99_ms": (ms(every, 0.99), "ms"),
        "p50_ms.cross_shard": (ms(cross, 0.50), "ms"),
        "p99_ms.cross_shard": (ms(cross, 0.99), "ms"),
        "first_try_success_frac": (1.0 - (failed + rescued) / ops, "frac"),
        "server_cpu_ms_per_op": (1000.0 * window.server_cpu / ops, "ms"),
        "client_cpu_ms_per_op": (1000.0 * window.client_cpu / ops, "ms"),
        "wal_bytes_per_op": (window.wal_bytes / ops, "B"),
        "wire_bytes_per_op": (window.wire_bytes / ops, "B"),
        "server_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


# timing metrics, which scale with the VM's speed (see speed.py)
_SLOWER_ON_A_SLOW_VM = ("p50_ms", "p99_ms", "p50_ms.cross_shard", "p99_ms.cross_shard",
                        "server_cpu_ms_per_op", "client_cpu_ms_per_op")


def at_reference_speed(raw: dict, window_slowdown: float, setup_slowdown: float) -> dict:
    """*raw* end-to-end metrics as the reference-speed VM would show them."""
    metrics = dict(raw)
    value, unit = raw["ops_per_s"]
    metrics["ops_per_s"] = (value * window_slowdown, unit)
    for key in _SLOWER_ON_A_SLOW_VM:
        value, unit = raw[key]
        metrics[key] = (value / window_slowdown, unit)
    value, unit = raw["setup_s"]
    metrics["setup_s"] = (value / setup_slowdown, unit)
    return metrics


def _draw(name: str, ledger, per_thread: int, seed: int) -> list:
    """Per load thread: the warm-up and the window, drawn from the seed."""
    rng = random.Random(seed)
    return [[load.draw_ops(name, ledger, t, n, rng) for n in (WARMUP_OPS, per_thread)]
            for t in range(2)]


class Measured(NamedTuple):
    dep: Deployment
    window: Window
    setup_s: float
    rss_mb: float
    problems: list  # end-of-run check violations
    setup_slowdown: float  # the VM's speed during set-up, from speed.py


def measure(name: str, seed: int, work: Path, per_thread: int, probe: SpeedProbe,
            client_tracer=None) -> Measured:
    """Set a deployment up in *work*, warm it, run one window of
    *per_thread* operations per load thread and check the end state.
    With *client_tracer*, the banks run with the layer wrappers and the
    window is traced."""
    work.mkdir(parents=True)
    setup: list[float] = []
    started = time.monotonic()
    dep = Deployment(WORKLOADS[name], seed, work, trace=client_tracer is not None)
    try:
        dep.start()
        window, results = run_window(
            dep, _draw(name, dep.ledger, per_thread, seed), client_tracer,
            on_warm=lambda: setup.append(time.monotonic()),
        )
        window = window._replace(slowdown=probe.slowdown(*window.monotonic))
        rss_mb = sum(bank.peak_rss_mb() for bank in dep.banks)
        problems = check_end_state(dep, results)
    finally:
        dep.stop()
    return Measured(dep, window, setup[0] - started, rss_mb, problems,
                    probe.slowdown(started, setup[0]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    per_thread = max(1, round(args.seconds * WORKLOADS[args.workload].rate / 2))
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    probe = SpeedProbe()
    try:
        # the measured window runs on banks without any layer wrapper
        runs = [measure(args.workload, args.seed, work / "measured", per_thread, probe)]
        table: list[str] = []
        if args.trace:
            client_tracer = layer_tracer.Tracer()
            layer_tracer.install(client_tracer, layer_tracer.CLIENT_LAYERS, server=False)
            runs.append(measure(args.workload, args.seed, work / "traced",
                                max(1, round(per_thread * TRACED_SHARE)), probe, client_tracer))
            metrics, table = layer_metrics(runs[1].dep, runs[0].window, runs[1].window,
                                           client_tracer.spans)
        else:
            raw = end_to_end(runs[0].window, runs[0].setup_s, runs[0].rss_mb)
            metrics = at_reference_speed(raw, runs[0].window.slowdown, runs[0].setup_slowdown)
            table = ["  as measured, before speed normalisation: "
                     + ", ".join(f"{k} {raw[k][0]:.4f}" for k in metrics if raw[k] != metrics[k])]
        problems = [p for r in runs for p in r.problems]
        failures = Counter()
        for r in runs[0].window.results:
            failures.update(r.failures)
        attempted = sum(r.attempted for r in runs[0].window.results)
        _report(args, runs, metrics, problems)
        for line in table:
            print(line)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": sum(failures.values()),
            "metrics": {} if problems else
            {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 1 if problems else 0
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)


def _report(args, runs: list, metrics: dict, problems: list) -> None:
    print(f"workload {args.workload} seed {args.seed}")
    for label, run in zip(("measured", "traced"), runs):
        by_kind = _by_kind(run.window)
        failures, retried = Counter(), Counter()
        for r in run.window.results:
            failures.update(r.failures)
            retried.update(r.retried)
        print(f"  {label} window: {sum(map(len, by_kind.values()))} ops in "
              f"{run.window.seconds:.2f}s ({_listed({k: len(v) for k, v in by_kind.items()})}), "
              f"set-up {run.setup_s:.2f}s; VM slowdown against the reference: "
              f"set-up {run.setup_slowdown:.3f}, window {run.window.slowdown:.3f}")
        print("    latency p50/p99 ms: " + ", ".join(
            f"{kind} {1000 * percentile(v, 0.5):.2f}/{1000 * percentile(v, 0.99):.2f}"
            for kind, v in sorted(by_kind.items())))
        print(f"    failed: {sum(failures.values())} ({_listed(failures)}); "
              f"retried after: {_listed(retried)} "
              f"({sum(r.rescued for r in run.window.results)} ops succeeded after a retry)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.4f} {unit}")


def _listed(counts: dict) -> str:
    return ", ".join(f"{k}={n}" for k, n in sorted(counts.items())) or "none"


if __name__ == "__main__":
    sys.exit(main())
