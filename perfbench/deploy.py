"""Set-up of a benchmark deployment: bank homes, identities, bank processes.

Everything here runs the program the way it is deployed: homes are made
with ``gridbank init`` (default 1024-bit keys, seeded), user credentials
with ``gridbank issue-identity``, accounts and the set-up ledger are
written through the bank's own account layer before the bank serves, and
each bank runs as its own ``gridbank serve`` process on loopback (see
:mod:`perfbench.bankproc`). Readings of those processes
are taken from outside them: ``/proc``, WAL file sizes and the
``--metrics-port`` scrape.
"""

from __future__ import annotations

import http.client
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from repro.bank.shard import RING_SIZE, ShardMap
from repro.cli import _bank_credential as bank_credential, _load_bank
from repro.cli import _load_credential as load_credential
from repro.pki.ca import Identity
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.money import Credits

__all__ = [
    "AUDITOR",
    "CONSUMER",
    "PROVIDER",
    "BankProcess",
    "Ledger",
    "bank_credential",
    "free_ports",
    "init_home",
    "init_standby",
    "issue_identity",
    "populate",
    "two_range_map",
]

CONSUMER = str(DistinguishedName("VO-Bench", "consumer"))
PROVIDER = str(DistinguishedName("VO-Bench", "provider"))
# a bank administrator (sec 5.2.1) that the end-of-run checks read as
AUDITOR = str(DistinguishedName("VO-Bench", "auditor"))
DEPOSIT = Credits(1_000)

_HERE = Path(__file__).resolve().parent
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_ports(count: int) -> list[int]:
    """*count* distinct loopback ports that were free a moment ago."""
    sockets = []
    try:
        for _ in range(count):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            sockets.append(s)
        return [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()


def _env() -> dict:
    env = dict(os.environ)
    src = str(_HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # str hashes pick the account lock stripes; an unsalted hash gives
    # every run the same stripe for the same account
    env["PYTHONHASHSEED"] = "0"
    return env


def init_home(home: Path, seed: int) -> None:
    """``gridbank init`` with its default key size and a seeded CA."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "init", "--home", str(home), "--seed", str(seed)],
        check=True, env=_env(), stdout=subprocess.DEVNULL,
    )


def init_standby(home: Path, primary_home: Path) -> None:
    """``gridbank init-standby``: a second home sharing the bank's identity."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "init-standby", "--home", str(home),
         "--primary-home", str(primary_home)],
        check=True, env=_env(), stdout=subprocess.DEVNULL,
    )


def issue_identity(home: Path, name: str) -> tuple[Identity, CertificateStore]:
    """``gridbank issue-identity``: a user credential signed by the home's
    CA (default 1024-bit key), written beside the home and loaded back."""
    out = home.parent / f"{name}.credential.gbk"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "issue-identity", "--home", str(home),
         "--organization", "VO-Bench", "--name", name, "--out", str(out)],
        check=True, env=_env(), stdout=subprocess.DEVNULL,
    )
    return load_credential(str(out))


def two_range_map(addresses: dict[str, str]) -> ShardMap:
    """Shard ``s1`` owns the lower half of the hash ring, ``s2`` the upper."""
    return ShardMap(
        1,
        {sid: (addr,) for sid, addr in addresses.items()},
        [(0, RING_SIZE // 2, "s1"), (RING_SIZE // 2, RING_SIZE, "s2")],
    )


class Ledger:
    """What the set-up wrote: accounts, deposits and set-up transfers, kept
    so the end-of-run checks can compare the bank's answers with it."""

    def __init__(self) -> None:
        self.consumers: dict[str, list[str]] = {}  # shard id -> accounts
        self.providers: dict[str, list[str]] = {}
        self.balance: dict[str, Credits] = {}
        # account -> {TransactionID: signed amount} of set-up transfers
        self.transfers: dict[str, dict[int, Credits]] = {}

    @property
    def deposited(self) -> Credits:
        return DEPOSIT * sum(len(v) for v in self.consumers.values())

    def all_consumers(self) -> list[str]:
        return [a for accounts in self.consumers.values() for a in accounts]

    def all_providers(self) -> list[str]:
        return [a for accounts in self.providers.values() for a in accounts]


def populate(
    home: Path,
    ledger: Ledger,
    shard_id: str,
    consumers: int,
    providers: int,
    seed: int,
    transfers: int = 0,
    shard_map: Optional[ShardMap] = None,
) -> None:
    """Open and fund accounts in a stopped bank home; optionally write
    *transfers* seeded consumer-to-consumer transfers as history."""
    bank = _load_bank(home)
    try:
        if shard_map is not None:
            bank.accounts.id_filter = lambda aid: shard_map.shard_for(aid) == shard_id
        with bank.db.transaction():
            bank.admin.add_administrator(AUDITOR)
            mine = [bank.accounts.create_account(CONSUMER) for _ in range(consumers)]
            theirs = [bank.accounts.create_account(PROVIDER) for _ in range(providers)]
            for account in mine:
                bank.admin.deposit(account, DEPOSIT)
        ledger.consumers[shard_id] = mine
        ledger.providers[shard_id] = theirs
        for account in mine + theirs:
            ledger.transfers[account] = {}
            ledger.balance[account] = Credits(0)
        for account in mine:
            ledger.balance[account] = DEPOSIT
        rng = random.Random(seed)
        batch = 500
        for start in range(0, transfers, batch):
            with bank.db.transaction():
                for _ in range(min(batch, transfers - start)):
                    drawer, recipient = rng.sample(mine, 2)
                    amount = Credits.from_micro(rng.randrange(10_000, 1_000_000))
                    txn = bank.accounts.transfer(drawer, recipient, amount)
                    ledger.transfers[drawer][txn] = -amount
                    ledger.transfers[recipient][txn] = amount
                    ledger.balance[drawer] = ledger.balance[drawer] - amount
                    ledger.balance[recipient] = ledger.balance[recipient] + amount
    finally:
        bank.db.close()


class BankProcess:
    """One ``gridbank serve`` process started through the launcher."""

    def __init__(
        self,
        name: str,
        home: Path,
        serve_flags: list[str],
        work: Path,
        trace: bool = False,
        ports: Optional[list[int]] = None,
    ) -> None:
        self.name = name
        self.home = home
        self.port, self.metrics_port = ports or free_ports(2)
        self.address = f"127.0.0.1:{self.port}"
        self.trace_file = work / f"{name}.spans.json" if trace else None
        argv = [sys.executable, "-u", str(_HERE / "bankproc.py")]
        if self.trace_file is not None:
            argv += ["--trace-out", str(self.trace_file)]
        argv += [
            "--", "serve", "--home", str(home),
            "--port", str(self.port), "--metrics-port", str(self.metrics_port),
        ] + serve_flags
        self._log = open(work / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=_env(), cwd=str(work),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        self._lines.put(None)

    def expect(self, needle: str, timeout: float = 60.0) -> str:
        """Block until the process prints a line containing *needle*."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"{self.name}: no {needle!r} within {timeout:g}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(f"{self.name}: exited before printing {needle!r}")
            if needle in line:
                return line

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def cpu_seconds(self) -> float:
        """user + system CPU of the bank process, all threads."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def wal_bytes(self) -> int:
        wal = self.home / "db" / "wal.gbdb"
        return wal.stat().st_size if wal.exists() else 0

    def scrape(self) -> dict[str, float]:
        """The ``--metrics-port`` exposition, as ``{series: value}``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.metrics_port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        series = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                series[name] = float(value)
            except ValueError:
                continue
        return series

    def stop(self, timeout: float = 60.0) -> None:
        """Stop serving and wait for the process to end."""
        if self.proc.poll() is None:
            try:
                self.send("stop")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()

