"""Machine-speed probe: how fast this VM runs Python at the moment.

The benchmark shares a few cores of a busy host, whose speed drifts by
a third over minutes. Every CPU-bound figure drifts with it: a run's
client, which does the same work per operation in every run, spent
0.44 ms per operation in one run and 0.58 ms in a run a few minutes
later. The probe measures that drift so the timing metrics can be
reported at one reference speed (see README.md, "Speed normalisation").

Run as a script, the probe repeats a fixed task every 100 ms and prints
one line per task, ``<monotonic seconds> <thread CPU seconds>``. The
task mixes what the bank spends its time on, so it slows down with the
bank: canonical JSON, SHA-256, 1024-bit modular exponentiation and dict
building. It takes about 3.6 ms, under 4% of one core.

The task must never change: a different task changes the reference
speed, and figures taken before and after could not be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = ["REFERENCE_MS", "SpeedProbe"]

# the task's median time on the 2-vCPU VM the bounds were set on, idle
REFERENCE_MS = 3.6
_PERIOD = 0.1


def _task_inputs():
    rng = random.Random(1)
    doc = {
        f"k{i}": {"a": i, "b": str(i) * 3, "c": [i, i + 1, i + 2], "d": rng.random()}
        for i in range(60)
    }
    modulus = rng.getrandbits(1024) | 1 | (1 << 1023)
    base, exponent = rng.getrandbits(1000), rng.getrandbits(160)
    blob = bytes(rng.getrandbits(8) for _ in range(4096))
    return doc, modulus, base, exponent, blob


def _task(doc, modulus, base, exponent, blob) -> dict:
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    for _ in range(4):
        pow(base, exponent, modulus)
    built = {key + digest[:4]: [x * 2 for x in value["c"]] for key, value in back.items()}
    hashlib.sha256(blob).digest()
    return built


def _probe_loop() -> None:
    inputs = _task_inputs()
    while True:
        started = time.thread_time()
        _task(*inputs)
        spent = time.thread_time() - started
        sys.stdout.write(f"{time.monotonic():.4f} {spent:.6f}\n")
        sys.stdout.flush()
        time.sleep(_PERIOD)


class SpeedProbe:
    """The probe running in its own process while the benchmark runs."""

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self._proc.stdout:
            at, spent = line.split()
            self._samples.append((float(at), float(spent)))

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the VM ran between the
        monotonic times *start* and *end*: the median task time over
        :data:`REFERENCE_MS`."""
        spent = [s for at, s in list(self._samples) if start <= at <= end]
        if not spent:
            raise RuntimeError("the speed probe took no sample in the interval")
        return 1000.0 * statistics.median(spent) / REFERENCE_MS

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._reader.join(timeout=10)
        self._proc.stdout.close()


if __name__ == "__main__":
    try:
        _probe_loop()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
