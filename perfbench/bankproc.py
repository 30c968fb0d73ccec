"""Bank process launcher: ``gridbank serve`` plus a control channel.

Usage (one bank process; the benchmark starts it, never a person)::

    python3 perfbench/bankproc.py [--trace-out FILE] -- serve --home H ...

It runs ``repro.cli.main([...])`` unchanged in the main thread, so the
bank serves exactly as ``gridbank serve`` with those flags. A control
thread reads one command per line on stdin and answers on stdout:

``prefill SEED REPLIES SPANS``
    Fill the reply cache and the span store up to their row caps through
    the public ``ReplyCache.store`` and ``SpanStore`` calls, so the
    measured window starts with eviction already running. Prints
    ``prefilled``.
``trace on`` / ``trace off``
    Start or stop recording layer spans (only with ``--trace-out``).
``stop``
    Stop serving, as Ctrl-C would. End of input does the same, so the
    bank never outlives the benchmark that started it.

With ``--trace-out`` the layer wrappers of :mod:`perfbench.tracer` are
installed before the bank is built, and the recorded spans are written
to FILE as JSON when serving stops.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import threading
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE.parent)]

from perfbench import tracer as layer_tracer  # noqa: E402

# the realistic shape of the two row kinds being prefilled: a direct-
# transfer reply and the dispatch / bank-op spans one request leaves
_SPAN_NAMES = ("rpc.server.dispatch", "bank.op.direct_transfer")


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def prefill(bank, seed: int, replies: int, spans: int, subject: str) -> None:
    from repro.crypto.signature import Signed
    from repro.util.money import Credits

    rng = random.Random(seed)
    # one real signature serves as the template; the rows are never
    # replayed, only counted against the cap and evicted in order
    template = Signed.make(
        bank.identity.private_key,
        {"confirmation": "DirectTransfer", "transaction_id": 0},
        signer=bank.subject,
    ).to_dict()
    for i in range(replies):
        # one reply per transaction, as each served operation commits its own
        payload = {
            "confirmation": "DirectTransfer",
            "transaction_id": i + 1,
            "drawer_account": f"01-0001-{rng.randrange(10**8):08d}",
            "recipient_account": f"01-0001-{rng.randrange(10**8):08d}",
            "amount": Credits.from_micro(rng.randrange(10_000, 1_000_000)),
            "recipient_address": "",
            "committed_at": 1.0e9 + i,
        }
        with bank.db.transaction():
            bank.replies.store(
                f"prefill-{seed}:{i}", subject, "RequestDirectTransfer",
                {"confirmation": dict(template, payload=payload)},
            )
    for i in range(spans):
        bank.spans(
            {
                "trace_id": f"{rng.getrandbits(128):032x}",
                "span_id": f"{rng.getrandbits(64):016x}",
                "parent_id": f"{rng.getrandbits(64):016x}" if i % 2 else "",
                "name": _SPAN_NAMES[i % 2],
                "kind": "server" if i % 2 == 0 else "bank",
                "status": "ok",
                "start_epoch": 1.0e9 + i * 1e-3,
                "duration_seconds": rng.uniform(1e-3, 5e-3),
                "attrs": {
                    "method": "RequestDirectTransfer",
                    "subject": subject,
                    "backend": "threads",
                },
                "events": [],
            }
        )


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.stderr.write("usage: bankproc.py [--trace-out FILE] -- serve ...\n")
        return 2
    split = argv.index("--")
    own, serve_argv = argv[:split], argv[split + 1:]
    trace_out = own[own.index("--trace-out") + 1] if "--trace-out" in own else None

    tracer = None
    if trace_out:
        tracer = layer_tracer.Tracer()
        layer_tracer.install(tracer, layer_tracer.SERVER_LAYERS, server=True)

    from repro.bank.server import GridBankServer
    from repro.cli import main as gridbank

    banks = []
    original_init = GridBankServer.__init__

    def remember(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        banks.append(self)

    GridBankServer.__init__ = remember

    def control() -> None:
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            if words[0] == "prefill":
                seed, replies, spans = (int(w) for w in words[1:4])
                prefill(banks[-1], seed, replies, spans, " ".join(words[4:]))
                _say("prefilled")
            elif words[0] == "trace" and tracer is not None:
                tracer.on = words[1] == "on"
                _say(f"trace {words[1]}")
            elif words[0] == "stop":
                break
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=control, name="bench-control", daemon=True).start()
    try:
        rc = gridbank(serve_argv)
    except KeyboardInterrupt:  # arrived before serve installed its own wait
        rc = 0
    if tracer is not None:
        tracer.on = False
        Path(trace_out).write_text(json.dumps({"pid": os.getpid(), "spans": tracer.spans}))
    _say(f"exited {rc}")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
