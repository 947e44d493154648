"""``repro serve`` with the benchmark's layer shims installed.

Usage: ``python3 perfbench/traced_server.py LEDGER_PATH [serve args...]``

Runs the normal ``repro serve`` command in this process after
installing :mod:`ledger`'s shims. On ``SIGUSR1`` it writes the ledger's
cumulative snapshot to ``LEDGER_PATH`` (atomically, with a ``seq``
that counts the signals), so the benchmark can take the difference of
two snapshots around its timed window.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ledger as ledger_mod  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402


def run(argv: list) -> int:
    out = pathlib.Path(argv[0])
    book = ledger_mod.Ledger()
    ledger_mod.install(book)
    seq = [0]
    write_lock = threading.Lock()

    def dump() -> None:
        with write_lock:
            seq[0] += 1
            doc = dict(book.snapshot(), seq=seq[0])
            tmp = out.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc), encoding="utf-8")
            os.replace(tmp, out)

    # The handler runs on the event-loop thread; the write happens on
    # its own thread so the handler never waits on the ledger's lock.
    signal.signal(signal.SIGUSR1,
                  lambda *_: threading.Thread(target=dump).start())
    return repro_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
