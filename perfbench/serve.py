"""Service entry point: ``python perfbench/serve.py REF SPANS serve ARGS...``.

Runs the ``repro`` CLI with ``serve ARGS...`` and, inside the service
process:

* times the reference task (:mod:`reference`) every ``REFERENCE_PERIOD_S``
  on the service's event loop, so each window of the stream can be
  scaled by the speed of the CPU the service runs on, and writes the
  samples ``[[start, seconds], ...]`` as JSON to ``REF`` once the
  service has stopped;
* unless ``SPANS`` is ``-``, installs the span wrappers of
  :func:`spans.install_service` before the service starts and writes
  the recorded spans to ``SPANS`` once it has stopped.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

#: Period of the reference samples: about 1% of the service's CPU.
REFERENCE_PERIOD_S = 0.04


def install_reference(samples: list[tuple[float, float]]) -> None:
    """Start the reference ticker on the event loop when the service starts."""
    from repro.service.server import MonitorService

    original = MonitorService.start

    async def start(self: MonitorService) -> None:
        await original(self)
        loop = asyncio.get_running_loop()

        def tick() -> None:
            t0 = time.perf_counter()
            samples.append((t0, reference.sample()))
            loop.call_later(REFERENCE_PERIOD_S, tick)

        loop.call_later(REFERENCE_PERIOD_S, tick)

    MonitorService.start = start  # type: ignore[method-assign]


def main(argv: list[str]) -> int:
    ref_out, spans_out, cli_args = argv[0], argv[1], argv[2:]
    common.use_program()
    from repro.cli import main as cli_main

    samples: list[tuple[float, float]] = []
    install_reference(samples)
    rec = None
    if spans_out != "-":
        rec = spans.SpanRecorder()
        spans.install_service(rec)
    try:
        return cli_main(cli_args)
    finally:
        Path(ref_out).write_text(json.dumps(samples))
        if rec is not None:
            rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
