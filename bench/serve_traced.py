"""Start the unmodified CLI ``serve`` with the trace wrappers installed.

    python -m bench.serve_traced DUMP serve DIRECTORY --port 0

The traced pass of ``served_kv`` launches the server through this file so
that both processes are measured by the same table of trace points.  Spans
here are in thread CPU time: the server's threads share one interpreter
lock, and a wall-clock span would charge a layer for the time its thread
waited for another's.  When ``serve`` returns, which it does on SIGTERM,
aggregates go to ``DUMP`` and raw spans to ``DUMP.spans.jsonl``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    dump, *cli_args = argv
    from bench.trace import Tracer

    import repro.cli

    tracer = Tracer(clock=time.thread_time_ns).install()
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(dump, "w") as out:
            json.dump({"aggregates": tracer.aggregates(), "missing": tracer.missing}, out)
        tracer.write_spans(dump + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
