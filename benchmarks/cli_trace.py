"""Run one ``schoenberg.cli`` command in this fresh process, traced.

    python cli_trace.py <spawn time> <trace file> <cli arguments...>

The spawn time is the parent's ``time.monotonic()`` just before it started
this process; the span from then until ``schoenberg.cli.main`` is callable
is the command's start-up. The wrappers go in after that, then ``main``
runs and the spans go to the trace file for the parent to absorb. The exit
code is ``main``'s.
"""
import json
import sys
import time


def main():
    spawned, trace_file, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import schoenberg.cli  # PYTHONPATH names src/

    ready = time.monotonic()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return schoenberg.cli.main(argv)
    finally:
        dump = tracer.raw()
        dump["startup_ms"] = (ready - spawned) * 1e3
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
