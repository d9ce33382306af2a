"""Run ``python -m repro serve`` with every server-side layer wrapped.

Usage: ``python traced_serve.py SPANS_OUT [serve flags...]``

The wrappers from :func:`tracer.install_server` go in first; then the
unchanged ``repro serve`` code path (:func:`repro.__main__.main`) runs, so
the traced server is the measured program plus wrappers.  Stop it with
SIGINT: ``repro serve`` shuts its daemons down, and this launcher then
writes the spans and the program's own counters to ``SPANS_OUT``.
"""

from __future__ import annotations

import sys

from tracer import Tracer, install_server, program_counters


def main(argv: list[str]) -> None:
    out = argv[1]
    tracer = Tracer()
    live = install_server(tracer)
    from repro.__main__ import main as repro_main

    try:
        repro_main(["repro", "serve", *argv[2:]])
    finally:
        tracer.dump(out, program_counters(live))


if __name__ == "__main__":
    main(sys.argv)
