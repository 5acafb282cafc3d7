"""Run one ``tybec`` command with the layer timers installed.

    python traced_main.py SPANS_JSON -- <tybec arguments>

The traced twin of ``python -m repro.cli <tybec arguments>``: it times the
import of ``repro.cli`` (``cli.import``), wraps the layer boundaries of
:mod:`layers`, runs the command, and writes the per-layer totals to
``SPANS_JSON`` when the command returns -- for ``serve``, after SIGTERM
has drained it.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    spans_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced_main.py SPANS_JSON -- <tybec arguments>")
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    from layers import LayerTracer, install

    tracer = LayerTracer()
    install(tracer)
    try:
        return repro.cli.main(command)
    finally:
        spans = tracer.snapshot()
        spans["self_s"]["cli.import"] = import_s
        with open(spans_path, "w") as out:
            json.dump(spans, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
