#!/usr/bin/env python3
"""``simmr serve`` with the benchmark's span wrappers installed.

Usage::

    python benchmarks/e2e/serve_traced.py SPANS.json serve [simmr serve options]

Installs the layer wrappers from ``spans.py`` in this process, runs the
service through :func:`repro.cli.main`, and when the service has
drained (SIGTERM) writes every recorded span to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    from spans import SpanRecorder, install_layers, install_server

    out, cli_args = Path(argv[0]), argv[1:]
    recorder = SpanRecorder()
    install_layers(recorder)
    install_server(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        out.write_text(json.dumps(recorder.to_json()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
