"""Run the ``repro`` CLI with spans around its layer entry points.

Usage: ``python perfbench/launch.py SPANS_OUT {library,server} -- CLI_ARGS...``

Installs the wrappers of :mod:`spans`, calls ``repro.cli.main(CLI_ARGS)``
exactly as ``python -m repro`` would, and writes the recorded spans to
``SPANS_OUT`` when the command returns (for ``serve``: after the drain
that SIGTERM starts).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    out, kind, sep, *cli_args = argv
    if sep != "--" or kind not in ("library", "server"):
        raise SystemExit(__doc__)
    prefixes = spans.SERVER_LAYERS if kind == "server" else spans.LIBRARY_LAYERS
    spans.preload(prefixes)
    recorder = spans.Recorder()
    spans.install(recorder, prefixes)
    from repro.cli import main as cli_main

    try:
        with recorder.span("process"):
            return cli_main(cli_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
