"""Run one weakinfo CLI command with the span tracer installed.

    python3 perfbench/cli_child.py SPANS_JSON <weakinfo command and flags>

Used by the traced cli-runs pass.  Expects weakinfo on PYTHONPATH.  Times
the import of weakinfo.cli, runs `weakinfo.cli.main` traced, and writes the
import time, spans and call counts to SPANS_JSON when the command ends.
"""
from __future__ import annotations

import json
import sys
import time

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import weakinfo
    import weakinfo.cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install(weakinfo)
    try:
        return weakinfo.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
