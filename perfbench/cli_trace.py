"""Run one partgap CLI command with every layer traced.

Imports ``partgap.cli`` (timing the import and numpy's share of it),
installs the wrappers, calls ``partgap.cli.main(argv)`` and writes the
trace as JSON to TRACE_FILE.  Standard output is the command's own.

    python3 perfbench/cli_trace.py TRACE_FILE COMMAND [ARGS...]
"""

from __future__ import annotations

import json
import os
import sys

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    imports = tracing.import_partgap(os.path.join(ROOT, "src"), with_cli=True)
    tracer = tracing.Tracer()
    tracer.install()
    code = sys.modules["partgap.cli"].main(argv)
    sys.stdout.flush()
    dump = tracer.dump()
    dump.update(imports)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
