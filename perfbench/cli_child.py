"""A traced `python -m qexch.cli` for the cli_verify workload.

    python3 perfbench/cli_child.py SPANS_JSON verify SCENARIO [qexch.cli flags]

Times the import of `qexch.cli` (numpy included), installs the tracer, runs
`qexch.cli.main` on the remaining arguments exactly as `python -m qexch.cli`
would, writes the spans and call counts to SPANS_JSON and exits with the
CLI's exit code.
"""

import json
import sys
import time

from tracing import Tracer

t0 = time.perf_counter()
import qexch.cli  # noqa: E402

t1 = time.perf_counter()

tracer = Tracer()
tracer.install()
tracer.record_span("cli.import", t0, t1)
try:
    code = qexch.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({**tracer.to_doc(), "qexch_file": qexch.__file__}, fh)
sys.exit(code)
