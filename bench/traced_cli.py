"""Run one minkdim CLI command under the tracer: the traced cli-readme op.

Usage: python bench/traced_cli.py SPANS_PATH OP_ID <cli arguments...>

Equivalent to ``python -m minkdim.cli <arguments>`` (whose ``__main__`` block
is ``sys.exit(main())``), with every public minkdim function wrapped first;
the spans of the command are written to SPANS_PATH as JSON.
"""

import sys

import minkdim.cli
from tracer import Tracer

spans_path, op_id, *argv = sys.argv[1:]
tracer = Tracer()
tracer.install()
tracer.begin_op(int(op_id), "cli")
try:
    rc = minkdim.cli.main(argv)
finally:
    tracer.end_op()
    tracer.dump(spans_path)
sys.exit(rc)
