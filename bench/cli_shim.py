"""Traced stand-in for ``python -m funcalg.cli``, used by traced cli runs.

Imports funcalg from the checkout, wraps every layer's public functions with
spans (see tracer.py), runs ``funcalg.cli.main`` on the given arguments and
writes the spans to the file named by FUNCALG_BENCH_SPANS before exiting
with the CLI's exit code.
"""

from __future__ import annotations

import os
import sys

from common import check_imported_from_checkout
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.op = int(os.environ["FUNCALG_BENCH_OP"])
    import funcalg
    import funcalg.cli
    check_imported_from_checkout(funcalg)
    tracer.install(funcalg)
    try:
        return funcalg.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["FUNCALG_BENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
