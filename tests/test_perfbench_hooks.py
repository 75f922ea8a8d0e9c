"""Every name the benchmark's tracer rebinds must exist in the program.

``perfbench/run.py --trace 1`` times the layers by rebinding module
attributes by name (``perfbench/tracing.py``). Deleting or renaming one of
them breaks the traced run, so this test installs every hook and takes it
down again.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from gmres_sv import cli, krylov, solvers  # noqa: E402


def test_traced_names_can_be_rebound_and_restored():
    before = [dict(vars(module)) for module in (cli, krylov, solvers)]
    tracer = Tracer()
    try:
        run.install(tracer, trace=True)
    finally:
        tracer.unwrap()
    assert [dict(vars(module)) for module in (cli, krylov, solvers)] == before
