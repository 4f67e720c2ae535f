"""The benchmark tracer's contract with the program, checked on the tiny passes.

``perfbench/tracer.py`` wraps ``heartid`` functions by name and reads fields
of their results, so a rename in ``src/`` can silently zero a counter or
break a traced run.  These tests run each workload's tiny pass in-process
under the tracer and check what the benchmark reads from it.
"""

import math
import sys
from pathlib import Path

import pytest

import heartid
from heartid import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# traced names that no longer exist in heartid; each reads 0 calls until the
# benchmark drops it
MISSING_ALLOWED = {"signals.complex_second_derivative", "cepstrum.extract_all"}


def _missing() -> set[str]:
    return {f"{module}.{fn}" for module, fns in workloads.TRACED_FUNCTIONS.items()
            for fn in fns if not hasattr(getattr(heartid, module), fn)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_under_tracer(workload, tmp_path, capsys):
    steps = workloads.commands(workload, "tiny", workloads.PINNED_SEED, str(tmp_path))
    with tracer.Tracer() as t:
        codes = {name: cli.main(argv) for name, argv in steps}
    capsys.readouterr()
    assert codes == {name: 0 for name, _ in steps}
    metrics = t.metrics()
    assert [k for k, v in metrics.items() if not math.isfinite(v)] == []
    if workload == "paper60":
        assert metrics["classify.smo_iters"] > 0 and metrics["classify.n_sv"] > 0
    else:
        c = checks.Checks(workload)
        c.echoes(t.echoes)
        assert (c.attempted, c.failed) == (workloads.WORKLOADS[workload]["rows"]["tiny"], 0)


def test_every_traced_function_exists():
    assert _missing() <= MISSING_ALLOWED


def test_missing_allowlist_is_not_stale():
    # a name the benchmark stopped tracing, or that came back, should leave the list
    assert MISSING_ALLOWED <= _missing()
