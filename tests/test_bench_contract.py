"""The benchmark's traced-run contract holds on every workload.

``perfbench/`` traces the package through the wrap points of its
``tracer.py`` and reads argument shapes in the hooks of its ``probes.py``
(for example ``a, b = m.shape`` and ``np.linalg.norm(out, 2)``); a hook that
raises fails the op.  This test runs op 0 of each workload in
``perfbench/workloads.py`` untraced and under
``Tracer(hooks=Probe().hooks())``, after a traced set-up, as a traced
benchmark run does, and checks that no wrap point is missing, both runs
exit 0 and pass the workload's own check, and the probe gates hold.  The
traced op then goes through ``run.py``'s own metric code: its metrics must
be exactly the ``per_layer`` names that ``BENCHMARK.json`` declares, and
strict JSON; a certify op's metrics are checked on their own as well.  It
imports the four modules and changes nothing in them.
"""

import json
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import probes
import workloads
from tracer import Tracer

_ENVIRON = dict(os.environ)
import run  # pins BLAS threads and POLARMUON_WORKERS for its own process

os.environ.clear()
os.environ.update(_ENVIRON)

DECLARED = sorted(m["name"] for m in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"])


def _traced_op0(tmp_path, name):
    """Run op 0 of workload ``name`` untraced, then traced, as ``run.py`` does."""
    wl = workloads.WORKLOADS[name](1)
    probe = probes.Probe()
    tracer = Tracer(hooks=probe.hooks())
    with tracer:
        wl.setup()
    setup_self = {k: v[2] for k, v in tracer.stats.items()}
    untraced = [run.run_op(wl, 0, tmp_path / "op0")]
    traced = [run.run_op(wl, 0, tmp_path / "traced-op0", tracer)]
    assert [r["error"] for r in untraced + traced] == [None, None]
    assert tracer.missing == []
    metrics, _shares = run.traced_metrics(wl, tracer, probe, setup_self, untraced, traced, 1)
    return tracer, probe, metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_keeps_the_contract(tmp_path, name):
    tracer, probe, metrics = _traced_op0(tmp_path, name)
    assert probe.op_norm_failures() == []
    if name == "wide-sketch":
        assert tracer.calls("sketch.orthonormal_basis") > 0
        assert not probe.rank_short_ops
    # a missing name is a missing result
    assert sorted(metrics) == DECLARED
    json.dumps(metrics, allow_nan=False)


def test_traced_certify_metrics_are_strict_json(tmp_path):
    # a traced run's last stdout line holds these metrics; a NaN or an
    # infinity there is not JSON, and the run reports no result
    _tracer, _probe, metrics = _traced_op0(tmp_path, "certify")
    json.dumps(metrics, allow_nan=False)
