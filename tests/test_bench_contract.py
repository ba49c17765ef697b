"""The benchmark's traced-run contract holds on every workload.

``perfbench/`` traces the package through the wrap points of its
``tracer.py`` and reads argument shapes in the hooks of its ``probes.py``
(for example ``a, b = m.shape`` and ``np.linalg.norm(out, 2)``); a hook that
raises fails the op.  This test runs op 0 of each workload in
``perfbench/workloads.py`` under ``Tracer(hooks=Probe().hooks())``, as a
traced benchmark run does, and checks that no wrap point is missing, the op
exits 0, its outputs pass the workload's own check and the probe gates hold.
A traced certify op also goes through ``run.py``'s own metric code, whose
metrics must be strict JSON.  It imports the four modules and changes
nothing in them.
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

from polarmuon import cli


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_keeps_the_contract(tmp_path, capsys, name):
    wl = workloads.WORKLOADS[name](1)
    wl.setup()
    out_dir = tmp_path / "op0"
    argv = wl.argv(0, out_dir)
    probe = probes.Probe()
    tracer = Tracer(hooks=probe.hooks())
    with tracer:
        tracer.op = 0
        code = cli.main(argv)
        tracer.op = -1
    assert code == 0, capsys.readouterr()
    assert tracer.missing == []
    assert wl.inspect(0, out_dir).error is None
    assert probe.op_norm_failures() == []
    if name == "wide-sketch":
        assert tracer.calls("sketch.orthonormal_basis") > 0
        assert not probe.rank_short_ops


def test_traced_certify_metrics_are_strict_json(tmp_path):
    # a traced run's last stdout line holds these metrics; a NaN or an
    # infinity there is not JSON, and the run reports no result
    wl = workloads.WORKLOADS["certify"](1)
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
    json.dumps(metrics, allow_nan=False)
