"""``tools/bench_pairs.py``'s ``calls_changed``: which ``.calls`` counts per
traced op differ between the two sides of a paired benchmark."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402


def _metrics(ops, **calls):
    out = {"cli.main.calls": ops, "cli.main.ms": 1.0}
    out.update({f"{name.replace('__', '.')}.calls": n for name, n in calls.items()})
    return out


def test_same_count_per_op_is_unchanged():
    parent = _metrics(42, matcore__as_matrix=42 * 5731, verify__check_prop2=42)
    change = _metrics(44, matcore__as_matrix=44 * 5731, verify__check_prop2=44)
    assert bench_pairs.calls_changed(parent, change) == {}


def test_changed_count_per_op_is_listed_with_both_rates():
    parent = _metrics(10, matcore__svd=100, matcore__as_matrix=30)
    change = _metrics(20, matcore__svd=200, matcore__as_matrix=80)
    assert bench_pairs.calls_changed(parent, change) == {
        "matcore.as_matrix.calls": {"parent": 3.0, "change": 4.0}
    }


def test_set_up_spans_are_skipped():
    # one set-up call against 714 and 778 ops reads 1/714 and 1/778 per op
    parent = _metrics(714, noise__calibrate=1, noise__empirical_alpha_moment=0)
    change = _metrics(778, noise__calibrate=1)
    assert bench_pairs.calls_changed(parent, change) == {}


def test_span_gone_from_one_side_is_listed():
    parent = _metrics(5, noise__gradient_oracle=50)
    change = _metrics(5, noise__gradient_oracle=0)
    assert bench_pairs.calls_changed(parent, change) == {
        "noise.gradient_oracle.calls": {"parent": 10.0, "change": 0.0}
    }
    assert bench_pairs.calls_changed(parent, _metrics(5)) == {
        "noise.gradient_oracle.calls": {"parent": 10.0, "change": 0.0}
    }
