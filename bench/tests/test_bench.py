"""Tests of the benchmark itself: span arithmetic, wrapper transparency, and a
tiny-size smoke run of every workload.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Installed, Span, SpanTree, Tracer, covered, traced  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(i, parent, name, start, end):
    return Span("t", i, parent, name, float(start), float(end))


def test_self_time_on_nested_tree_is_exact():
    # root [0, 16] with children a [1, 5] and b [4, 9] overlapping (as a pool
    # thread's span does) and c [10, 12]; a has child d [2, 3]; e [15, 18]
    # pokes past the root and is clipped
    spans = [_span(1, None, "x.root", 0, 16), _span(2, 1, "x.a", 1, 5),
             _span(3, 1, "x.b", 4, 9), _span(4, 1, "x.c", 10, 12),
             _span(5, 2, "x.d", 2, 3), _span(6, 1, "x.e", 15, 18)]
    tree = SpanTree(spans)
    assert tree.self_time(spans[0]) == 16 - (8 + 2 + 1)
    assert tree.self_time(spans[1]) == 4 - 1
    assert tree.self_time(spans[4]) == 1
    assert tree.self_total("x.a") == 3
    assert covered([(1, 5), (4, 9), (10, 12)], 0, 16) == 10
    assert covered([(0, 4)], 1, 3) == 2


def test_total_counts_outermost_spans_only():
    spans = [_span(1, None, "x.f", 0, 8), _span(2, 1, "x.f", 1, 3),
             _span(3, None, "x.g", 10, 14), _span(4, 3, "x.f", 11, 12)]
    tree = SpanTree(spans)
    assert tree.total("x.f") == 8 + 1
    assert tree.total("x.f", under="x.g") == 1
    assert len(tree.named("x.f")) == 3


def test_tracer_links_parents_and_self_time_with_a_scripted_clock():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 8.0])
    tracer = Tracer("t", clock=lambda: next(ticks))
    outer = tracer.open("x.outer")
    inner = tracer.open("x.inner")
    tracer.add("x.work", 3)
    tracer.close(inner)
    tracer.close(tracer.open("x.sibling"))
    tracer.close(outer)
    tree = SpanTree(tracer.spans)
    assert inner.parent == outer.id
    assert tree.self_time(outer) == 8.0 - (1.0 + 2.0)
    assert inner.counts["x.work"] == 3 and tracer.counts["x.work"] == 3
    assert tree.subtree_count("x.outer", "x.work") == 3


def test_wrapper_returns_the_same_value_and_reraises_the_same_exception():
    tracer = Tracer("t")
    marker = object()
    assert traced(tracer, lambda a, b=1: (a, b, marker), "x.ok")(5, b=2) == (5, 2, marker)

    boom = ValueError("boom")

    def fails():
        raise boom

    with pytest.raises(ValueError) as info:
        traced(tracer, fails, "x.fail")()
    assert info.value is boom
    assert [s.error for s in tracer.spans] == [None, "ValueError"]
    assert len(tracer.errors["x"]) == 1


def test_installed_restores_every_original():
    cli = run.import_cli()
    import mfclt.measures as measures

    before = (cli.theoretical_covariance, measures.linprog,
              measures.DiscreteMeasure.__dict__["quantile"], cli.make_model)
    with Installed(Tracer("t")):
        assert cli.theoretical_covariance is not before[0]
        assert measures.linprog is not before[1]
    after = (cli.theoretical_covariance, measures.linprog,
             measures.DiscreteMeasure.__dict__["quantile"], cli.make_model)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_smoke_run(workload, monkeypatch):
    monkeypatch.setattr(run, "MIN_TIMED_RUNS", 1)
    monkeypatch.setattr(run, "SETUP_IMPORTS", 1)
    traced_out = run.measure(workload, 7, 0.0, True, size="tiny")
    result = traced_out["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    plain = run.measure(workload, 7, 0.0, False, size="tiny")
    assert plain["result"]["correct"]
    assert set(plain["result"]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert plain["record"]["digest"] == traced_out["record"]["digest"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "meanfield-ou":
        assert metrics["mean_field.cov_term2.self_s"] > 0
        assert metrics["mean_field.particle_steps"] > 0
    else:
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith("mean_field.") and not k.endswith("src_lines"))


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clt-moment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _row(side, wall, cpu="cpu-a"):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["wall_s"]["value"] = wall
    return {"side": side,
            "record": {"machine": {"cpu": cpu}, "code": {"bench_sha256": "b"}},
            "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}


def test_compare_refuses_results_from_different_machines(capsys):
    import compare

    rows = [_row("base", 2.0), _row("change", 1.0, cpu="cpu-b")]
    assert compare.report(rows) == 3
    assert "different machines" in capsys.readouterr().err


def test_compare_refuses_fewer_than_ten_pairs(capsys):
    import compare

    rows = [_row(s, w) for s, w in (("base", 2.0), ("change", 1.0))] * 9
    assert compare.report(rows) == 3
    assert "9 pairs" in capsys.readouterr().err


def test_compare_calls_a_gain_and_a_regression(capsys):
    import compare

    faster = [_row(s, w) for i in range(10)
              for s, w in (("base", 2.0 + 0.01 * i), ("change", 1.0 + 0.01 * i))]
    assert compare.report(faster) == 0
    assert "wins 10/10  gain" in capsys.readouterr().out
    slower = [_row(s, w) for s, w in (("base", 1.0), ("change", 2.0))] * 10
    assert compare.report(slower) == 0
    assert "REGRESSION" in capsys.readouterr().out


def test_artifact_bytes_leave_out_manifests():
    from spans import _artifact_bytes

    assert _artifact_bytes(("out/clt.json", "{}\n"), {}, None) == {"cli.artifact_bytes": 3}
    assert _artifact_bytes(("out/clt.manifest.json", "{}\n"), {}, None) == {}
