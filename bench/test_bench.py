"""Fast tests of the benchmark itself: span arithmetic, wrappers and output checks.

    python3 -m pytest -q bench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eulerlab import cli, config, euler2d, fields, ipm, lagrangian, models1d  # noqa: E402
from eulerlab import operators, selfsim  # noqa: E402


def test_self_times_of_a_synthetic_span_tree():
    layers = ["cli.dispatch", "euler2d.run", "fields.fft", "config.parse"]
    tree = [
        [3, -5.0, -4.0, -1, 0.0],  # a parse root, outside the run
        [0, 0.0, 10.0, -1, 0.0],   # dispatch root
        [1, 1.0, 8.0, 1, 0.0],     # euler2d.run under the root
        [2, 2.0, 3.0, 2, 16.0],    # two transforms under the run
        [2, 4.0, 6.5, 2, 48.0],
        [2, 8.5, 9.0, 1, 8.0],     # a transform directly under the root
    ]
    assert spans.self_times(tree) == [1.0, 2.5, 3.5, 1.0, 2.5, 0.5]
    m = spans.layer_metrics(layers, tree)
    assert m["trace.run_s"] == 10.0
    assert m["trace.self_sum_s"] == 10.0
    assert m["cli.dispatch_self_s"] == 2.5
    assert m["euler2d.run_self_s"] == 3.5
    assert m["fields.fft_s"] == 4.0
    assert m["fields.fft_calls"] == 3
    assert m["fields.fft_mb"] == pytest.approx(72e-6)
    assert m["config.parse_s"] == 1.0
    assert m["ipm.run_self_s"] == 0.0


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("fields.fft", lambda x: x * 2)
    outer = tracer.wrap("euler2d.run", lambda x: inner(x) + inner(x))
    root = tracer.wrap(spans.ROOT, outer)
    assert root(3) == 12
    # root 0..7, run 1..6, transforms 2..3 and 4..5
    assert [rec[1:4] for rec in tracer.spans] == [
        [0.0, 7.0, -1], [1.0, 6.0, 0], [2.0, 3.0, 1], [4.0, 5.0, 1]]
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = {"to_coeffs": fields.to_coeffs, "to_values": fields.to_values,
                 "write_snapshot": cli.write_snapshot}
    hilbert = selfsim.ProfileProblem.__dict__["hilbert_matrix"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for mod in (fields, operators, euler2d, lagrangian, ipm, models1d):
            for name in ("to_coeffs", "to_values"):
                if name in vars(mod):
                    assert getattr(mod, name).__wrapped__ is originals[name], (mod, name)
        for mod in (euler2d, cli):
            assert mod.write_snapshot.__wrapped__ is originals["write_snapshot"]
        assert hasattr(hilbert.func, "__wrapped__")
        assert hasattr(lagrangian.VelocitySampler.__call__, "__wrapped__")
    finally:
        tracer.uninstall()
    assert fields.to_coeffs is originals["to_coeffs"]
    assert operators.to_values is originals["to_values"]
    assert euler2d.write_snapshot is originals["write_snapshot"]
    assert not hasattr(hilbert.func, "__wrapped__")


def test_missing_target_reports_its_metric_absent():
    targets = [t for t in spans.TARGETS if t.layer != "selfsim.lemma"]
    targets += [spans.Target("selfsim.lemma", "eulerlab.selfsim", "renamed_lemma_check"),
                spans.Target("selfsim.lemma", "eulerlab.no_such_module", "anything")]
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        assert sorted(tracer.missing) == ["eulerlab.no_such_module.anything",
                                          "eulerlab.selfsim.renamed_lemma_check"]
        assert tracer.absent_layers() == {"selfsim.lemma"}
        fields.to_values(np.zeros((4, 4), dtype=complex))
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.layers, tracer.spans, tracer.absent_layers())
    assert "selfsim.lemma_s" not in m
    assert m["fields.fft_calls"] == 1
    assert m["selfsim.newton_self_s"] == 0.0


def _tiny_euler_run(run_dir: Path, dispatch=cli.dispatch) -> None:
    cfg = config.parse_config(workloads.config_text(
        "euler2d", nx=32, ny=32, preset="random_bandlimited", seed=3, kmax=4,
        rms=workloads.band_rms(32, 3, 4), t_end=0.5, diag_every=0.25,
        snapshot_every=0.25))
    assert dispatch(cfg, run_dir) == 0


def _resign(run_dir: Path, name: str) -> None:
    manifest = checks.read_manifest(run_dir)
    manifest["files"][name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def test_traced_dispatch_self_times_sum_to_the_run(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _tiny_euler_run(tmp_path / "run", tracer.wrap(spans.ROOT, cli.dispatch))
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.layers, tracer.spans)
    assert m["fields.fft_calls"] > 0 and m["snapshots.mb_written"] > 0.0
    assert m["cli.manifest_s"] > 0.0 and m["euler2d.run_self_s"] > 0.0
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.run_s"], rel=1e-9)


def test_output_check_rejects_a_tampered_csv(tmp_path):
    run_dir = tmp_path / "run"
    _tiny_euler_run(run_dir)
    drift = (checks.euler_drift(("energy", "enstrophy")),)
    assert checks.run_problems(run_dir, 0, 0, drift) == []
    assert checks.run_problems(run_dir, 3, 0, drift) == ["exit code 3, expected 0"]

    csv = run_dir / "diagnostics.csv"
    good = csv.read_text()
    lines = good.splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * 1.001)  # the last energy drifts by 1e-3
    csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    problems = checks.run_problems(run_dir, 0, 0, drift)
    assert any("sha256" in p for p in problems)
    _resign(run_dir, "diagnostics.csv")
    assert checks.run_problems(run_dir, 0, 0, drift) == [
        "energy drift 1.00e-03 exceeds 1e-06"]

    csv.write_text(good)
    _resign(run_dir, "diagnostics.csv")
    assert checks.run_problems(run_dir, 0, 0, drift) == []
    snap = next(run_dir.glob("snap_*.eulb"))
    snap.write_bytes(snap.read_bytes()[:-8])
    _resign(run_dir, snap.name)
    problems = checks.run_problems(run_dir, 0, 0, drift)
    assert len(problems) == 1 and "does not read back" in problems[0]


def test_workload_configs_are_seeded_and_parse():
    for workload in workloads.WORKLOADS.values():
        texts = [r.config for r in workload.make_runs(5)]
        assert texts == [r.config for r in workload.make_runs(5)]
        assert texts != [r.config for r in workload.make_runs(6)]
        for text in texts:
            config.parse_config(text)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(spans.METRICS) | {"trace.run_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb",
                                                       "ok_frac"}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.moves) <= per_layer


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "euler-256",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
