"""The benchmark harness still runs against the package's public API."""

import os
import subprocess
import sys

import pytest

import lagwalk
from lagwalk import cli, experiments

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_bench_smoke_passes():
    # The harness writes its records only under the git-ignored bench/out/.
    proc = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke test passed" in proc.stdout


def test_layer_probe_reads_the_kernel(monkeypatch):
    """The traced harness's pair-chain metrics come out of a tiny traced
    stationary check and convergence run, in process.  The check reads the
    lumped law, so the test also solves the N^2 pair vector that the probe's
    residual reads, through the patched ``lagwalk.stationary_pair``."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import child

    graph = ["--nodes", "10", "--cases", "3", "--p-cc", "0.6", "--p-cn", "0.3", "--p-nn", "0.3",
             "--graph-seed", "2", "--r", "0.5", "--w", "0.3", "--jobs", "1"]
    patcher = child.Patcher()
    probe = child.LayerProbe(child.Tracer(), lagwalk)
    try:
        probe.install(patcher)
        for campaign in (["stationary-check"], ["convergence", "--replicates", "3"]):
            cfg = cli.make_config(cli.build_parser().parse_args(campaign + graph))
            experiments.run_campaign(cfg)
        wcfg = lagwalk.WalkConfig(r=0.5, w=0.3)
        lagwalk.stationary_pair(lagwalk.build_pair_chain(experiments.load_graph(cfg), wcfg))
    finally:
        patcher.restore()
    assert probe.pair_matrix_bytes > 0
    assert probe.solved
    assert probe.residual_l1() < 1e-8
    assert probe.marginal_matvecs > 0
