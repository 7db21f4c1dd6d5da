"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench``.

They spawn real ``lieconf`` commands, so they take about 15 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Installs the tracer in a fresh interpreter and reports, per wrapped entry,
# how many sites it rebound, whether any lieconf namespace still binds the
# original, and whether wrapped calls return what the originals return.
_INSTALL_PROBE = r"""
import json, sys
import lieconf.cli, lieconf.conformal, lieconf.embed, lieconf.liealg, lieconf.qseries, lieconf.reps
import tracer

originals = {}
for layer, module, qualname in tracer.WRAPPED:
    owner = sys.modules[module]
    for part in qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    originals[qualname] = vars(owner)[qualname.split(".")[-1]]
E6 = lieconf.liealg.build_algebra("E6")
phi = lieconf.qseries.euler_phi(30)
before = {
    "alg": lieconf.liealg.build_algebra("E6"),
    "dim": lieconf.reps.weyl_dim(E6, (1, 0, 0, 0, 0, 1)),
    "ws": lieconf.reps.freudenthal_weights(E6, (1, 0, 0, 0, 0, 0)).entries,
    "mul": phi * phi,
    "rmul": 3 * phi,
    "verify": lieconf.qseries.verify_identity("kw", 30),
}
sites = tracer.install()
left = []
for namespace in tracer._lieconf_namespaces():
    for attr, value in vars(namespace).items():
        for qualname, fn in originals.items():
            if value is fn:
                left.append(f"{getattr(namespace, '__name__', namespace)}.{attr}")
after = {
    "alg": lieconf.liealg.build_algebra("E6"),
    "dim": lieconf.reps.weyl_dim(E6, (1, 0, 0, 0, 0, 1)),
    "ws": lieconf.reps.freudenthal_weights(E6, (1, 0, 0, 0, 0, 0)).entries,
    "mul": phi * phi,
    "rmul": 3 * phi,
    "verify": lieconf.qseries.verify_identity("kw", 30),
}
same = {
    "alg": after["alg"] is before["alg"],
    "dim": after["dim"] == before["dim"],
    "ws": after["ws"] == before["ws"],
    "mul": after["mul"].first_mismatch(before["mul"]) is None
    and after["mul"].order == before["mul"].order,
    "rmul": after["rmul"].first_mismatch(before["rmul"]) is None,
    "verify": after["verify"] == before["verify"],
}
print(json.dumps({"sites": {tracer.WRAPPED[i][2]: n for i, n in sites.items()},
                  "left": left, "same": same, "spans": len(tracer._spans)}))
"""


def _probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def probe() -> dict:
    return _probe()


def test_every_wrapped_function_is_rebound_everywhere(probe):
    assert probe["left"] == []
    assert all(n >= 1 for n in probe["sites"].values()), probe["sites"]
    # Names imported into other modules are rebound there too.
    assert probe["sites"]["weyl_dim"] >= 4  # reps, cli, embed, conformal
    assert probe["sites"]["solve_levels"] >= 2  # conformal, cli
    assert probe["sites"]["build_algebra"] >= 5
    assert probe["sites"]["PuiseuxSeries.__mul__"] == 2  # __mul__ and __rmul__


def test_wrappers_pass_results_through(probe):
    assert all(probe["same"].values()), probe["same"]
    assert probe["spans"] > 0


def test_span_self_times_add_up_to_the_root():
    # root [0, 100) with children [10, 40) and [50, 90); the first has a child [20, 30)
    spans = [(0, 0, 100, -1), (1, 10, 40, 0), (2, 20, 30, 1), (3, 50, 90, 0)]
    own = tracer.self_times(spans)
    assert own == [30, 20, 10, 40]
    assert sum(own) == 100


def test_same_seed_same_inputs_and_every_seed_same_shape():
    for name in workloads.WORKLOADS:
        base = workloads.generate(name, 0)
        assert workloads.generate(name, 0) == base
        shapes = {tuple(c.kind for c in workloads.generate(name, s)) for s in range(20)}
        assert len(shapes) == 1
        assert len({tuple(c.argv for c in workloads.generate(name, s)) for s in range(20)}) > 1


def test_default_seed_is_recorded():
    expected = run.load_expected()
    for name in workloads.WORKLOADS:
        for cmd in workloads.generate(name, workloads.DEFAULT_SEED):
            assert cmd.key in expected, cmd.key
    assert any(entry["code"] == 1 for entry in expected.values())


def test_checks_reject_a_wrong_tensor_total():
    cmd = workloads.Command(("rep", "tensor", "A2", "1,0", "0,1"), "tensor",
                            {"type": "A2", "w1": "1,0", "w2": "0,1"})
    ctx = checks.PassContext()
    ctx.dims = {("A2", "1,0"): 3, ("A2", "0,1"): 3}
    good = {"total_dim": 9, "rows": [{"mult": 1, "dim": 8}, {"mult": 1, "dim": 1}]}
    bad = dict(good, total_dim=8)
    assert checks.check_command(cmd, 0, json.dumps(good).encode(), ctx, {}) is None
    assert checks.check_command(cmd, 0, json.dumps(bad).encode(), ctx, {}) is not None
    assert checks.check_command(cmd, 2, json.dumps(good).encode(), ctx, {}) is not None


def _cheap(name: str):
    """A short prefix of the workload's pass that keeps its cross-checks valid."""
    cmds = workloads.generate(name, workloads.DEFAULT_SEED)
    if name == "classify":
        return [c for c in cmds if c.kind != "table2" and c.kind != "report"]
    if name == "modules":
        return cmds[:6]
    return [c for c in cmds if c.kind == "char" or "kw" in c.argv or "delta_eta" in c.argv]


@pytest.fixture(scope="module")
def traced_passes():
    run.TMP_DIR.mkdir(exist_ok=True)
    env, expected = run.child_env(), run.load_expected()
    out = {}
    try:
        for name in workloads.WORKLOADS:
            cmds = _cheap(name)
            plain = run.run_pass(cmds, False, env, expected)
            traced = run.run_pass(cmds, True, env, expected)
            out[name] = (cmds, plain, traced)
    finally:
        shutil.rmtree(run.TMP_DIR, ignore_errors=True)
    return out


def test_traced_stdout_equals_untraced(traced_passes):
    for name, (cmds, plain, traced) in traced_passes.items():
        assert not any(plain.failures) and not any(traced.failures), name
        assert run.trace_mismatches(cmds, [plain], [traced]) == [], name


def test_isolation_counts(traced_passes):
    metrics = {}
    for name, (cmds, plain, traced) in traced_passes.items():
        metrics[name] = run.per_layer([plain], [traced])
        assert abs(metrics[name]["trace.attributed_ratio"] - 1) < 1e-9
    for layer in ("reps", "embed", "conformal"):
        assert metrics["series"][f"{layer}.calls"] == 0
    for name in ("classify", "modules"):
        assert metrics[name]["qseries.calls"] == 0
        assert metrics[name]["qseries.terms_multiplied"] == 0


def test_refuses_to_run_without_sources():
    bare = run.ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "series", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
