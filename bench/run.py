"""lieconf benchmark: run one workload's commands, check them, print metrics.

    python3 bench/run.py --workload classify --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --record      # rewrite bench/expected.json

A run repeats its workload's pass (the command list ``workloads.py`` draws
from the seed) until the next pass would end after ``--seconds``.  Each
command runs in a fresh interpreter through ``child.py``, one at a time.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's metadata.
With ``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics of the traced ones.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
TMP_DIR = ROOT / ".bench_tmp"
COMMAND_TIMEOUT_S = 60.0
# Commands still running this long after the run started are killed, so that
# a hung program still ends the run well inside three minutes.
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_p50_s": "s",
    "slowest_cmd_s": "s",
    "peak_rss_mb": "MB",
}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """One finished command, as the benchmark saw it from outside."""

    code: int
    wall_s: float
    setup_s: float
    rss_kb: int
    stdout: bytes
    stderr: str

    def spans(self) -> Optional[dict]:
        for line in self.stderr.splitlines():
            if line.startswith("@bench spans "):
                return json.loads(line[len("@bench spans "):])
        return None


def spawn(
    argv: Sequence[str], trace: bool, env: Dict[str, str], deadline: float = float("inf")
) -> Outcome:
    """Run one command to completion, or kill it at its timeout or the run's
    ``deadline`` (a ``time.monotonic()`` value); stdout and stderr go through files."""
    out_path, err_path = TMP_DIR / "stdout", TMP_DIR / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    args = [sys.executable, str(BENCH / "child.py")] + (["--trace"] if trace else []) + list(argv)
    start = _now_ns()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timeout = max(0.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic()))
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    end = _now_ns()
    stderr = err_path.read_text(errors="replace")
    ready = end
    for line in stderr.splitlines():
        if line.startswith("@bench ready "):
            ready = int(line.split()[2])
            break
    return Outcome(
        code=os.waitstatus_to_exitcode(status),
        wall_s=(end - start) * 1e-9,
        setup_s=(ready - start) * 1e-9,
        rss_kb=usage.ru_maxrss,
        stdout=out_path.read_bytes(),
        stderr=stderr,
    )


@dataclass
class Pass:
    traced: bool
    wall_s: float
    outcomes: List[Outcome]
    failures: List[Optional[str]]


def run_pass(
    cmds: Sequence[workloads.Command], traced: bool, env, expected, deadline=float("inf")
) -> Pass:
    start = _now_ns()
    outcomes = [spawn(cmd.argv, traced, env, deadline) for cmd in cmds]
    wall = (_now_ns() - start) * 1e-9
    failures = checks.check_pass(
        cmds, [o.code for o in outcomes], [o.stdout for o in outcomes], expected
    )
    return Pass(traced, wall, outcomes, failures)


def measure(cmds, seconds: float, trace: bool, env, expected, deadline: float) -> List[Pass]:
    """Closed loop of passes; a traced run alternates untraced and traced passes."""
    kinds = itertools.cycle([False, True] if trace else [False])
    passes: List[Pass] = []
    start = time.monotonic()
    while time.monotonic() < deadline:
        traced = next(kinds)
        passes.append(run_pass(cmds, traced, env, expected, deadline))
        upcoming = traced if not trace else not traced
        same = [p.wall_s for p in passes if p.traced == upcoming]
        if same and time.monotonic() - start + statistics.median(same) > seconds:
            break
    return passes


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def end_to_end(passes: Sequence[Pass]) -> Dict[str, float]:
    walls = [o.wall_s for p in passes for o in p.outcomes]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(sum(o.setup_s for o in p.outcomes) for p in passes),
        "cmd_p50_s": statistics.median(walls),
        "slowest_cmd_s": statistics.median(max(o.wall_s for o in p.outcomes) for p in passes),
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p.outcomes) / 1024,
    }


def per_layer(plain: Sequence[Pass], traced: Sequence[Pass]) -> Dict[str, float]:
    summaries = []
    for p in traced:
        dumps = [o.spans() for o in p.outcomes]
        summaries.append(tracer.summarize(dumps, sum(len(o.stdout) for o in p.outcomes)))
    out = tracer.median_metrics(summaries)
    out["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in plain
    )
    return out


def trace_mismatches(cmds, plain: Sequence[Pass], traced: Sequence[Pass]) -> List[str]:
    """Traced commands that passed their checks but whose stdout or exit code
    differs from the untraced run's, or that wrote no spans."""
    base = plain[0].outcomes
    bad = []
    for p in traced:
        for cmd, ref, got, reason in zip(cmds, base, p.outcomes, p.failures):
            if reason:
                continue
            if (got.code, checks.sha256(got.stdout)) != (ref.code, checks.sha256(ref.stdout)):
                bad.append(f"{cmd.key}: traced output differs from untraced")
            elif got.spans() is None:
                bad.append(f"{cmd.key}: traced command wrote no spans")
    return bad


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lieconf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_expected() -> Dict[str, dict]:
    return json.loads(EXPECTED.read_text())["commands"]


def record(env) -> int:
    """Run the default seed's pass of every workload and store exit codes and digests."""
    commands = {}
    for name in workloads.WORKLOADS:
        cmds = workloads.generate(name, workloads.DEFAULT_SEED)
        p = run_pass(cmds, False, env, {})
        bad = [(c.key, f) for c, f in zip(cmds, p.failures) if f]
        if bad:
            print(f"{name}: not recorded, checks failed: {bad}", file=sys.stderr)
            return 1
        for cmd, o in zip(cmds, p.outcomes):
            commands[cmd.key] = {"code": o.code, "sha256": checks.sha256(o.stdout)}
        print(f"{name}: {len(cmds)} commands recorded in {p.wall_s:.1f} s")
    document = {"seed": workloads.DEFAULT_SEED, "source_sha256": source_digest(),
                "commands": commands}
    EXPECTED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()
    if not (SRC / "lieconf" / "cli.py").is_file():
        print(f"error: no lieconf sources under {SRC}", file=sys.stderr)
        return 2
    if not args.record and not args.workload:
        parser.error("--workload is required")

    deadline = time.monotonic() + RUN_DEADLINE_S
    TMP_DIR.mkdir(exist_ok=True)
    env = child_env()
    try:
        # Compile the package's bytecode once, outside any measurement.
        spawn(["algebra", "info", "A1"], False, env, deadline)
        if args.record:
            return record(env)
        cmds = workloads.generate(args.workload, args.seed)
        passes = measure(cmds, args.seconds, bool(args.trace), env, load_expected(), deadline)
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if not plain or (args.trace and not traced):
        print("error: the run's deadline passed before a pass of each kind", file=sys.stderr)
        return 1
    failures = [
        f"{cmd.key}: {reason}"
        for p in passes
        for cmd, reason in zip(cmds, p.failures)
        if reason
    ]
    attempted = len(cmds) * len(passes)
    mismatches = trace_mismatches(cmds, plain, traced) if traced else []
    failed = len(failures) + len(mismatches)
    if traced:
        metrics = per_layer(plain, traced)
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain)
        units = END_TO_END_UNITS
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "commands_per_pass": len(cmds),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [p.wall_s for p in passes],
        "cmd_p50_samples": len(cmds) * len(plain),
        "failed_ratio": failed / attempted,
        "trace_overhead_s": metrics.get("trace.overhead_s"),
        "failures": (failures + mismatches)[:20],
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
