"""Output checks for benchmark commands.

A command passes when its exit code and stdout digest match the recorded
ones (for every command line recorded in ``expected.json``), and when its
JSON payload carries the invariants of its kind.  The invariants hold for
every seed; several compare a command's output with an earlier command of
the same pass, which is why the workloads order ``rep dim`` before the
commands that need it.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from workloads import Command

_EXCEPTIONAL_DIMS = {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}


def algebra_dim(label: str) -> int:
    """Dimension of a simple algebra from its type label, by closed form."""
    if label in _EXCEPTIONAL_DIMS:
        return _EXCEPTIONAL_DIMS[label]
    match = re.fullmatch(r"([ABCD])(\d+)", label)
    if not match:
        raise ValueError(f"unknown algebra type {label!r}")
    family, n = match.group(1), int(match.group(2))
    return {"A": n * (n + 2), "B": n * (2 * n + 1), "C": n * (2 * n + 1), "D": n * (2 * n - 1)}[
        family
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class PassContext:
    """Outputs of earlier commands in the same pass, for cross-checks."""

    def __init__(self) -> None:
        self.dims: Dict[tuple, int] = {}
        self.indices: Dict[tuple, Fraction] = {}
        self.table2: Dict[tuple, List[str]] = {}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _slot(cmd: Command) -> tuple:
    return cmd.params["type"], cmd.params["weight"]


def _check_table2(cmd, payload, ctx):
    rows = payload["rows"]
    _require(len(rows) == 111, f"table2 has {len(rows)} rows, expected 111")
    for row in rows:
        _require(row["levels"], f"table2 row {row} has no candidate level")
        ctx.table2[(row["family"], row["n"], row["m"])] = row["levels"]


def _check_report(cmd, payload, ctx):
    rows = payload["rows"]
    _require(rows, "report has no rows")
    bad = [row["label"] for row in rows if row["status"] != "ok"]
    _require(not bad, f"report rows not ok: {bad}")


def _check_branch(cmd, payload, ctx):
    factors = sum(algebra_dim(f["type"]) for f in payload["factors"])
    ambient = algebra_dim(payload["ambient"])
    _require(
        payload["p_dim"] + factors == ambient,
        f"p_dim {payload['p_dim']} + factors {factors} != dim {payload['ambient']} = {ambient}",
    )


def _check_solve(cmd, payload, ctx):
    levels = [row["level"] for row in payload["rows"]]
    _require(levels, "no candidate level")
    p = cmd.params
    grid_levels = ctx.table2.get((p["family"], p["n"], p["m"]))
    if grid_levels is not None:
        _require(levels == grid_levels, f"levels {levels} differ from table2 {grid_levels}")


def _check_check(cmd, payload, ctx):
    _require(payload["level"] == cmd.params["level"], f"level {payload['level']}")
    balanced = cmd.params["balanced"]
    _require(payload["all_balanced"] is balanced, f"all_balanced is not {balanced}")


def _check_dim(cmd, payload, ctx):
    _require(isinstance(payload["dim"], int) and payload["dim"] > 0, f"dim {payload['dim']}")
    ctx.dims[_slot(cmd)] = payload["dim"]


def _check_casimir(cmd, payload, ctx):
    value = Fraction(payload["casimir"])
    _require(value > 0, f"casimir {value} of a non-trivial module")
    # index = dim * casimir / (2 dim g); the weights check compares it.
    dim = ctx.dims[_slot(cmd)]
    ctx.indices[_slot(cmd)] = dim * value / (2 * algebra_dim(cmd.params["type"]))


def _check_index(cmd, payload, ctx):
    value = Fraction(payload["index"])
    _require(value > 0, f"index {value} of a non-trivial module")
    ctx.indices[_slot(cmd)] = value


def _check_weights(cmd, payload, ctx):
    total = sum(row["mult"] for row in payload["rows"])
    dim = ctx.dims[_slot(cmd)]
    _require(payload["dim"] == total == dim, f"weights sum {total}, dim {payload['dim']}, {dim}")
    top = payload["rows"][0]["weight"]
    _require(top == f"[{cmd.params['weight']}]", f"first weight {top} is not the highest")
    # tr(h^2) over the module for the coroot h of a long simple root is
    # 4 * index; short roots give more, hence the minimum over i.
    weights = [(json.loads(row["weight"]), row["mult"]) for row in payload["rows"]]
    rank = len(weights[0][0])
    index = Fraction(min(sum(m * w[i] ** 2 for w, m in weights) for i in range(rank)), 4)
    recorded = ctx.indices[_slot(cmd)]
    _require(index == recorded, f"index from the weights {index} != {recorded} from rep")


def _check_tensor(cmd, payload, ctx):
    p = cmd.params
    expect = ctx.dims[(p["type"], p["w1"])] * ctx.dims[(p["type"], p["w2"])]
    summed = sum(row["mult"] * row["dim"] for row in payload["rows"])
    _require(
        payload["total_dim"] == summed == expect,
        f"total_dim {payload['total_dim']}, components {summed}, product {expect}",
    )


def _check_verify(cmd, payload, ctx):
    _require(payload["verified"] is True, f"identity failed at {payload['mismatch']}")
    _require(payload["order"] == cmd.params["order"], f"order {payload['order']}")


def _leading_term(model: str, ell: int) -> tuple:
    if model == "sl2_m32":
        return Fraction(3, 8) + Fraction(ell * (ell + 2), 2), Fraction(ell + 1)
    if model == "sl2_m4":
        return Fraction(-1, 4) - Fraction(ell * (ell + 1), 2), Fraction(2 * ell + 1)
    if model == "weyl_M3":
        return Fraction(1, 8), Fraction(1)
    return Fraction(0), Fraction(1)


def _check_char(cmd, payload, ctx):
    p = cmd.params
    _require(payload["order"] == p["order"], f"order {payload['order']}")
    terms = [(Fraction(r["exponent"]), Fraction(r["coefficient"])) for r in payload["rows"]]
    _require(terms, "empty series")
    _require(all(e < p["order"] for e, _ in terms), "a term at or above the order")
    _require(terms[0] == _leading_term(p["model"], p["ell"]), f"leading term {terms[0]}")
    if p["model"] == "delta":
        triangular = [Fraction(k * (k + 1), 2) for k in range(p["order"] + 1)]
        expect = [(t, Fraction(1)) for t in triangular if t < p["order"]]
        _require(terms == expect, "delta is not the triangular series")


CHECKS: Dict[str, Callable] = {
    "table2": _check_table2,
    "report": _check_report,
    "branch": _check_branch,
    "solve": _check_solve,
    "check": _check_check,
    "dim": _check_dim,
    "casimir": _check_casimir,
    "index": _check_index,
    "weights": _check_weights,
    "tensor": _check_tensor,
    "verify": _check_verify,
    "char": _check_char,
}


def check_command(
    cmd: Command, code: int, stdout: bytes, ctx: PassContext, expected: Dict[str, dict]
) -> Optional[str]:
    """None when the output is correct, else the reason it is not."""
    recorded = expected.get(cmd.key)
    if recorded is not None:
        if code != recorded["code"]:
            return f"exit code {code}, recorded {recorded['code']}"
        if sha256(stdout) != recorded["sha256"]:
            return "stdout digest differs from the recorded one"
    elif code != cmd.params.get("code", 0):
        return f"exit code {code}"
    try:
        CHECKS[cmd.kind](cmd, json.loads(stdout), ctx)
    except (AssertionError, KeyError, ValueError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_pass(
    cmds: Sequence[Command], codes: Sequence[int], outputs: Sequence[bytes], expected
) -> List[Optional[str]]:
    """Check one pass in order; a command that did not finish gives its own reason."""
    ctx = PassContext()
    return [
        check_command(cmd, code, out, ctx, expected)
        for cmd, code, out in zip(cmds, codes, outputs)
    ]
