"""Seeded command lists for the three benchmark workloads.

Every workload is a fixed-shape *pass*: a list of ``lieconf`` command lines,
each run in its own interpreter.  The seed only chooses which members of the
fixed populations below fill each slot, so different seeds do comparable
work.  The populations are literal data, not computed by the program under
test, so a change to the program cannot change what the benchmark asks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` after ``lieconf``, plus what checks need."""

    argv: Tuple[str, ...]
    kind: str
    params: Dict[str, object] = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _cmd(kind: str, *argv: str, **params: object) -> Command:
    return Command(("--format", "json") + argv, kind, params)


# ---------------------------------------------------------------------------
# classify: the paper's classification plus one-shot case queries

FAMILIES = ("slsl", "spsp", "soso", "spso", "BB", "CC", "OO")


def dual_pair_grid(family: str) -> List[Tuple[int, int]]:
    """Valid (n, m) cells with 2 <= n, m <= 6 (so(2) factors are excluded)."""
    n_lo = 3 if family in ("soso", "OO") else 2
    m_lo = 3 if family in ("soso", "OO", "spso") else 2
    return [(n, m) for n in range(n_lo, 7) for m in range(m_lo, 7)]


# The shipped catalog, grouped by ambient: (label, stated level).
CATALOG_BY_AMBIENT = {
    "E8": [("G2xF4-in-E8", "-6"), ("A1xE7-in-E8", "-6"), ("A2xE6-in-E8", "-6")],
    "E7": [("F4xA1-in-E7", "-4"), ("A1xD6-in-E7", "-4"), ("A2xA5-in-E7", "-4")],
    "E6": [("G2xA2-in-E6", "-3"), ("A1xA5-in-E6", "-3"), ("F4-in-E6", "-3")],
    "F4": [
        ("G2xA1-in-F4", "-5/2"),
        ("A1xC3-in-F4", "-5/2"),
        ("A2xA2-in-F4", "-5/2"),
        ("B4-in-F4", "-5/2"),
    ],
    "G2": [("A1xA1-in-G2", "-5/3"), ("A2-in-G2", "-5/3")],
}


def classify(rng: random.Random) -> List[Command]:
    """Three fixed classification reports, then 20 one-shot queries.

    One ``branch dual-pair`` and one ``conformal solve`` per family (cells
    drawn from that family's grid), one ``conformal check`` per catalog
    ambient at the case's stated level, and one check of a diagonal ``slsl``
    case at level -1, which is critical there, so it correctly exits 1.
    """
    cmds = [
        _cmd("table2", "classify", "table2"),
        _cmd("report", "classify", "global"),
        _cmd("report", "classify", "exceptional"),
    ]
    for family in FAMILIES:
        n, m = rng.choice(dual_pair_grid(family))
        cmds.append(_cmd("branch", "branch", "dual-pair", family, str(n), str(m)))
        n, m = rng.choice(dual_pair_grid(family))
        cmds.append(
            _cmd("solve", "conformal", "solve", "--case", f"{family}:{n},{m}",
                 family=family, n=n, m=m)
        )
    for ambient in sorted(CATALOG_BY_AMBIENT):
        label, level = rng.choice(CATALOG_BY_AMBIENT[ambient])
        cmds.append(_cmd("check", "conformal", "check", "--case", label, "--level", level,
                         level=level, balanced=True))
    n = rng.randint(2, 6)
    cmds.append(_cmd("check", "conformal", "check", "--case", f"slsl:{n},{n}", "--level", "-1",
                     level="-1", balanced=False, code=1))
    return cmds


# ---------------------------------------------------------------------------
# modules: large cold modules, one per slot, and Klimyk products

# (type, lowest dim, highest dim): every dominant weight of the type whose
# module dimension lies in the band.  Ranks 3 to 8, E6-E8 included.
WEIGHT_SLOTS = {
    ("A3", 1000, 2000): [
        "0,0,17", "0,0,18", "0,0,19", "0,0,20", "0,1,10", "0,1,11", "0,1,12", "0,1,13",
        "0,2,7", "0,2,8", "0,2,9", "0,3,5", "0,3,6", "0,4,4", "0,4,5", "0,5,3", "0,6,2",
        "0,7,1", "0,8,1", "0,9,0", "0,10,0", "1,0,11", "1,0,12", "1,0,13", "1,1,7",
        "1,1,8", "1,2,4", "1,2,5", "1,3,3", "1,3,4", "1,4,2", "1,5,1", "1,7,0", "1,8,0",
        "2,0,8", "2,0,9", "2,0,10", "2,1,5", "2,1,6", "2,2,3", "2,2,4", "2,3,2", "2,4,1",
        "2,6,0", "3,0,6", "3,0,7", "3,1,4", "3,2,2", "3,3,1", "3,5,0", "4,0,5", "4,0,6",
        "4,1,3", "4,2,1", "4,2,2", "4,3,1", "4,4,0", "5,0,4", "5,0,5", "5,1,2", "5,2,1",
        "5,3,0", "5,4,0", "6,0,3", "6,0,4", "6,1,2", "6,3,0", "7,0,3", "7,1,1", "7,2,0",
        "8,0,2", "8,1,1", "8,2,0", "9,0,2", "9,2,0", "10,0,2", "10,1,0", "11,0,1",
        "11,1,0", "12,0,1", "12,1,0", "13,0,1", "13,1,0", "17,0,0", "18,0,0", "19,0,0",
        "20,0,0",
    ],
    ("B4", 1000, 2000): ["0,0,2,0", "0,1,1,0", "3,0,0,1", "5,0,0,0"],
    ("C5", 500, 1500): [
        "0,2,0,0,0", "1,0,0,0,1", "1,0,0,1,0", "1,0,1,0,0", "2,1,0,0,0", "4,0,0,0,0",
    ],
    ("D6", 300, 1000): [
        "0,0,0,0,0,2", "0,0,0,0,1,1", "0,0,0,0,2,0", "0,0,0,1,0,0", "1,0,0,0,0,1",
        "1,0,0,0,1,0", "1,1,0,0,0,0", "3,0,0,0,0,0",
    ],
    ("A7", 300, 700): [
        "0,0,0,0,0,0,4", "0,0,0,0,0,1,2", "0,0,0,0,0,2,0", "0,0,0,0,1,0,1",
        "0,0,0,1,0,0,1", "0,0,1,0,0,0,1", "0,2,0,0,0,0,0", "1,0,0,0,1,0,0",
        "1,0,0,1,0,0,0", "1,0,1,0,0,0,0", "2,1,0,0,0,0,0", "4,0,0,0,0,0,0",
    ],
    ("E6", 300, 700): ["0,0,0,0,0,2", "0,0,0,0,1,0", "0,0,1,0,0,0", "1,0,0,0,0,1", "2,0,0,0,0,0"],
    ("E7", 8000, 9000): ["0,0,1,0,0,0,0"],
    ("E8", 200, 300): ["0,0,0,0,0,0,0,1"],
    ("F4", 1000, 1300): ["0,1,0,0", "1,0,0,1", "2,0,0,0"],
}

# type -> (small factors with dim 10-80, larger factors with dim 100-400).
TENSOR_SLOTS = {
    "A5": (
        ["0,0,0,0,2", "0,0,0,0,3", "0,0,1,0,0", "1,0,0,0,1", "2,0,0,0,0", "3,0,0,0,0"],
        [
            "0,0,0,0,4", "0,0,0,1,2", "0,0,0,2,0", "0,0,1,0,1", "0,0,1,1,0", "0,0,2,0,0",
            "0,1,0,0,2", "0,1,0,1,0", "0,1,1,0,0", "0,2,0,0,0", "1,0,0,0,2", "1,0,1,0,0",
            "2,0,0,0,1", "2,0,0,1,0", "2,1,0,0,0", "4,0,0,0,0",
        ],
    ),
    "D5": (
        ["0,0,0,0,1", "0,0,0,1,0", "0,1,0,0,0", "1,0,0,0,0"],
        [
            "0,0,0,0,2", "0,0,0,1,1", "0,0,0,2,0", "0,0,1,0,0", "1,0,0,0,1", "1,0,0,1,0",
            "1,1,0,0,0", "3,0,0,0,0",
        ],
    ),
    "E6": (
        ["0,0,0,0,0,1", "0,1,0,0,0,0", "1,0,0,0,0,0"],
        ["0,0,0,0,0,2", "0,0,0,0,1,0", "0,0,1,0,0,0", "2,0,0,0,0,0"],
    ),
}


def modules(rng: random.Random) -> List[Command]:
    """Per weight slot: ``rep dim``, then ``rep casimir`` (even slots) or
    ``rep index`` (odd slots), then ``rep weights``; per tensor slot:
    ``rep dim`` of both factors, then ``rep tensor``.

    The scalar queries come first so the checks can compare the later
    outputs of the same pass against them.
    """
    cmds: List[Command] = []
    for slot, ((typ, _, _), weights) in enumerate(WEIGHT_SLOTS.items()):
        w = rng.choice(weights)
        scalar = "casimir" if slot % 2 == 0 else "index"
        cmds.append(_cmd("dim", "rep", "dim", typ, w, type=typ, weight=w))
        cmds.append(_cmd(scalar, "rep", scalar, typ, w, type=typ, weight=w))
        cmds.append(_cmd("weights", "rep", "weights", typ, w, type=typ, weight=w))
    for typ, (small, large) in TENSOR_SLOTS.items():
        w1, w2 = rng.choice(small), rng.choice(large)
        cmds.append(_cmd("dim", "rep", "dim", typ, w1, type=typ, weight=w1))
        cmds.append(_cmd("dim", "rep", "dim", typ, w2, type=typ, weight=w2))
        cmds.append(_cmd("tensor", "rep", "tensor", typ, w1, w2, type=typ, w1=w1, w2=w2))
    return cmds


# ---------------------------------------------------------------------------
# series: the four identities and the character models

IDENTITY_ORDERS = {
    "delta_eta": (290, 310),
    "eq92": (245, 255),
    "kw": (290, 310),
    "thm92": (245, 255),
}
CHARACTER_ORDERS = (145, 155)
CHARACTER_ELLS = {"sl2_m32": (0, 3), "sl2_m4": (0, 3), "weyl_M3": (0, 0), "delta": (0, 0)}


def series(rng: random.Random) -> List[Command]:
    """``qseries verify`` per identity and ``qseries char`` per model, at
    orders (and ell) drawn from the fixed bands above."""
    cmds: List[Command] = []
    for name, (lo, hi) in IDENTITY_ORDERS.items():
        order = rng.randint(lo, hi)
        cmds.append(_cmd("verify", "qseries", "verify", name, "--order", str(order),
                         order=order))
    for model, (lo, hi) in CHARACTER_ELLS.items():
        ell, order = rng.randint(lo, hi), rng.randint(*CHARACTER_ORDERS)
        cmds.append(_cmd("char", "qseries", "char", model, str(ell), "--order", str(order),
                         model=model, ell=ell, order=order))
    return cmds


WORKLOADS = {"classify": classify, "modules": modules, "series": series}


def generate(workload: str, seed: int) -> List[Command]:
    """The pass of ``workload`` for ``seed``; the same seed gives the same pass."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
