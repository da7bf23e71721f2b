"""Correctness checks on the outputs of the three workloads.

Every check is a pure function of a result and a reference and returns
a list of problems (empty when the result is correct), so the tests in
``test_perfbench.py`` can feed it perturbed results.  References are
read from the checkout under test and the checks run after the timed
region ends.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path("tests") / "data" / "golden_simstats.json"


def load_golden(root: Path) -> dict:
    """The pinned tiny-scale SimStats of the golden matrix."""
    with open(root / GOLDEN) as fh:
        return json.load(fh)


def check_cell(golden: dict, workload: str, mode: str, outcome) -> list[str]:
    """One figure cell: it ran, the workload validator passed, and
    every pinned counter equals the golden value."""
    key = f"{workload}/{mode}"
    if not outcome.ok:
        return [f"{key}: cell {outcome.status}"]
    problems = []
    if not outcome.validated:
        problems.append(f"{key}: workload validator did not pass")
    want = golden["stats"].get(key)
    if want is None:
        return problems + [f"{key}: no golden reference"]
    stats = outcome.stats or {}
    for field in golden["fields"]:
        if stats.get(field) != want[field]:
            problems.append(
                f"{key}: {field} = {stats.get(field)!r}, golden {want[field]!r}"
            )
    return problems


def check_figure_text(name: str, text: str) -> list[str]:
    """A rendered figure must not mark any cell as failed."""
    return [f"{name}: rendered a failed cell"] if "FAILED(" in text else []


def check_sampled(report: dict, interpreter_instructions: int) -> list[str]:
    """One sampled op: the functional pass counted exactly what the
    golden interpreter executed, and every planned window produced a
    measured row."""
    key = f"{report['workload']}/{report['mode']}@{report['scale']}"
    problems = []
    total = report["functional"]["total_instructions"]
    if total != interpreter_instructions:
        problems.append(
            f"{key}: functional total {total}, "
            f"interpreter {interpreter_instructions}"
        )
    windows = report["windows"]
    planned = len(report["functional"]["positions"])
    if len(windows) != planned or report["functional"]["captured"] != planned:
        problems.append(
            f"{key}: {len(windows)} window(s) settled of {planned} planned"
        )
    for row in windows:
        if row["instructions"] <= 0 or row["cycles"] <= 0:
            problems.append(f"{key}: window {row['index']} measured nothing")
    return problems


def check_repeat(first: dict, second: dict) -> list[str]:
    """A recurring op must produce a byte-identical report."""
    a = json.dumps(first, sort_keys=True)
    b = json.dumps(second, sort_keys=True)
    if a != b:
        return [
            f"{first['workload']}/{first['mode']}@{first['scale']}: "
            f"repeated op gave a different report"
        ]
    return []


def check_fuzz(report: dict, payloads: list[dict]) -> list[str]:
    """One fuzz batch: every program got the oracle's ``pass`` verdict,
    and the batch report agrees with the per-program verdicts."""
    problems = []
    counts = report["counts"]
    passed = sum(1 for p in payloads if p["stats"]["fuzz"]["status"] == "pass")
    if counts.get("pass") != report["num_seeds"]:
        problems.append(
            f"fuzz: {report['num_seeds'] - counts.get('pass', 0)} of "
            f"{report['num_seeds']} program(s) did not pass: "
            + ", ".join(u["signature"] for u in report["unique_failures"])
        )
    if passed != counts.get("pass") or len(payloads) != report["num_seeds"]:
        problems.append(
            f"fuzz: {passed} passing verdicts seen of {len(payloads)} "
            f"programs, report says {counts.get('pass')} of "
            f"{report['num_seeds']}"
        )
    return problems
