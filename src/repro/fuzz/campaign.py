"""Fuzz campaigns: seed fan-out, triage, shrinking, repro records.

A campaign is a list of seeds executed as :class:`RunSpec` cells on the
existing :class:`~repro.harness.executor.CampaignExecutor` — the fuzzer
inherits its process pool, per-run wall-clock timeouts, bounded retry,
and checkpoint/resume journal for free.  Each worker *regenerates* its
program from ``(seed, profile)`` (sources never cross the process
boundary; determinism makes regeneration exact), runs the oracle stack,
and ships the classification back as the cell payload.

Triage deduplicates failures by full signature — exception type,
invariant family, or first-divergent-state fingerprint — so a thousand
seeds tripping one bug report **one** unique failure.  With shrinking
enabled, the lowest-seed representative of each unique signature is
minimized by :mod:`repro.fuzz.shrink` and written as a self-contained
JSON repro record into the corpus.

Everything in the returned report is deterministic for a pinned seed
list: no timestamps, no durations, sorted iteration everywhere — CI
diffs two runs of the same batch byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path
from typing import Iterable

from ..harness.executor import CampaignExecutor, RunOutcome, RunSpec
from .bugs import seeded_bug
from .corpus import make_repro_record, record_name, write_record
from .generator import GeneratorProfile, generate_program
from .oracle import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_MAX_STEPS,
    PASS,
    STATUSES,
    OracleOutcome,
    classify_source,
)
from .shrink import DEFAULT_BUDGET, shrink_source

#: Scale tag on fuzz run specs (fuzz cells carry no workload scale).
FUZZ_SCALE = "fuzz"

REPORT_SCHEMA = 1


def fuzz_spec(
    seed: int,
    mode: str = "baseline",
    check_invariants: int = 64,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    profile: GeneratorProfile | None = None,
    bug: str | None = None,
) -> RunSpec:
    """The campaign cell for one seed.

    The workload name embeds the seed plus what else decides the cell's
    outcome without being a :class:`RunSpec` field — a digest of the
    generator profile and the seeded-bug name — so the journal never
    serves a cell across profiles or bugs (:meth:`RunSpec.cell_id`).
    """
    profile_json = json.dumps(
        (profile or GeneratorProfile()).as_record(), sort_keys=True
    )
    profile_digest = hashlib.sha256(profile_json.encode()).hexdigest()[:8]
    return RunSpec(
        workload=f"fuzz-{seed:06d}-{profile_digest}"
        + (f"+{bug}" if bug else ""),
        mode=mode,
        scale=FUZZ_SCALE,
        max_cycles=max_cycles,
        seed=seed,
        check_invariants=check_invariants,
    )


def execute_fuzz_spec(
    record: dict,
    profile_record: dict | None = None,
    bug: str | None = None,
) -> dict:
    """Worker task: regenerate the seed's program, run the oracle.

    Module-level (and driven through :func:`functools.partial`) so the
    executor can pickle it into pool workers; the seeded bug is applied
    *inside* the worker so broken-semantics campaigns parallelize too.
    """
    spec = RunSpec.from_record(record)
    profile = (
        GeneratorProfile.from_record(profile_record)
        if profile_record
        else GeneratorProfile()
    )
    generated = generate_program(spec.seed, profile)
    with seeded_bug(bug):
        outcome = classify_source(
            generated.source,
            mode=spec.mode,
            check_invariants=spec.check_invariants,
            max_steps=DEFAULT_MAX_STEPS,
            max_cycles=spec.max_cycles,
        )
    return {
        "stats": {
            "fuzz": outcome.as_record(),
            "num_instructions": generated.num_instructions,
            "attempt": generated.attempt,
        },
        "validated": outcome.ok,
        "halted": True,
    }


def _outcome_of(run_outcome: RunOutcome) -> tuple[OracleOutcome, bool]:
    """Map an executor cell to ``(oracle outcome, synthetic)``.

    ``synthetic`` marks classifications invented for executor-level
    failures (wall-clock kill, generator crash, worker death) — those
    did not come out of the oracle stack and cannot be shrunk against
    it.
    """
    if run_outcome.ok:
        stats = run_outcome.stats or {}
        return OracleOutcome.from_record(stats["fuzz"]), False
    failure = run_outcome.failure
    assert failure is not None  # non-ok outcomes always carry one
    if run_outcome.status == "timeout":
        return (
            OracleOutcome(
                "hang", "hang:WallClockTimeout", failure.message, 0, 0,
            ),
            True,
        )
    return (
        OracleOutcome(
            "crash",
            f"crash:{failure.exception}",
            failure.message,
            0,
            0,
        ),
        True,
    )


def run_fuzz_campaign(
    seeds: Iterable[int],
    mode: str = "baseline",
    check_invariants: int = 64,
    jobs: int = 0,
    budget: float | None = 60.0,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_BUDGET,
    corpus_dir: Path | None = None,
    profile: GeneratorProfile | None = None,
    bug: str | None = None,
    checkpoint: Path | None = None,
    resume: bool = False,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> dict:
    """Run a full fuzz campaign; returns the deterministic triage report.

    ``budget`` is the per-run wall-clock limit in seconds (enforced by
    worker termination when ``jobs >= 1``; inline runs are bounded by
    the oracle's step/cycle watchdogs instead).  ``bug`` applies a named
    :mod:`repro.fuzz.bugs` fixture in every worker and every shrink
    evaluation.  Every oracle-reproducible unique failure is written to
    ``corpus_dir`` as a repro record, shrunk or not.
    """
    seed_list = sorted(set(int(s) for s in seeds))
    profile = profile or GeneratorProfile()
    profile_record = profile.as_record()
    specs = [
        fuzz_spec(seed, mode, check_invariants, max_cycles, profile, bug)
        for seed in seed_list
    ]
    executor = CampaignExecutor(
        jobs=jobs,
        timeout=budget if jobs else None,
        retries=1,
        task=partial(
            execute_fuzz_spec, profile_record=profile_record, bug=bug
        ),
    )
    run_outcomes = executor.run(specs, checkpoint=checkpoint, resume=resume)

    counts = {status: 0 for status in STATUSES}
    by_signature: dict[str, list[tuple[int, OracleOutcome, bool]]] = {}
    for spec, run_outcome in zip(specs, run_outcomes):
        oracle, synthetic = _outcome_of(run_outcome)
        counts[oracle.status] += 1
        if oracle.status != PASS:
            assert oracle.signature is not None
            by_signature.setdefault(oracle.signature, []).append(
                (spec.seed, oracle, synthetic)
            )

    unique_failures = []
    for signature in sorted(by_signature):
        group = sorted(by_signature[signature], key=lambda item: item[0])
        rep_seed, rep_outcome, synthetic = group[0]
        entry: dict = {
            "signature": signature,
            "status": rep_outcome.status,
            "detail": rep_outcome.detail,
            "seeds": [seed for seed, _, _ in group],
            "representative": rep_seed,
            "shrunk": False,
            "instructions": None,
            "record": None,
        }
        if not synthetic:
            entry.update(
                _reduce_and_record(
                    signature,
                    rep_seed,
                    rep_outcome,
                    mode,
                    check_invariants,
                    max_cycles,
                    profile,
                    profile_record,
                    bug,
                    shrink,
                    shrink_budget,
                    corpus_dir,
                )
            )
        unique_failures.append(entry)

    return {
        "schema": REPORT_SCHEMA,
        "mode": mode,
        "check_invariants": check_invariants,
        "profile": profile_record,
        "seeded_bug": bug,
        "seeds": seed_list,
        "num_seeds": len(seed_list),
        "counts": counts,
        "num_unique_failures": len(unique_failures),
        "unique_failures": unique_failures,
    }


def _reduce_and_record(
    signature: str,
    rep_seed: int,
    rep_outcome: OracleOutcome,
    mode: str,
    check_invariants: int,
    max_cycles: int,
    profile: GeneratorProfile,
    profile_record: dict,
    bug: str | None,
    shrink: bool,
    shrink_budget: int,
    corpus_dir: Path | None,
) -> dict:
    """Shrink one unique failure's representative; write its record."""
    generated = generate_program(rep_seed, profile)
    source = generated.source
    instructions = generated.num_instructions
    shrunk = False
    final_outcome = rep_outcome
    if shrink:
        try:
            result = shrink_source(
                source,
                rep_outcome.shrink_key,
                mode=mode,
                check_invariants=check_invariants,
                max_cycles=max_cycles,
                bug=bug,
                budget=shrink_budget,
            )
        except ValueError:
            # The worker's failure does not reproduce here (e.g. an
            # environment-dependent crash): keep the full program so
            # the record still carries everything the worker saw.
            pass
        else:
            source = result.source
            instructions = result.num_instructions
            shrunk = result.reduced
            final_outcome = result.outcome
    name = record_name(signature, rep_seed)
    record = make_repro_record(
        name=name,
        seed=rep_seed,
        source=source,
        signature=final_outcome.signature or signature,
        outcome=final_outcome,
        mode=mode,
        check_invariants=check_invariants,
        profile_record=profile_record,
        config_digest=fuzz_spec(
            rep_seed, mode, check_invariants, max_cycles
        ).config_digest(),
        num_instructions=instructions,
        shrunk=shrunk,
        seeded_bug=bug,
    )
    path = write_record(record, corpus_dir)
    return {
        "shrunk": shrunk,
        "instructions": instructions,
        "record": path.name,
        # The triage signature stays the dedup key; the minimized
        # program's own signature may have shifted location indices.
        "final_signature": final_outcome.signature or signature,
    }
