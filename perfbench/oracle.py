"""Correctness oracle: replay the server's anatomizer and recheck answers.

The server's publication is an
:class:`~repro.core.incremental.IncrementalAnatomizer` with the plan's
schema, ``l`` and seed, fed the plan's ingest calls in order.  Replaying
the same calls in process gives the same sealed groups, so every answer
can be recomputed with
``AnatomyEstimator(release_at(version)).estimate_workload(...,
mode="exact")`` and compared bit for bit.

An operation fails when any of its requests got a non-2xx status or a
socket error, when an answer or a reported version is wrong, or when an
ingest-fresh probe is answered below the acknowledged version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.incremental import IncrementalAnatomizer
from repro.query.estimators import AnatomyEstimator
from repro.query.predicates import CountQuery
from repro.service.registry import schema_from_json

from closedloop import Exchange, ok
from plan import L, PUBLICATION_SEED, Plan

#: Earlier ingest-fresh cycles and batch-scan requests whose answer
#: values are recomputed; the last operation is always recomputed too.
VALUE_SAMPLE = 8


@dataclass
class Verdict:
    failed: list[bool]
    #: Failures from wrong answers or versions (not transport errors).
    wrong: int
    audit_ok: bool
    errors: list[str]

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.audit_ok


def _query(schema, spec: dict) -> CountQuery:
    """The query the server parses from one non-decoded spec."""
    return CountQuery(schema, spec["qi"], spec["sensitive"])


def _same(got, expected: float) -> bool:
    return isinstance(got, float) and got.hex() == float(expected).hex()


def _value_checked(plan: Plan, n: int) -> set[int]:
    """A seeded sample of earlier operations, plus the last one."""
    rng = np.random.default_rng([plan.seed, 7])
    earlier = rng.choice(n - 1, size=min(VALUE_SAMPLE, n - 1),
                         replace=False)
    return set(earlier.tolist()) | {n - 1}


def check(plan: Plan, exchanges: list[Exchange],
          publication: dict) -> Verdict:
    """Judge every timed operation of one run."""
    schema = schema_from_json(json.loads(plan.setup[0].body)["schema"])
    replay = IncrementalAnatomizer(schema, L, seed=PUBLICATION_SEED)
    for rows in plan.load_chunks:
        replay.insert_codes(rows)
    base_version = replay.version
    cycle_versions = []
    for rows in plan.cycle_chunks:
        replay.insert_codes(rows)
        cycle_versions.append(replay.version)
    cycle_versions = cycle_versions[plan.scale.warmup_ops:]
    failed = [not all(ok(status) for status, _, _ in ex.replies)
              for ex in exchanges]
    verdict = Verdict(failed, 0, False, [])
    batch = plan.workload == "batch-scan"
    checked = _value_checked(plan, len(exchanges)) \
        if plan.workload != "point-lookup" else set(range(len(exchanges)))
    #: (operation, answers, specs) whose values are recomputed in one
    #: engine pass on the static release.
    pending = []
    for i, (ex, op) in enumerate(zip(exchanges, plan.timed)):
        if failed[i]:
            continue
        try:
            replies = [json.loads(body) for _, body, _ in ex.replies]
            specs = [json.loads(request.body) for request in op]
            if plan.workload == "ingest-fresh":
                ack, probe = replies
                problem = _cycle_problem(ack, probe, cycle_versions[i])
                if problem is None and i in checked:
                    release = replay.publish(at_version=probe["version"])
                    value = AnatomyEstimator(release).estimate_workload(
                        [_query(schema, specs[1])], mode="exact")[0]
                    if not _same(probe["answer"], value):
                        problem = f"probe answer {probe['answer']!r} != " \
                                  f"{value!r}"
            else:
                answers = replies[0]["answers"] if batch else replies
                specs = specs[0]["queries"] if batch else specs
                problem = _static_problem(answers, specs, base_version)
                if problem is None and i in checked:
                    pending.append((i, answers, specs))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"malformed reply: {exc!r}"
        if problem is not None:
            _fail(verdict, i, problem)
    if pending:
        estimator = AnatomyEstimator(replay.publish(at_version=base_version))
        values = iter(estimator.estimate_workload(
            [_query(schema, spec) for _, _, specs in pending
             for spec in specs], mode="exact"))
        for i, answers, _ in pending:
            wrong = [a["answer"] for a in answers
                     if not _same(a["answer"], next(values))]
            if wrong:
                _fail(verdict, i, f"{len(wrong)} wrong answers, first "
                                  f"{wrong[0]!r}")
    audit = publication.get("privacy_audit") or {}
    verdict.audit_ok = bool(audit.get("ok")) and \
        audit.get("audited_version") == publication.get("version")
    if not verdict.audit_ok:
        verdict.errors.append(f"privacy audit not OK at the end: {audit!r}")
    return verdict


def _fail(verdict: Verdict, i: int, problem: str) -> None:
    verdict.failed[i] = True
    verdict.wrong += 1
    verdict.errors.append(f"operation {i}: {problem}")


def _cycle_problem(ack: dict, probe: dict, expected: int) -> str | None:
    if ack["version"] != expected:
        return (f"ingest acknowledged version {ack['version']}, replay "
                f"sealed {expected}")
    if probe["version"] < ack["version"]:
        return (f"probe answered at version {probe['version']} below "
                f"acknowledged {ack['version']}")
    if probe["version"] != expected:
        return f"probe version {probe['version']} is not {expected}"
    return None


def _static_problem(answers: list[dict], specs: list[dict],
                    version: int) -> str | None:
    if len(answers) != len(specs):
        return f"{len(answers)} answers for {len(specs)} queries"
    if any(a["version"] != version for a in answers):
        return f"an answer is not at the static version {version}"
    return None
