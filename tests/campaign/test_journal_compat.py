"""Historical journal headers (spec v1–v4) still load and resume.

Every spec version bump must keep old journals readable: the header
records both the spec payload and the fingerprint that version
computed over it, and :func:`repro.campaign.spec.payload_fingerprint`
hashes the *stored* payload — so these hand-crafted v1–v4 headers
exercise exactly what a journal written by an older build looks like.
Version 5 additionally records the backend's equivalence contract and
refuses to resume when the recorded contract no longer matches the
named backend's.

Journals recorded under ``vectorized`` — once a separate batched
engine, now a registry alias of ``analytic`` — must keep their
identity: the fingerprints and store digests below were recorded by a
build that still had the separate engine.
"""

import hashlib
import json

import pytest

from repro.campaign import (
    CampaignJournal,
    CampaignSpec,
    ExecutorConfig,
    resume_campaign,
)
from repro.campaign.spec import (
    CampaignError,
    paper_spec,
    payload_fingerprint,
)
from repro.env import EnvironmentKind
from repro.mutation import default_suite
from repro.store import unit_digests

SUITE = default_suite()
NAMES = tuple(mutant.name for mutant in SUITE.mutants)


def historical_fingerprint(payload):
    """How every spec version has computed its fingerprint."""
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def grid_fields():
    return dict(
        name="compat-test",
        kinds=["PTE"],
        device_names=["AMD"],
        test_names=list(NAMES[:2]),
        environment_count=2,
        seed=3,
        iterations_override=None,
    )


def v1_payload():
    # Version 1 called the backend "mode" and always recorded a cap.
    return {
        "version": 1,
        **grid_fields(),
        "mode": "analytic",
        "buggy": False,
        "max_operational_instances": 2000,
    }


def v2_payload():
    return {
        "version": 2,
        **grid_fields(),
        "backend": "analytic",
        "buggy": False,
        "max_operational_instances": None,
    }


def v3_payload():
    return {
        "version": 3,
        **grid_fields(),
        "backend": "analytic",
        "buggy": False,
        "max_operational_instances": None,
        "suite_path": None,
    }


def v4_payload():
    # Version 4 added the persistent-store knobs (non-grid fields);
    # version 5 added the recorded equivalence contract on top.
    return {
        "version": 4,
        **grid_fields(),
        "backend": "analytic",
        "buggy": False,
        "max_operational_instances": None,
        "suite_path": None,
        "store_path": None,
        "store_policy": "off",
    }


def v5_payload():
    return dict(v4_payload(), version=5, equivalence="bitwise")


def vectorized_payloads():
    """The v2–v5 headers as recorded under the ``vectorized`` name
    (v1 predates the backend registry and had no such backend)."""
    return [
        dict(make(), backend="vectorized")
        for make in (v2_payload, v3_payload, v4_payload, v5_payload)
    ]


#: What each version recorded as the header fingerprint of the
#: ``vectorized`` payloads above, in order v2–v5.
VECTORIZED_FINGERPRINTS = (
    "b2d3a4c2cc213d54",
    "380f92447518f38f",
    "66f5f26e175ca92a",
    "0d28f6da18f5cac6",
)
#: The store addresses of that grid's four units under ``vectorized``.
VECTORIZED_DIGESTS = (
    "60766370170c2f69cb00e513371c31c1b69f8187766d5667f82303fd8c0dcf3c",
    "63ad287090006b7b78a280343573f4b9d4bf6b449e95d8af0fb78ba22b9031f7",
    "88a3eefb75ef30ab30a7ced2b2deb2f74d0db9c8408060422a49b6f6915de076",
    "b1559558523a4e952f09346593862ed96eaa712a57c5133513739805026d1c44",
)


def historical_inputs():
    """Every historical header with the backend it names."""
    return [
        (payload, payload.get("backend", "analytic"))
        for payload in (
            v1_payload(), v2_payload(), v3_payload(), v4_payload(),
            *vectorized_payloads(),
        )
    ]


def write_journal(path, payload):
    # v1–v3 hashed the raw payload (they had no non-grid fields);
    # v4 onward scrubs store/equivalence fields first.  Both are what
    # payload_fingerprint computes for the respective payloads.
    header = {
        "type": "header",
        "version": 1,
        "fingerprint": payload_fingerprint(payload),
        "spec": payload,
    }
    path.write_text(json.dumps(header) + "\n")


class TestHistoricalHeaders:
    def test_v1_through_v4_headers_load(self, tmp_path):
        for index, (payload, backend) in enumerate(historical_inputs()):
            path = tmp_path / f"h{index}.jsonl"
            write_journal(path, payload)
            spec = CampaignJournal(path).load_spec()
            assert spec.name == "compat-test"
            assert spec.backend == backend
            assert spec.store_policy == "off"
            assert spec.store_path is None

    def test_historical_journals_resume(self, tmp_path):
        runs = {}
        for index, (payload, backend) in enumerate(historical_inputs()):
            path = tmp_path / f"h{index}.jsonl"
            write_journal(path, payload)
            outcome = resume_campaign(
                path, config=ExecutorConfig(workers=1)
            )
            assert outcome.complete
            assert outcome.metrics.units_done == 4  # 2 envs × 2 tests
            result = outcome.results[EnvironmentKind.PTE]
            assert result.backend == backend
            runs.setdefault(backend, []).append(result.runs)
        # Every header resumes to the same runs, whichever name it
        # recorded: the alias is bit-identical to analytic.
        distinct = {
            tuple(result_runs)
            for per_backend in runs.values()
            for result_runs in per_backend
        }
        assert len(distinct) == 1

    def test_vectorized_fingerprints_unchanged(self):
        for payload, recorded in zip(
            vectorized_payloads(), VECTORIZED_FINGERPRINTS
        ):
            assert payload_fingerprint(payload) == recorded
            # Loaded and re-serialized as v5, every one of them names
            # the same grid.
            spec = CampaignSpec.from_dict(payload)
            assert spec.fingerprint() == VECTORIZED_FINGERPRINTS[-1]

    def test_vectorized_store_digests_unchanged(self):
        for payload in vectorized_payloads():
            digests = unit_digests(CampaignSpec.from_dict(payload))
            assert tuple(
                digests[index] for index in sorted(digests)
            ) == VECTORIZED_DIGESTS

    def test_vectorized_paper_grid_identity_unchanged(self):
        spec = paper_spec(
            NAMES[:4],
            environment_count=3,
            seed=42,
            backend="vectorized",
            kinds=("PTE", "SITE"),
            device_names=("AMD",),
        )
        assert spec.fingerprint() == "20605113ef4eb7b8"
        digests = unit_digests(spec)
        assert len(digests) == 24
        # SHA-256 over the 24 digests in unit order, one per line.
        joined = "\n".join(digests[index] for index in sorted(digests))
        assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == (
            "c84698be2aaf17973f07f855b2f4898a8bb0649d73e59c2d0bb37709852f187f"
        )

    def test_payload_fingerprint_matches_historical(self):
        # The validator reproduces what each old version recorded.
        for payload in (v1_payload(), v2_payload(), v3_payload()):
            assert payload_fingerprint(payload) == historical_fingerprint(
                payload
            )

    def test_store_fields_do_not_change_identity(self):
        # Turning a store on must never orphan a journal: the v4
        # fingerprint with store fields equals the same grid without.
        base = CampaignSpec(
            name="compat-test",
            kinds=("PTE",),
            device_names=("AMD",),
            test_names=NAMES[:2],
            environment_count=2,
            seed=3,
        )
        stored = CampaignSpec(
            name="compat-test",
            kinds=("PTE",),
            device_names=("AMD",),
            test_names=NAMES[:2],
            environment_count=2,
            seed=3,
            store_path="/some/store",
            store_policy="reuse",
        )
        assert base.fingerprint() == stored.fingerprint()

    def test_equivalence_does_not_change_identity(self):
        # The v5 recorded contract is derived metadata; scrubbing it
        # keeps a v4 payload's grid fingerprint stable across the
        # version bump (fields aside from "version" itself).
        v4 = v4_payload()
        v5 = dict(v4, equivalence="bitwise")
        assert payload_fingerprint(v4) == payload_fingerprint(v5)

    def test_v5_round_trips(self):
        spec = CampaignSpec(
            name="compat-test",
            kinds=("PTE",),
            device_names=("AMD",),
            test_names=NAMES[:2],
            environment_count=2,
            seed=3,
            backend="tensor",
        )
        payload = spec.to_dict()
        assert payload["version"] == 5
        assert payload["equivalence"] == "statistical"
        assert CampaignSpec.from_dict(payload) == spec

    def test_contract_mismatch_refused(self):
        # A journal recorded under one contract must not silently
        # resume under another: completed and new units would not be
        # draw-compatible.
        payload = dict(
            v4_payload(),
            version=5,
            backend="tensor",
            equivalence="bitwise",
        )
        with pytest.raises(CampaignError, match="equivalence contract"):
            CampaignSpec.from_dict(payload)

    def test_recorded_contract_accepted_when_current(self):
        payload = dict(
            v4_payload(),
            version=5,
            backend="tensor",
            equivalence="statistical",
        )
        assert CampaignSpec.from_dict(payload).backend == "tensor"

    def test_resume_with_store_on_historical_journal(self, tmp_path):
        # The full upgrade path: a pre-store journal resumes with a
        # store attached via CLI-style overrides.
        path = tmp_path / "v3.jsonl"
        write_journal(path, v3_payload())
        outcome = resume_campaign(
            path,
            config=ExecutorConfig(workers=1),
            store_path=str(tmp_path / "store"),
            store_policy="reuse",
        )
        assert outcome.complete
        assert outcome.metrics.store_writes == 4
