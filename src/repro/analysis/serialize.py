"""JSON (de)serialisation of tuning results.

The paper's artifact exchanges tuning statistics as JSON files (one
per device/preset); this module provides the equivalent for our
:class:`~repro.env.tuning.TuningResult`, so results can be archived
and re-analysed without rerunning the experiments.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from pathlib import Path
from typing import Any, Dict, Union

from repro.env.environment import EnvironmentKind, TestingEnvironment
from repro.env.parameters import EnvironmentParameters
from repro.env.runner import TestRun
from repro.env.tuning import TuningResult
from repro.errors import AnalysisError, ReproError

FORMAT_VERSION = 1

#: Field names of :class:`EnvironmentParameters`, in declaration order
#: (the key order ``dataclasses.asdict`` gives, at a twentieth of its
#: cost: every field is a plain int).
_PARAMETER_FIELDS = tuple(
    field.name for field in dataclasses.fields(EnvironmentParameters)
)
_parameter_values = operator.attrgetter(*_PARAMETER_FIELDS)


def environment_to_dict(environment: TestingEnvironment) -> Dict[str, Any]:
    return {
        "kind": environment.kind.value,
        "env_key": environment.env_key,
        "parameters": dict(
            zip(_PARAMETER_FIELDS, _parameter_values(environment.parameters))
        ),
    }


def environment_from_dict(payload: Dict[str, Any]) -> TestingEnvironment:
    try:
        kind = EnvironmentKind(payload["kind"])
        parameters = EnvironmentParameters(**payload["parameters"])
        return TestingEnvironment(
            kind=kind,
            parameters=parameters,
            env_key=payload["env_key"],
        )
    except (KeyError, TypeError, ValueError, ReproError) as error:
        raise AnalysisError(f"malformed environment payload: {error}")


def run_to_dict(run: TestRun) -> Dict[str, Any]:
    return {
        "test": run.test_name,
        "device": run.device_name,
        "environment": environment_to_dict(run.environment),
        "iterations": run.iterations,
        "instances_per_iteration": run.instances_per_iteration,
        "kills": run.kills,
        "seconds": run.seconds,
    }


def run_from_dict(payload: Dict[str, Any]) -> TestRun:
    try:
        return TestRun(
            test_name=payload["test"],
            device_name=payload["device"],
            environment=environment_from_dict(payload["environment"]),
            iterations=payload["iterations"],
            instances_per_iteration=payload["instances_per_iteration"],
            kills=payload["kills"],
            seconds=payload["seconds"],
        )
    except KeyError as error:
        raise AnalysisError(f"malformed run payload: missing {error}")


def tagged_run_to_dict(kind: EnvironmentKind, run: TestRun) -> Dict[str, Any]:
    """A run record that also names its tuning family.

    Campaign journals interleave runs from several kinds in one JSONL
    stream, so each record carries its kind (plain ``result_to_dict``
    files store the kind once, at the top level).
    """
    payload = run_to_dict(run)
    payload["kind"] = kind.value
    return payload


def tagged_run_from_dict(
    payload: Dict[str, Any]
) -> "tuple[EnvironmentKind, TestRun]":
    try:
        kind = EnvironmentKind(payload["kind"])
    except (KeyError, ValueError) as error:
        raise AnalysisError(f"malformed tagged run payload: {error}")
    return kind, run_from_dict(payload)


def jsonl_line(payload: Dict[str, Any]) -> str:
    """One compact JSONL record (no newline)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def iter_jsonl(
    path: Union[str, Path], tolerate_truncated_tail: bool = True
) -> "list[Dict[str, Any]]":
    """Parse a JSONL file, optionally forgiving a torn final line.

    A process killed mid-append leaves at most one incomplete trailing
    line; checkpoint recovery treats that as "the last record was never
    written" rather than as corruption.  An unparsable line anywhere
    else is a real error.
    """
    records: "list[Dict[str, Any]]" = []
    lines = Path(path).read_text().splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if tolerate_truncated_tail and number == len(lines):
                break
            raise AnalysisError(
                f"invalid JSONL in {path} at line {number}: {error}"
            )
    return records


def result_to_dict(result: TuningResult) -> Dict[str, Any]:
    payload = {
        "version": FORMAT_VERSION,
        "kind": result.kind.value,
        "runs": [run_to_dict(run) for run in result.runs],
    }
    # Additive field (format version unchanged): which execution
    # backend produced the runs.  Omitted when unknown, so archives
    # written before backend recording round-trip unchanged.
    if result.backend is not None:
        payload["backend"] = result.backend
    return payload


def result_from_dict(payload: Dict[str, Any]) -> TuningResult:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise AnalysisError(
            f"unsupported stats format version: {version!r}"
        )
    kind = EnvironmentKind(payload["kind"])
    runs = [run_from_dict(entry) for entry in payload["runs"]]
    return TuningResult(kind=kind, runs=runs, backend=payload.get("backend"))


#: Encodes one run's scalars in a single call of the C encoder.  With
#: ``ensure_ascii`` an encoded scalar never holds a raw newline, so the
#: newline item separator splits the output back into the scalars.
_SCALARS = json.JSONEncoder(separators=("\n", ": "))

#: One run of ``json.dumps(result_to_dict(...), indent=2)``, whose
#: dicts nest three levels deep there; ``environment`` is the
#: environment's own indented rendering, re-indented to that depth.
_RUN_BLOCK = (
    "    {{\n"
    '      "test": {test},\n'
    '      "device": {device},\n'
    '      "environment": {environment},\n'
    '      "iterations": {iterations},\n'
    '      "instances_per_iteration": {instances},\n'
    '      "kills": {kills},\n'
    '      "seconds": {seconds}\n'
    "    }}"
)


def save_result(result: TuningResult, path: Union[str, Path]) -> None:
    """Write a tuning result to a JSON file.

    The file holds exactly ``json.dumps(result_to_dict(result),
    indent=2)``, streamed run by run: each environment's block is
    rendered once, and each run's scalars go through the C encoder
    instead of the pure-Python indenting one.
    """
    blocks: Dict[TestingEnvironment, str] = {}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            '{\n  "version": %s,\n  "kind": %s,\n  "runs": ['
            % (json.dumps(FORMAT_VERSION), json.dumps(result.kind.value))
        )
        separator = "\n"
        for run in result.runs:
            block = blocks.get(run.environment)
            if block is None:
                block = json.dumps(
                    environment_to_dict(run.environment), indent=2
                ).replace("\n", "\n      ")
                blocks[run.environment] = block
            test, device, iterations, instances, kills, seconds = (
                _SCALARS.encode(
                    [
                        run.test_name,
                        run.device_name,
                        run.iterations,
                        run.instances_per_iteration,
                        run.kills,
                        run.seconds,
                    ]
                )[1:-1].split("\n")
            )
            handle.write(separator)
            handle.write(
                _RUN_BLOCK.format(
                    test=test,
                    device=device,
                    environment=block,
                    iterations=iterations,
                    instances=instances,
                    kills=kills,
                    seconds=seconds,
                )
            )
            separator = ",\n"
        handle.write("\n  ]" if result.runs else "]")
        if result.backend is not None:
            handle.write(',\n  "backend": %s' % json.dumps(result.backend))
        handle.write("\n}")


def load_result(path: Union[str, Path]) -> TuningResult:
    """Read a tuning result from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise AnalysisError(f"invalid JSON in {path}: {error}")
    return result_from_dict(payload)
