"""DNA Visualization benchmark (paper §9.1 #1, from SeBS).

"A simple single-step workflow that, given a DNA sequence file,
generates the corresponding visualization."  One compute-heavy stage;
no synchronisation, no conditionals.  Inputs: 69 KB / 1.1 MB sequence
files (Table 1).  The rendered visualization is written back to storage
at the home region (§9.1 fairness rule 1), so offloading the stage pays
the result's return trip.
"""

from __future__ import annotations

from repro.apps.base import (
    LARGE,
    SMALL,
    BenchmarkApp,
    check_input_size,
    register_app,
)
from repro.cloud.functions import WorkProfile
from repro.common.units import kb, mb
from repro.core.api import ExternalDataSpec, Payload, Workflow

WORKFLOW_NAME = "dna_visualization"

INPUT_SIZES = {SMALL: kb(69), LARGE: mb(1.1)}

_BASES = "ACGT"


def _synthetic_sequence(n_bases: int, seed: int = 7) -> str:
    """A small deterministic DNA string for the real in-handler logic."""
    state = seed
    out = []
    for _ in range(n_bases):
        state = (state * 1103515245 + 12345) % (2**31)
        out.append(_BASES[state % 4])
    return "".join(out)


# Every input carries the same sequence: built once, not per request.
_INPUT_SEQUENCE = _synthetic_sequence(512)


def build_workflow() -> Workflow:
    """Create a fresh workflow instance with its single handler."""
    workflow = Workflow(name=WORKFLOW_NAME, version="1.0")

    @workflow.serverless_function(
        name="visualize",
        memory_mb=1769,
        entry_point=True,
        # ~2 s on the small input, ~6 s on the large one: squiggle-style
        # visualisation is CPU-bound in sequence length.
        profile=WorkProfile(
            base_seconds=1.8,
            seconds_per_mb=4.0,
            cpu_utilization=0.9,
            output_bytes_per_input_byte=1.6,
        ),
        # Visualization artefact written back to home-region storage.
        external_data=ExternalDataSpec(region="us-east-1", size_bytes=kb(120)),
    )
    def visualize(event):
        sequence = (event or {}).get("sequence", "")
        counts = {base: sequence.count(base) for base in _BASES}
        gc_content = (
            (counts["G"] + counts["C"]) / len(sequence) if sequence else 0.0
        )
        # Terminal stage: the result is the workflow output; nothing to
        # invoke downstream.
        return {"gc_content": gc_content, "counts": counts}

    return workflow


def make_input(size: str) -> Payload:
    check_input_size(size)
    return Payload(
        content={"sequence": _INPUT_SEQUENCE, "file": f"{size}.fasta"},
        size_bytes=INPUT_SIZES[size],
    )


register_app(
    BenchmarkApp(
        name=WORKFLOW_NAME,
        build_workflow=build_workflow,
        make_input=make_input,
        input_sizes=INPUT_SIZES,
        has_sync=False,
        has_conditional=False,
        n_stages=1,
        description="Single-step DNA sequence visualization (SeBS).",
    )
)
