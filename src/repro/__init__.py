"""repro: context-aware compiling for correlated-noise suppression.

A from-scratch reproduction of "Suppressing Correlated Noise in Quantum
Computers via Context-Aware Compiling" (Seif et al., ISCA 2024,
arXiv:2403.06852): circuit IR, device models, a sign-trajectory noise
simulator, the CA-DD and CA-EC compiler passes, benchmarking protocols, and
the paper's application studies — all driven through a unified runtime with
composable pass pipelines, named backends, and a batched ``run()``
entry point.

Quickstart::

    from repro import Circuit, Task, linear_chain, run, synthetic_device

    device = synthetic_device(linear_chain(4), name="demo", seed=7)
    circuit = Circuit(4)
    ...
    batch = run(
        [
            Task(circuit, observables={"z0": "IIIZ"}, pipeline="ca_ec+dd",
                 realizations=8, seed=0),
            Task(circuit, observables={"z0": "IIIZ"}, pipeline="none",
                 realizations=8, seed=0),
        ],
        device,
        backend="trajectory",   # or "density" for exact small systems
        workers=4,              # unit threads, seed-for-seed deterministic
    )
    suppressed, baseline = batch[0]["z0"], batch[1]["z0"]

Custom pipelines compose passes directly::

    from repro import CADD, CAEC, Orient, Pipeline, Twirl

    pipeline = Pipeline([Orient(), Twirl(), CADD(), CAEC()])
    compiled = pipeline.compile(circuit, device, seed=0)

There is one way in: ``run(Task(...))`` simulates (``backend="density"``
gives the exact reference), and ``pipeline_for(strategy).compile(...)`` or a
custom ``Pipeline`` compiles without simulating.
"""

from .circuits import (
    Circuit,
    Durations,
    Instruction,
    Moment,
    draw,
    gates,
    schedule,
    summary,
)
from .compiler import (
    apply_aligned_dd,
    apply_ca_dd,
    apply_ca_ec,
    apply_orientation,
    apply_staggered_dd,
)
from .device import (
    Device,
    Topology,
    linear_chain,
    ring,
    synthetic_device,
)
from .pauli import Pauli, apply_twirl
from .runtime import (
    BACKENDS,
    CADD,
    CAEC,
    STRATEGIES,
    AlignedDD,
    Backend,
    BatchResult,
    ExecutionPlan,
    Orient,
    Pass,
    Pipeline,
    StaggeredDD,
    Sweep,
    SweepResult,
    Task,
    TaskResult,
    Twirl,
    VectorizedBackend,
    compile_tasks,
    configure,
    get_backend,
    pipeline_for,
    run,
)
from .sim import SimOptions, SimResult

__version__ = "13.0.0"

__all__ = [
    "Circuit",
    "Durations",
    "Instruction",
    "Moment",
    "draw",
    "summary",
    "gates",
    "schedule",
    "STRATEGIES",
    "apply_aligned_dd",
    "apply_ca_dd",
    "apply_ca_ec",
    "apply_orientation",
    "apply_staggered_dd",
    "Device",
    "Topology",
    "linear_chain",
    "ring",
    "synthetic_device",
    "Pauli",
    "apply_twirl",
    "BACKENDS",
    "Backend",
    "BatchResult",
    "ExecutionPlan",
    "Pass",
    "Pipeline",
    "Sweep",
    "SweepResult",
    "Task",
    "TaskResult",
    "compile_tasks",
    "configure",
    "Orient",
    "Twirl",
    "AlignedDD",
    "StaggeredDD",
    "CADD",
    "CAEC",
    "VectorizedBackend",
    "get_backend",
    "pipeline_for",
    "run",
    "SimOptions",
    "SimResult",
    "__version__",
]
