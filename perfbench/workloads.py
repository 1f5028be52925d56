"""The benchmark's workloads and the inputs drawn for them from a seed.

Each workload is one `spinsemi run` configuration. They are chosen so that
each module a speed-up could target dominates one workload and barely runs
on another: the generic-operator classical derivatives (`spin`) on
exchange_sweep, the exact engine (`quantum`) on exact_large_spin, and the
integrator (`numerics`/`flow`) on dense_sampling.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

DEFAULT_SEED = 0

# Initial labels are drawn with |s| in this range and a uniform phase. On
# exchange_sweep the stability matrix's derivative calls ranged over 19%
# between labels with |s| in [0.3, 1.0] (2780 to 3308 Hessians per run,
# 18 seeds) and over 8% inside this band (2804 to 3026, 10 seeds), so run_s
# of different seeds stays comparable.
LABEL_RADIUS = (0.45, 0.7)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    two_j: int
    t_max: float
    num_points: int
    why: str
    dominant: str  # module predicted to take the largest self-time share
    sweep: Optional[Tuple[float, ...]] = None

    @property
    def closed_form(self):
        """True when every output column has a closed form to check against."""
        return self.model == "phase_coupling"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exchange_sweep",
            model="exchange_coupling", two_j=10, t_max=0.5, num_points=100,
            # one value: a second doubled the time per call and halved the
            # repeats a run gets, which left run_s too unsteady
            sweep=(1.0,), dominant="spin",
            why="generic operator path: dense classical derivatives dominate, "
                "the exact engine barely runs; goes through the runner's sweep path",
        ),
        Workload(
            name="exact_large_spin",
            model="phase_coupling", two_j=40, t_max=0.05, num_points=100,
            dominant="quantum",
            why="exact engine dominates: one 1681-dim eigendecomposition and "
                "100 dense applies; closed-form classical side is cheap",
        ),
        Workload(
            name="dense_sampling",
            model="phase_coupling", two_j=10, t_max=0.5, num_points=4000,
            dominant="numerics+flow",
            why="integrator dominates: it lands on each of 4000 samples; "
                "largest purity-assembly and CSV-write shares",
        ),
    )
}


@dataclass(frozen=True)
class Labels:
    sx: complex
    sy: complex

    def as_dict(self):
        return {"sx": [self.sx.real, self.sx.imag], "sy": [self.sy.real, self.sy.imag]}


def draw_labels(seed, count):
    """count initial coherent-state labels (sx, sy) from the fixed region.

    Label k does not depend on count, so the first labels of a seed are the
    same whichever number is drawn.
    """
    rng = np.random.default_rng(seed)
    labels = []
    for _ in range(count):
        radius = rng.uniform(*LABEL_RADIUS, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
        sx, sy = radius * np.exp(1j * phase)
        labels.append(Labels(complex(sx), complex(sy)))
    return labels


def config_document(workload, labels, output_path):
    """The JSON text `spinsemi run` would read for this workload."""
    doc = {
        "system": {"two_j": workload.two_j},
        "hamiltonian": {"model": workload.model, "lambda": 1.0},
        "initial_state": labels.as_dict(),
        "time": {"t_max": workload.t_max, "num_points": workload.num_points},
        "outputs": {"path": output_path},
    }
    if workload.sweep:
        doc["sweep"] = {"parameter": "lambda", "values": list(workload.sweep)}
    return json.dumps(doc)
