"""Workload definitions: which experiment, with which overrides.

Every workload is a registered harness experiment run through its public
entry point (``run_experiment`` or ``run_portrait``) with the overrides
below.  Why each one was chosen is in README.md.

Only the standard library is imported here, so that the worker can load
this module before its set-up clock starts.
"""

from __future__ import annotations

# Trajectory count of the lattice jump ensemble.  The registered default
# is 5000 (about 150 s); 150 keeps one repetition near 20 s, inside one
# run.  This is for run length only: it does not replace acceptance check
# C11.
LATTICE_TRAJECTORIES = 150

WORKLOADS = {
    "limit_cycle": {
        "experiment": "limit_cycle",
        "kind": "experiment",
        "seeded": False,
        "overrides": {},
    },
    "lattice_jumps": {
        "experiment": "bose_hubbard_losses",
        "kind": "experiment",
        "seeded": True,
        "overrides": {"n_trajectories": LATTICE_TRAJECTORIES},
    },
    "cat_anharmonic": {
        "experiment": "cat_anharmonic",
        "kind": "experiment",
        "seeded": False,
        "overrides": {},
    },
    "portrait_limit_cycle": {
        "experiment": "portrait_limit_cycle",
        "kind": "portrait",
        "seeded": False,
        "overrides": {"portrait": {"t_end": 10.0, "n_out": 101}},
    },
}

# Tiny sizes for the benchmark's own smoke test; not used for measurement.
SMOKE_OVERRIDES = {
    "cat_anharmonic": {
        "times": {"t_end": 1.0, "n_out": 11, "frames": [0.5, 1.0]},
        "grid": {"n_q": 40, "n_p": 40},
    },
    "portrait_limit_cycle": {
        "portrait": {"n_q": 5, "n_p": 5, "t_end": 2.0, "n_out": 21},
    },
}


def _merge(base: dict, over: dict) -> dict:
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def config_dict(workload: str, seed: int, smoke: bool = False) -> dict:
    """The config document of a workload; only seeded workloads use ``seed``."""
    from semilind.harness.experiments import default_config

    spec = WORKLOADS[workload]
    doc = _merge(default_config(spec["experiment"]), spec["overrides"])
    if smoke:
        _merge(doc, SMOKE_OVERRIDES[workload])
    if spec["seeded"]:
        doc["seed"] = int(seed)
    return doc
