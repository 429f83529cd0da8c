"""Workload definitions: the semitb command each workload runs and its INI.

The INI is a pure function of (workload, seed, output_dir, cache_dir); the
program sees only that file.  Every workload keeps the reference numerics
(129 plane waves, 64 kappa points, 32 cells x 64 points, 41 sites) and the
reference hbar ladder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

REFERENCE_LADDER = (0.25, 0.2, 0.16, 0.125, 0.1)
REFERENCE_ETAS = (0.0, -0.5, -1.0, -2.0, -3.0, -5.0, -8.0, -12.0, -20.0,
                  -30.0, -50.0)
REFERENCE_V0 = 8.0
WARM_ETA_DRAWS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # semitb subcommand
    cold_cache: bool      # empty the bundle cache before every timed run
    warm_up: bool         # fill the cache in an untimed run first
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("scan_cold", "scan", cold_cache=True, warm_up=False,
                 why="first-run scan of the 5x11 reference ladder with an "
                     "empty cache: Floquet solve, basis, cache writes and "
                     "the continuum reconstruction all run"),
        Workload("scan_warm_eta", "scan", cold_cache=False, warm_up=True,
                 why="rerun with 31 new eta values on a filled cache: bands "
                     "and basis come from the cache, the block resolvent "
                     "and perp fixed point dominate"),
        Workload("verify", "verify", cold_cache=False, warm_up=False,
                 why="the 11 acceptance criteria on the reference config: "
                     "the only path through the brute-force and full-grid "
                     "Newton oracles"),
    )
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_values(workload: str, seed: int):
    """(v0, eta values) drawn for one workload and seed."""
    if workload == "scan_cold":
        v0 = round(_rng(workload, seed).uniform(7.6, 8.4), 6)
        return v0, REFERENCE_ETAS
    if workload == "scan_warm_eta":
        # stratified: one log-uniform draw in each of 30 equal slices of
        # log|eta|, so the seed moves the points but not the overall mix
        rng = _rng(workload, seed)
        lo, hi = math.log(0.5), math.log(50.0)
        n = WARM_ETA_DRAWS
        etas = tuple(-math.exp(lo + (hi - lo) * (i + rng.random()) / n)
                     for i in range(n))
        return REFERENCE_V0, (0.0,) + etas
    if workload == "verify":
        return REFERENCE_V0, REFERENCE_ETAS
    raise KeyError(f"unknown workload {workload!r}")


def make_ini(workload: str, seed: int, output_dir: str, cache_dir: str) -> str:
    """INI text for one run; the same arguments give the same text."""
    v0, etas = sweep_values(workload, seed)
    return "\n".join([
        "[potential]",
        "family = sin2",
        f"v0 = {v0!r}",
        "a = 1.0",
        "",
        "[numerics]",
        "n_pw = 129",
        "n_kappa = 64",
        "cells = 32",
        "points_per_cell = 64",
        "lowdin_band = 6",
        "n_bands = 5",
        "delta0 = 8.0",
        "",
        "[sweep]",
        "hbar = " + ", ".join(repr(h) for h in REFERENCE_LADDER),
        "eta = " + ", ".join(repr(e) for e in etas),
        "sigma = 1.0",
        "n_sites = 41",
        "seed_site = 0",
        "",
        "[io]",
        f"output_dir = {output_dir}",
        f"cache_dir = {cache_dir}",
        "formats = csv, json",
        "",
    ])
