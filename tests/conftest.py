import numpy as np
import pytest

from quench_bench import model, oracle
from quench_bench.mps import benchmark_steps, run_quench
from quench_bench.units import mhz_to_angular

PAPER_OMEGA = mhz_to_angular(2.0)
PAPER_HX = 2.5


def paper_setup(lx: int, ly: int, cutoff_factor: float | None = None):
    """Lattice, derived quench parameters and interaction matrix at the
    canonical quench point (Omega/2pi = 2 MHz, h_x = 2.5)."""
    lattice = model.lattice_for_quench(lx, ly, PAPER_OMEGA, PAPER_HX)
    params = model.derive_quench(PAPER_OMEGA, PAPER_HX, model.DEFAULT_C6, lattice)
    cutoff = None if cutoff_factor is None else cutoff_factor * params.spacing
    v = model.interactions(lattice, params, cutoff)
    return lattice, params, v


@pytest.fixture(scope="session")
def setup_3x3():
    return paper_setup(3, 3)


@pytest.fixture(scope="session")
def oracle_3x3_400ns(setup_3x3):
    lattice, params, v = setup_3x3
    return oracle.evolve_exact(lattice, params, v, t=400e-9, dt=1e-9)


@pytest.fixture(scope="session")
def tdvp_3x3_400ns(setup_3x3):
    """TDVP runs of the canonical 3x3 quench at several bond-dimension caps."""
    lattice, params, _ = setup_3x3

    class Runs(dict):
        def at(self, chi):
            if chi not in self:
                self[chi] = run_quench(lattice, params, 400e-9, 1e-9, max_chi=chi)
            return self[chi]

    return Runs()


@pytest.fixture(scope="session")
def saturated_steps():
    """Step records of random MPS saturated at the cap, keyed by (N, chi cap)
    over N in {9, 16, 25, 36} and chi caps 8..64: one warm-up step dropped,
    four counted."""
    steps = {}
    for side in (3, 4, 5, 6):
        lattice, params, _ = paper_setup(side, side)
        for chi in (8, 16, 32, 64):
            steps[lattice.n_sites, chi] = benchmark_steps(
                lattice, params, chi, n_steps=4, warmup=1
            )
    return steps


@pytest.fixture(scope="session")
def timing_samples(saturated_steps):
    """Measured seconds-per-step over N in {9, 16, 25, 36}, chi caps 8..64.

    Bond dimensions are recorded as actually used (a 9-site MPS cannot hold
    uniform chi = 64), and duplicate (N, chi) rows are dropped.
    """
    from quench_bench.costfit import RuntimeSample

    samples = []
    seen = set()
    for (n, _), records in saturated_steps.items():
        chi_used = max(r.max_chi_used for r in records)
        if (n, chi_used) in seen:
            continue
        seen.add((n, chi_used))
        samples.append(
            RuntimeSample(
                n=n,
                chi=chi_used,
                seconds_per_step=float(np.mean([r.wall_seconds for r in records])),
            )
        )
    return samples
