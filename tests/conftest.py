from dataclasses import replace

import pytest

from quench_bench import model, oracle
from quench_bench.costfit import step_sample
from quench_bench.mps import benchmark_steps, run_quench
from quench_bench.units import mhz_to_angular

PAPER_OMEGA = mhz_to_angular(2.0)
PAPER_HX = 2.5


def paper_setup(lx: int, ly: int, cutoff_factor: float | None = None, *, t_pulse: float = 4e-6):
    """Lattice, derived quench parameters (pulse ``t_pulse``, dt = 1 ns) and
    interaction matrix at the canonical quench point (Omega/2pi = 2 MHz,
    h_x = 2.5)."""
    lattice = model.lattice_for_quench(lx, ly, PAPER_OMEGA, PAPER_HX)
    params = model.derive_quench(
        PAPER_OMEGA, PAPER_HX, model.DEFAULT_C6, lattice, t_pulse=t_pulse, dt=1e-9
    )
    cutoff = None if cutoff_factor is None else cutoff_factor * params.spacing
    v = model.interactions(lattice, params, cutoff)
    return lattice, params, v


@pytest.fixture(scope="session")
def setup_3x3():
    """The canonical 3x3 quench with a 400 ns pulse."""
    return paper_setup(3, 3, t_pulse=400e-9)


@pytest.fixture(scope="session")
def oracle_3x3_400ns(setup_3x3):
    lattice, params, _ = setup_3x3
    return oracle.evolve_exact(lattice, params)


class QuenchRuns(dict):
    """TDVP runs of one quench from |0...0>, made on first use and keyed by
    the bond cap that can bind.

    No bond of an N-site MPS exceeds 2^(N//2), so a larger cap gives the run
    at that bound bit for bit (``test_cap_above_bond_bound_changes_nothing``
    checks this) and is served from it.
    """

    def __init__(self, lattice, params):
        super().__init__()
        self.lattice, self.params = lattice, params
        self.bond_bound = 2 ** (lattice.n_sites // 2)

    def at(self, chi):
        key = min(chi, self.bond_bound)
        if key not in self:
            self[key] = run_quench(self.lattice, self.params, key)
        return self[key]


@pytest.fixture(scope="session")
def tdvp_3x3_400ns(setup_3x3):
    """TDVP runs of the canonical 3x3 quench at 400 ns, by bond-dimension cap."""
    lattice, params, _ = setup_3x3
    return QuenchRuns(lattice, params)


@pytest.fixture(scope="session")
def tdvp_3x3_100ns(setup_3x3):
    """TDVP runs of the canonical 3x3 quench at 100 ns, by bond-dimension cap."""
    lattice, params, _ = setup_3x3
    return QuenchRuns(lattice, replace(params, t_pulse=100e-9))


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
    samples = {}
    for (n, _), records in saturated_steps.items():
        sample = step_sample(n, records)
        samples.setdefault((sample.n, sample.chi), sample)
    return list(samples.values())
