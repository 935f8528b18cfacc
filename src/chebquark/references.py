"""Stored reference values and campaign settings for the reproduction runs.

Three benchmark campaigns are frozen here:

* ``table1``: pure Coulomb levels against the exact hydrogenic spectrum,
* ``table2``: pure linear potential against the exact dimensionless
  eigenvalues (Airy zeros for ell = 0, high-accuracy configuration-space
  values for ell >= 1),
* ``table3``: charmonium and bottomium masses for the Cornell potential
  with the standard parameter set alpha = 0.50667, beta = 0.1694 GeV^2,
  m_c = 1.37 GeV, m_b = 4.79 GeV.

Each campaign records the mesh order N and mapping scale sigma with which
the stored values are reproduced, so `reproduce` runs are deterministic, and
the tolerance each stored value is graded with; `campaign(table)` gathers
both per partial wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import Problem
from .radial import airy_reference, hydrogen_energy


# exact dimensionless energies of the pure linear potential (s = 1), five
# lowest levels per ell; the ell = 0 row is the Airy-zero values to 7 figures
TABLE2_EXACT = {
    0: tuple(round(airy_reference(nu), 6) for nu in range(1, 6)),
    1: (3.361254, 4.884452, 6.207623, 7.405665, 8.515234),
    2: (4.248182, 5.629708, 6.868883, 8.009703, 9.077003),
    3: (5.050926, 6.332115, 7.504646, 8.597117, 9.627267),
}

# mesh orders at which the linear-potential rows are quoted; ell = 0
# converges slowest and needs the largest mesh
TABLE2_N = {0: 300, 1: 100, 2: 100, 3: 80}

# mapping scales that meet the 2e-6 targets at the orders above
TABLE2_SIGMA = {0: 0.5, 1: 1.0, 2: 1.0, 3: 1.0}

# Coulomb benchmark configuration: alpha = 1, 2 mu a = 1, so s = 1/(2 mu a) = 1
TABLE1_ALPHA = 1.0
TABLE1_S = 1.0
TABLE1_N = 80
TABLE1_SIGMA = 0.5

# Cornell parameter set for the quarkonium runs
CORNELL_ALPHA = 0.50667
CORNELL_BETA_GEV2 = 0.1694      # GeV^2
QUARK_MASS_GEV = {"charm": 1.37, "bottom": 4.79}

# quarkonium masses in GeV, momentum-space values, rows (ell, n = 0..2)
TABLE3_MASS_GEV = {
    "charm": {
        0: (3.0869, 3.6748, 4.1094),
        1: (3.4988, 3.9544, 4.3388),
        2: (3.7868, 4.1868, 4.5407),
    },
    "bottom": {
        0: (9.4550, 10.0105, 10.3423),
        1: (9.9171, 10.2582, 10.5318),
        2: (10.1555, 10.4385, 10.6838),
    },
}

# the bottomium ell = 2, n = 2 entry disagrees between the two published
# solver columns (10.6838 vs 10.6410); the value above is the converged
# momentum-space one and this cell carries a relaxed tolerance
TABLE3_DISPUTED = ("bottom", 2, 2)

# grading tolerances: Coulomb levels relative to the exact energy, linear
# levels absolute in eps, masses absolute in GeV
TABLE1_REL_TOL = 1e-8
TABLE2_TOL = 2e-6
TABLE3_TOL_GEV = 0.001
TABLE3_DISPUTED_TOL_GEV = 0.005

TABLE3_N = 80
TABLE3_SIGMA = 1.0


@dataclass(frozen=True)
class PhysicalScales:
    """Unit conversions of one equal-mass quarkonium system."""

    quark_mass_gev: float
    beta_gev2: float

    @property
    def sqrt_beta(self):
        """Energy unit 1/a = sqrt(beta) in GeV."""
        return math.sqrt(self.beta_gev2)

    @property
    def s(self):
        """Kinetic coefficient s = 1/(2 mu a) with mu = m_q/2."""
        return self.sqrt_beta / self.quark_mass_gev

    def mass_gev(self, epsilon):
        """Meson mass M = 2 m_q + eps sqrt(beta)."""
        return 2.0 * self.quark_mass_gev + epsilon * self.sqrt_beta


def physical_scales(flavor):
    """Unit conversions for the stored charm or bottom parameter set."""
    if flavor not in QUARK_MASS_GEV:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {sorted(QUARK_MASS_GEV)}")
    return PhysicalScales(QUARK_MASS_GEV[flavor], CORNELL_BETA_GEV2)


@dataclass(frozen=True)
class PartialWave:
    """One partial wave to solve and, for a stored campaign, its references.

    `references[n]` is (reference, absolute tolerance) of level n: of eps,
    or of the meson mass in GeV when `scales` is given.
    """

    label: str
    problem: Problem
    N: int
    sigma: float
    levels: int
    scales: PhysicalScales | None = None
    references: tuple = ()


def campaign(table):
    """The partial waves of stored campaign 1, 2 or 3, in run order."""
    waves = []
    if table == 1:
        for ell in range(4):
            exact = [hydrogen_energy(n, ell, TABLE1_ALPHA, 0.5 / TABLE1_S) for n in range(5)]
            problem = Problem(ell=ell, alpha=TABLE1_ALPHA, linear=False, s=TABLE1_S)
            waves.append(PartialWave(
                f"ell={ell}", problem, TABLE1_N, TABLE1_SIGMA, 5,
                references=tuple((e, TABLE1_REL_TOL * abs(e)) for e in exact)))
    elif table == 2:
        for ell, exact in TABLE2_EXACT.items():
            waves.append(PartialWave(
                f"ell={ell}", Problem(ell=ell), TABLE2_N[ell], TABLE2_SIGMA[ell], 5,
                references=tuple((e, TABLE2_TOL) for e in exact)))
    elif table == 3:
        for flavor in ("charm", "bottom"):
            scales = physical_scales(flavor)
            for ell, masses in TABLE3_MASS_GEV[flavor].items():
                tols = [TABLE3_DISPUTED_TOL_GEV if (flavor, ell, n) == TABLE3_DISPUTED
                        else TABLE3_TOL_GEV for n in range(3)]
                waves.append(PartialWave(
                    f"{flavor} ell={ell}", Problem(ell=ell, alpha=CORNELL_ALPHA, s=scales.s),
                    TABLE3_N, TABLE3_SIGMA, 3, scales, tuple(zip(masses, tols))))
    else:
        raise ValueError(f"stored campaigns are tables 1, 2 and 3, got {table!r}")
    return waves
