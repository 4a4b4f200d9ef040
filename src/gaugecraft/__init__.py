"""Gauge-invariant truncated light-matter Hamiltonians for cavity QED in lossy media.

The package builds correctly-truncated Hamiltonians across a one-parameter
gauge family, quantifies the gauge violation of naive truncation, constructs
discrete mode sets (polariton grids, quasinormal-mode data, 1D dielectric
normal modes), computes gauge-consistent photodetection rates, and evolves
time-dependent couplings in either gauge.  Units: hbar = eps0 = 1, with all
frequencies in a common reference unit.
"""

from .errors import ConfigError, ConvergenceError, GaugecraftError, InvariantViolation
from .hilbert import Factor, HermitianGenerator, HilbertSpec, matter_levels, photon
from .modes import (Dielectric1D, ModeSet, NormalModeSet1D, PolaritonGrid, QnmChiResult,
                    QnmSet, build_from_grid, chi_from_qnm, completeness_residual,
                    qnm_frequency_grid, solve_dielectric_1d)
from .matter import (EmitterSpec, SingleParticle, TimeProfile, constant_profile,
                     linear_ramp, raised_cosine_ramp, tls, truncated_position_function)
from .hamiltonians import (COULOMB, MULTIPOLAR, CouplingSet, FockCutoffWarning,
                           GaugeParam, HamiltonianBundle, LongitudinalCoupling,
                           TimeDependentHamiltonian, build_beyond_dipole, build_dipole,
                           build_gauge_pair, build_generalized_1d, build_naive,
                           build_time_dependent, couplings, field_hamiltonian, standard_space)
from .gaugecheck import (AmbiguityRow, EquivalenceReport, ambiguity_scan, gauge_unitary,
                         verify_spectral_equivalence)
from .detect import (DetectorSpec, RateGap, RateRow, naive_rate_gap, rate_table,
                     significant_transitions)
from .dynamics import TdEquivalenceResult, Trajectory, evolve, td_gauge_equivalence

__version__ = "0.1.0"
