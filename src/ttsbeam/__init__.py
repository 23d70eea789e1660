"""Two-timescale active/passive beamforming for reflecting-surface-aided
MISO downlinks: correlated-Rician channel modeling, long-term phase
optimization from channel statistics, per-slot precoding, reference schemes
and a Monte-Carlo experiment harness.
"""

from .channel import (
    CONTINUOUS,
    CorrelationSpec,
    InstantaneousChannels,
    PathLossModel,
    PhaseConfig,
    RicianFactors,
    Scenario,
    StatisticalCsi,
    build_scsi,
    effective_channels,
    exp_correlation,
    kron_correlation,
    path_loss,
    psd_sqrt,
    sample_batch,
    sample_instantaneous,
)
from .single_user import (
    BcdResult,
    PddParams,
    PddResult,
    QuadraticForm,
    bcd_solve,
    brute_force_solve,
    build_quadratic_form,
    mrt_precoder,
    mrt_rate,
    pdd_solve,
    rate_upper_bound,
)
from .multi_user import (
    SscaParams,
    SscaResult,
    SurrogateState,
    WmmseState,
    instantaneous_rates,
    project_discrete,
    rate_jacobian,
    solve_surrogate,
    ssca_run,
    ssca_step_v,
    ssca_update_surrogate,
    wmmse_solve,
)
from .baselines import (
    icsi_per_slot,
    no_irs_rate,
    random_phase,
)
from .config import (
    ConfigError,
    ExperimentSpec,
    SweepSpec,
    db_to_linear,
    dbm_to_watts,
    default_multi_user_scenario,
    default_single_user_scenario,
    levels_for_bits,
    load_config,
    semicircle_positions,
)
from .harness import (
    ExperimentError,
    PointStats,
    ResultRecord,
    apply_sweep,
    emit_csv,
    run_experiment,
    simulate_point,
)
from .rng import substream

__version__ = "0.1.0"
