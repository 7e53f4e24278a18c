"""Counterfactual copula estimation with bootstrap inference.

Estimate how an exogenous manipulation of covariates would change the
dependence between two outcomes: actual and counterfactual copulas, four
association measures with policy-effect deltas, multinomial-bootstrap
confidence intervals, and a Monte Carlo harness that checks the machinery
against Gaussian-copula closed forms.
"""

__version__ = "0.1.0"

from .association import (
    AssociationReport,
    gaussian_measure,
    measures_from_grid,
    policy_effect,
)
from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    BootstrapRun,
    Estimate,
    estimate,
    run_bootstrap,
)
from .copula import (
    CopulaGrid,
    ObservationSample,
    empirical_copula,
    support_violations,
)
from .data import (
    ColumnRoles,
    DataError,
    SynthConfig,
    Table,
    build_sample,
    ingest,
    synth_table,
)
from .kernels import BandwidthRule, KernelSpec, bandwidth
from .scenarios import ScenarioSpec, Transform, apply_scenario, parse_scenario
from .simulation import (
    SimReport,
    SimStudyConfig,
    dgp_draw,
    gaussian_copula_grid,
    run_study,
)
