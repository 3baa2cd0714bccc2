"""Verification lab for discrete replica overlap arrays."""

__version__ = "0.1.0"

from ._kernels import warmup
from .eigen import is_psd_dense
from .errors import (AcceptanceTooLow, BadWeights, BadZeta, EventMassTooSmall,
                     EventNull, GridTooSmall, NoConvergence, NotSymmetric,
                     NullConditioning, OffGridOverlap, OverlapLabError,
                     ParseError, TooLarge, TooManyAtoms, ValidationError)
from .grid import DIAG, OverlapGrid, ViolationReport
from .measures import (DiscreteMeasure, TreeMeasureSpec, adversarial_measure,
                       explicit_measure, measure_from_gram)
from .models import DescendedModel, FrozenModel, TreeModel, as_model
from .observables import ObservableSpec, Psi, Statistic, default_gg_observables
from .pipeline import (CriterionReport, DescendConfig, LevelReport,
                       collision_identity_check, criterion_run, descend)
from .sampler import EstimateReport, EventSpec, MCConfig
from .verify import (ResidualReport, conditional_marginal_check,
                     consistency_check, distinct_mass_check, gg_residual,
                     lemma1_check, positivity_check, support_check,
                     ultrametricity_check)
