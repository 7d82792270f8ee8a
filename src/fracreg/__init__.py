"""Fractional-order control toolkit.

Simulation of closed loops with fractional-order plants and PD^delta /
PI^lambda controllers, root finding for fractional characteristic
polynomials, stability classification and pole-placement design.

Library diagnostics go to `logging.getLogger("fracreg")`, which is silent
until the application configures logging.
"""

from .charpoly import (RootResult, StabilityReport, classify_stability,
                       commensurate_roots, eval_fracpoly, find_roots,
                       newton_roots, normalize)
from .design import (DesignSpecPd, DesignSpecPi, design_pd_fractional,
                     design_pd_integer, design_pi, gain_from_ss_error)
from .errors import (ConfigError, DivergedError, FracregError, NoSolutionError,
                     ResourceLimitError, SingularStepError,
                     UnsupportedOrderError)
from .glcalc import GlTable, SampledSignal, gl_coefficients, gl_series
from .model import (FracPoly, PdController, PiController, Plant, StateModel,
                    Term, build_pd_model, build_pi_model, char_poly_pd,
                    char_poly_pi, closed_loop)
from .simulate import (SimConfig, StepInput, Trajectory, simulate_direct,
                       simulate_state_space, steady_state_estimate)

__version__ = "0.1.0"
