"""Control-oriented LTI state-space models of gas pipe networks."""

from .analysis import (FrequencyResponse, dc_gain, dc_gain_to_states,
                       eigenvalues, freq_response, log_grid, mason_check,
                       stability_margin_sweep)
from .composites import (CompositeModel, Port, make_branch, make_gain,
                         make_joint, make_pipe, make_series)
from .core import (G_STD, METHANE, GasProperties, OperatingPoint, PipeParams,
                   SignalLabel, StateSpaceModel, density, speed_of_sound,
                   validate_regime)
from .errors import (ConfigurationError, DomainError, NominalWarning,
                     NumericalError, ParseError, PipenetError)
from .friction import haaland_lambda, resolve_lambda
from .interconnect import (ConnectionMatrices, StackedSystem, build_FG, close,
                           select_outputs, stack)
from .netspec import (CompiledNetwork, NetworkSpec, NetworkSteadyState,
                      UnmetConstraint, build_closed, elaborate,
                      load, network_steady_state, parse, render)
from .pipe_dynamics import (finite_difference_jacobian_3d, iso_coefficients,
                            jacobian_3d, linearize_2d, linearize_3d, rhs_2d,
                            rhs_3d)
from .simulate import (TimeSeries, cascade_rhs_2d, pipe_rhs_2d, pipe_rhs_3d,
                       simulate_lti, simulate_nonlinear, zoh_discretize)
from .steady_state import approx_nominal_pr, exact_nominal_pr, isothermal_nominal

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
