"""oscistep: macro-step integration of ODEs with a rapidly oscillating factor.

The library treats du/dt = a(t, u) + b(t, u) v(t) for a fast periodic
scalar v by expanding one macro step into iterated integrals against dt
and dV = v dt.  Integrals are evaluated exactly (symbolically) once per
oscillator family and truncation policy, then reused for any coefficient
field, start time and step size; coefficient derivatives come from jet
arithmetic, so no hand-coded derivative tables are needed.
"""

from .errors import (ConfigError, DegenerateOscillatorError, DomainError,
                     JetMismatchError, JetOrderError, NumericStepError,
                     OscistepError, QuadratureError, RegimeError, ResolutionError)
from .jets import (BUILTIN_FIELDS, CoefficientField, Jet, builtin_field,
                   make_field, operator_values)
from .oscillator import (BasisPoly, OscillatorSpec, absorb_mean, big_v,
                         integration_call_count, make_oscillator,
                         oscillating_monomial, phase_average, v_norm, v_poly)
from .terms import (TruncationPolicy, Word, enumerate_words,
                    expected_local_order, iterated_integral,
                    policy_matches_scheme, stochastic_scheme_words, term_count,
                    word_primitive)
from .stepping import (BoundInputs, SchemeEntry, SchemeTable, StepResult,
                       bound_R11, bound_R22, build_scheme,
                       estimate_coefficient_bound, solve, step,
                       step_phase_averaged)
from .oracles import (QuadratureResult, adaptive_quadrature,
                      cdi_linear_reference, cdi_nonlinear_reference,
                      exact_exp_macro, exact_pure_oscillatory, fit_slope,
                      freqdep_reference, rk4_micro_solve, taylor_partial_sum)

__version__ = "0.1.0"
