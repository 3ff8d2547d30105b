"""oscistep: macro-step integration of ODEs with a rapidly oscillating factor.

The library treats du/dt = a(t, u) + b(t, u) v(t) for a fast periodic
scalar v by expanding one macro step into iterated integrals against dt
and dV = v dt.  Integrals are evaluated exactly (symbolically) once per
oscillator family and truncation policy, then reused for any coefficient
field, start time and step size; coefficient derivatives come from jet
arithmetic, so no hand-coded derivative tables are needed.

The names below are the package's API, as README lists them; the types
and helpers they are built from stay importable from their submodules.
"""

from .errors import (ConfigError, DegenerateOscillatorError, DomainError,
                     JetMismatchError, JetOrderError, NumericStepError,
                     OscistepError, QuadratureError, RegimeError, ResolutionError)
from .jets import CoefficientField, builtin_field, make_field, operator_values
from .oscillator import (big_v, integration_call_count, make_oscillator,
                         phase_average, v_norm)
from .terms import (TruncationPolicy, Word, enumerate_words, iterated_integral,
                    policy_matches_scheme, term_count, word_primitive)
from .stepping import (BoundInputs, bound_R11, bound_R22, build_scheme,
                       estimate_coefficient_bound, solve, step,
                       step_phase_averaged)
from .oracles import (adaptive_quadrature, exact_exp_macro,
                      exact_pure_oscillatory, fit_slope, rk4_micro_solve)

__version__ = "0.1.0"
