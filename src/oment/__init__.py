"""Stationary continuous-variable entanglement of a driven optomechanical
cavity with geometrical (Duffing-type softening) nonlinearity.

Pipeline: classical steady state -> Routh-Hurwitz stability of the drift's
characteristic quartic -> linearized drift/diffusion matrices -> Lyapunov
covariance matrix -> logarithmic negativity; plus detuning/nonlinearity/occupation sweeps and a
CLI reproducing the reference figure data.

Each stage has one entry point, an elementwise or stacked function that takes
a single point as readily as a grid: :func:`steady_states`,
:func:`stability_stack`, :func:`solve_stack` and :func:`eta_stack`.  The
package exports the ``__all__`` of each module.
"""

from . import gaussian, linmodel, lyapunov, params, steadystate, sweep
from .constants import C_LIGHT, HBAR, K_B
from .gaussian import *  # noqa: F403
from .linmodel import *  # noqa: F403
from .lyapunov import *  # noqa: F403
from .params import *  # noqa: F403
from .steadystate import *  # noqa: F403
from .sweep import *  # noqa: F403

__all__ = [
    "C_LIGHT",
    "HBAR",
    "K_B",
    *gaussian.__all__,
    *linmodel.__all__,
    *lyapunov.__all__,
    *params.__all__,
    *steadystate.__all__,
    *sweep.__all__,
]

__version__ = "0.1.0"
