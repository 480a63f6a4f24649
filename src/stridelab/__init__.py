"""stridelab: a numerics workbench for momentum-based bipedal walking.

Layers, bottom up:

- pendulum: point-mass reduced models (ALIP / LIP / polar) with closed-form
  step transitions and the reference-point transfer law for angular momentum.
- biped: a five-link planar walker pinned at the stance foot — exact
  mass/Coriolis/gravity terms, centroidal quantities, and the plastic
  impact-with-relabel map.
- control: foot-placement laws driven by predicted end-of-step angular
  momentum, virtual-constraint references, and an input-output linearizing
  stance tracker.
- estimate: scalar Kalman filtering of the contact-referenced momentum.
- simlab: deterministic hybrid rollouts (fixed-step RK4 + bisection events),
  scenario configs, CSV/JSON artifacts.
- analysis: step-to-step error decomposition, disturbance transfer
  magnitudes, Poincare return-map machinery, prediction-fidelity metrics.
"""

from . import analysis, biped, control, errors, estimate, pendulum, simlab
from .errors import *
from .pendulum import *
from .biped import *
from .control import *
from .estimate import *
from .simlab import *
from .analysis import *

__version__ = "0.1.0"

# Each module's __all__ is its public names; the package re-exports them all.
__all__ = [
    *errors.__all__,
    *pendulum.__all__,
    *biped.__all__,
    *control.__all__,
    *estimate.__all__,
    *simlab.__all__,
    *analysis.__all__,
    "__version__",
]
