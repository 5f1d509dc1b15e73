"""Streaming background subtraction for thermal and grayscale video.

Per-pixel Gaussian mixtures with an automatically selected number of
components (variational fit), threshold-free online adaptation, Bayesian
foreground masks and the change-detection metric suite.
"""

__version__ = "0.1.0"

# the functions adapt, fit and metrics stay unexported: those names are modules
from .adapt import (EpsilonResult, SamplePool, adapt_rows, decide,
                    epsilon_star_approx, epsilon_star_exact, match_component,
                    spawn_component, update_matched)
from .core import (VARIANCE_FLOOR, MixtureModel, MixtureState, digamma,
                   mixture_density)
from .engine import (ModelFormatError, PixelGrid, initialize_grid, load_grid,
                     process_frame, save_grid)
from .fit import (FitConfig, FitResult, Priors, VariationalPosterior, e_step,
                  elbo, kmeanspp_init, m_step, priors_rows)
from .frameio import (FrameFormatError, FrameSequence, read_mask, read_pgm,
                      read_pgm_sequence, read_raw_sequence, write_mask,
                      write_pgm, write_posterior)
from .metrics import ConfusionCounts, accumulate
from .segment import (BACKGROUND, FOREGROUND, MaskFrame, SegmentationConfig,
                      blob_filter, posterior_bg_rows)
from .synth import (BimodalRegion, GaussianSpec, VideoEvent, VideoScenario,
                    gen_mixture_samples, gen_video, load_scenario,
                    parse_scenario, quantize_frames)

__all__ = [name for name in dir() if not name.startswith("_")]
