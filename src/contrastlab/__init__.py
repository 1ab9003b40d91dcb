"""contrastlab: contrastive losses with negative-sampling bias correction.

A numerical laboratory around the debiased contrastive loss family:
exact enumeration on finite latent-class worlds, analytic gradients for a
small trainable encoder, and Monte Carlo certificates for the family's
finite-sample error and supervised-loss bounds.
"""

from .autograd import GradientReport, LossSpec, finite_diff_check, loss_and_grad
from .encoder import ViewBatch, init_params
from .evaluation import ProbeResult, lemma4_chain_check, lemma4_terms, linear_probe
from .experiments import direction_probe_accuracy
from .losses import (
    LossValue,
    OracleResult,
    asymptotic_debiased_exact,
    biased_loss_point,
    binomial_oracle,
    debiased_loss_batch,
    debiased_loss_point,
    mean_classifier_loss,
    unbiased_loss_exact,
)
from .training import TrainConfig, make_batches, train
from .verification import (
    BoundCertificate,
    MonteCarloDraws,
    RateFit,
    SweepSpec,
    lemma1_certificate,
    oracle_certificate,
    rate_fit,
    theorem3_certificate,
    theorem3_draws,
    theorem5_constants,
)
from .worldmodel import (
    DiscreteClassMixture,
    SphereMixture,
    load_mixture,
    marginal,
    negative_dist,
    positive_dist,
    preset_mixture,
    preset_sphere,
    random_mixture,
    save_mixture,
)

__version__ = "0.1.0"
