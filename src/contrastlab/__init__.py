"""contrastlab: contrastive losses with negative-sampling bias correction.

A numerical laboratory around the debiased contrastive loss family:
exact enumeration on finite latent-class worlds, analytic gradients for a
small trainable encoder, and Monte Carlo certificates for the family's
finite-sample error and supervised-loss bounds.
"""
