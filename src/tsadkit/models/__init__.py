"""Reconstruction models: raw signal, PCA, and MLP autoencoders."""
from .mlp import Adam, MlpAutoencoder, autoencoder_widths, encoder_widths
from .pca import PcaModel
from .train import MODEL_KINDS, FitReport, ModelConfig, TrainedModel, fit, residuals

__all__ = [
    "Adam",
    "MlpAutoencoder",
    "autoencoder_widths",
    "encoder_widths",
    "PcaModel",
    "MODEL_KINDS",
    "FitReport",
    "ModelConfig",
    "TrainedModel",
    "fit",
    "residuals",
]
