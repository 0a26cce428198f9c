"""Reconstruction models: raw signal, PCA, and MLP autoencoders."""
from .mlp import encoder_widths
from .train import ModelConfig, TrainedModel, fit, residuals

__all__ = ["ModelConfig", "TrainedModel", "encoder_widths", "fit", "residuals"]
