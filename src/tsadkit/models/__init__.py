"""Reconstruction models: raw signal, PCA, and MLP autoencoders."""
from .mlp import encoder_widths
from .train import FitReport, ModelConfig, fit, residuals

__all__ = ["FitReport", "ModelConfig", "encoder_widths", "fit", "residuals"]
