"""Reconstruction models: raw signal, PCA, and MLP autoencoders."""
from .mlp import encoder_widths
from .train import ModelConfig, ReconstructionModel, fit, residuals

__all__ = ["ModelConfig", "ReconstructionModel", "encoder_widths", "fit", "residuals"]
