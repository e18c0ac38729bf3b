"""Simulator and white-box analysis toolkit for a single-device protocol that
certifies N EPR pairs (self-test) or a quantum-dimension lower bound
(dimension test) using trapdoor claw-free function families."""

import importlib

from .errors import SelfTestError

__all__ = ["analysis", "entcf", "harness", "protocol", "prover", "qsim", "transport", "SelfTestError"]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, imported on first use: a run command loads neither analysis nor qsim."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)
