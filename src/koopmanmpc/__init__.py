"""Linear Koopman embeddings of controlled voltage dynamics, with MPC in
the lifted linear space and closed-loop evaluation against rule baselines."""

from koopmanmpc import dataset, deep_koopman, edmd, evaluation, lifted, mpc, nn, plant

__all__ = ["plant", "dataset", "nn", "lifted", "deep_koopman", "edmd", "mpc", "evaluation"]

__version__ = "0.1.0"
