"""Adam optimizer over Tensor parameters.

Standard bias-corrected form: first and second moment estimates per
parameter, update by m_hat / (sqrt(v_hat) + EPS). ``BETA1``, ``BETA2`` and
``EPS`` are the defaults of Kingma & Ba 2015 (arXiv:1412.6980); only the
learning rate is a setting. State lives here, not on the tensors, so one set
of parameters can be driven by a fresh optimizer after a checkpoint restore.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 0.001):
        if not 0 < lr < np.inf:
            raise ConfigError(f"adam: lr must be positive and finite, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the params.

        A parameter whose grad is None is treated as having zero gradient;
        the step counter still advances so bias correction stays shared.
        """
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else 0.0
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
