"""Rectified Adam with decoupled weight decay.

Moment estimates follow Adam. The variance-rectification length
rho_t = rho_inf - 2 t beta2^t / (1 - beta2^t), with
rho_inf = 2 / (1 - beta2) - 1, gates the update: while rho_t <= 4 the
step is plain bias-corrected momentum SGD; once rho_t > 4 the adaptive
step is scaled by the rectification factor. Weight decay is decoupled:
parameters shrink by (1 - lr * wd) each step, gradients untouched, so
zero gradients give pure geometric decay.
"""

from __future__ import annotations

import math

import numpy as np

# elements per pass of the step: 256 KB per array, so the four state
# slices and the two scratch rows one pass touches fit in a typical L2
CHUNK = 32768


def rho_inf(beta2: float) -> float:
    return 2.0 / (1.0 - beta2) - 1.0


def rho_t(beta2: float, t: int) -> float:
    b2t = beta2**t
    return rho_inf(beta2) - 2.0 * t * b2t / (1.0 - b2t)


def rectification(beta2: float, t: int) -> float:
    """Step-size multiplier of the rectified adaptive branch."""
    ri = rho_inf(beta2)
    rt = rho_t(beta2, t)
    return math.sqrt(((rt - 4.0) * (rt - 2.0) * ri) / ((ri - 4.0) * (ri - 2.0) * rt))


class RAdam:
    """Optimizer over a list of (name, Tensor) parameters.

    Parameters live in one flat vector ``flat`` and their gradients in one
    flat vector ``grad`` of the same layout: each Tensor's ``data`` is a
    view into ``flat``, and ``zero_grad()`` binds each ``grad`` to its view
    into ``grad``, so the tape accumulates straight into the optimizer's
    buffer. With the moments ``m`` and ``v`` that is four float64 vectors,
    32 bytes per parameter.

    ``step()`` walks the four vectors in chunks of ``CHUNK`` elements with
    one two-row, chunk-sized scratch, applying the update rule in the
    module docstring elementwise; it allocates nothing. A parameter whose
    ``grad`` is None counts as zero gradient; one whose ``grad`` was
    rebound to another array is copied into the buffer first.
    """

    def __init__(self, params, lr: float = 2e-4, weight_decay: float = 5e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        total = sum(p.data.size for _, p in self.params)
        self.flat = np.empty(total)
        self.grad = np.zeros(total)
        self._views = []
        off = 0
        for _, p in self.params:
            size, shape = p.data.size, p.data.shape
            self.flat[off : off + size] = p.data.reshape(-1)
            p.data = self.flat[off : off + size].reshape(shape)
            self._views.append(self.grad[off : off + size].reshape(shape))
            off += size
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._scratch = np.empty((2, CHUNK))

    def zero_grad(self):
        """Zero the gradient buffer and bind every ``p.grad`` to its view."""
        self.grad.fill(0.0)
        for (_, p), view in zip(self.params, self._views):
            p.grad = view

    def _adopt_grads(self):
        """Bring gradients not written through their views into the buffer."""
        for (_, p), view in zip(self.params, self._views):
            if p.grad is not view:
                view[...] = 0.0 if p.grad is None else p.grad

    def step(self):
        self.t += 1
        self._adopt_grads()
        t, b1, b2 = self.t, self.beta1, self.beta2
        decay = 1.0 - self.lr * self.weight_decay
        rectified = rho_t(b2, t) > 4.0
        if rectified:
            v_corr = 1.0 / (1.0 - b2**t)
            scale = self.lr * rectification(b2, t) / (1.0 - b1**t)
        else:
            scale = self.lr / (1.0 - b1**t)
        for lo in range(0, self.flat.size, CHUNK):
            hi = min(lo + CHUNK, self.flat.size)
            f, g, m, v = (a[lo:hi] for a in (self.flat, self.grad, self.m, self.v))
            s1, s2 = (s[: hi - lo] for s in self._scratch)
            f *= decay
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1
            v *= b2
            np.multiply(g, g, out=s1)
            s1 *= 1.0 - b2
            v += s1
            if rectified:
                np.multiply(v, v_corr, out=s1)
                np.sqrt(s1, out=s1)
                s1 += self.eps
                np.multiply(m, scale, out=s2)
                s2 /= s1
            else:
                np.multiply(m, scale, out=s2)
            f -= s2
