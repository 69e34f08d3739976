"""Correctness checks on the program's outputs.

Each check takes plain values (numbers, arrays, callables) so that a
test can feed it a corrupted output and see it fail. A check returns
None on success and raises CheckFailed naming what disagreed.
"""

from __future__ import annotations

import math

import numpy as np

# float64 forward passes that differ only in summation order agree to a
# few ulps; 1e-9 still catches a risk moved by 1e-6
VALUE_RTOL = 1e-9
# central differences at step FD_STEP along a unit direction
FD_STEP = 1e-5
FD_RTOL = 1e-5
# the optimizer step is recovered from parameters of order 1 divided by lr
STEP_GRAD_RTOL = 1e-7


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def check_losses(trace):
    """Every per-epoch mean loss is finite and non-negative."""
    bad = [v for v in trace if not (math.isfinite(v) and v >= 0.0)]
    if not trace or bad:
        raise CheckFailed(f"loss trace {list(trace)[:8]} has non-finite or negative entries {bad[:4]}")


def check_values(name, program, reference, rtol=VALUE_RTOL):
    """Program values equal independently computed ones to rtol."""
    program = np.asarray(program, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    err = np.abs(program - reference) / np.maximum(1.0, np.abs(reference))
    if program.shape != reference.shape or not np.all(err <= rtol):
        raise CheckFailed(f"{name}: program {program} vs transcription {reference}")


def check_directional_derivative(loss_at, grads, rng):
    """The tape gradient's derivative along a unit direction matches a
    central difference of the loss.

    loss_at(step, direction) evaluates the loss with every parameter
    moved by step * direction, one array per entry of grads. The
    direction mixes the gradient with a random unit vector, so the
    derivative is far from zero.
    """
    gnorm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    noise = [rng.standard_normal(g.shape) for g in grads]
    nnorm = math.sqrt(sum(float(np.vdot(r, r)) for r in noise))
    direction = [g / max(gnorm, 1e-300) + r / nnorm for g, r in zip(grads, noise)]
    dnorm = math.sqrt(sum(float(np.vdot(d, d)) for d in direction))
    direction = [d / dnorm for d in direction]
    tape = sum(float(np.vdot(g, d)) for g, d in zip(grads, direction))
    fd = (loss_at(FD_STEP, direction) - loss_at(-FD_STEP, direction)) / (2.0 * FD_STEP)
    if not abs(tape - fd) <= FD_RTOL * max(abs(fd), 1e-8):
        raise CheckFailed(f"directional derivative: tape {tape!r} vs central difference {fd!r}")


def check_first_step(theta0, theta1, grads, lr, weight_decay):
    """RAdam's first step is bias-corrected momentum SGD with decoupled
    decay: theta1 = theta0 * (1 - lr * wd) - lr * g."""
    for i, (t0, t1, g) in enumerate(zip(theta0, theta1, grads)):
        implied = (t0 * (1.0 - lr * weight_decay) - t1) / lr
        scale = max(float(np.max(np.abs(g))), 1e-12) if g.size else 1.0
        err = float(np.max(np.abs(implied - g))) if g.size else 0.0
        if err > STEP_GRAD_RTOL * scale + 1e-9:
            raise CheckFailed(f"first RAdam step, parameter #{i}: implied gradient off by {err:.3e} (scale {scale:.3e})")


def check_risk_range(risks, t_bins):
    """risk = -sum_t S[t] with every S[t] in (0, 1), so risk lies in (-T, 0)."""
    risks = np.asarray(risks, dtype=np.float64)
    if not np.all((risks > -t_bins) & (risks < 0.0)):
        raise CheckFailed(f"risks outside (-{t_bins}, 0): {risks[(risks <= -t_bins) | (risks >= 0.0)][:4]}")


def brute_force_cindex(risks, times, events):
    """All ordered pairs; comparable when the earlier subject died;
    concordant when it has the higher risk, ties count 1/2."""
    num = 0.0
    den = 0
    for i in range(len(risks)):
        if not events[i]:
            continue
        for j in range(len(risks)):
            if times[i] < times[j]:
                den += 1
                num += 1.0 if risks[i] > risks[j] else 0.5 if risks[i] == risks[j] else 0.0
    return None if den == 0 else num / den


def check_cindex(reported, risks, times, events):
    """The reported c-index equals a brute-force count over the returned risks."""
    expected = brute_force_cindex(risks, times, events)
    if expected is None or reported is None or abs(reported - expected) > 1e-12:
        raise CheckFailed(f"c-index: reported {reported} vs pair count {expected}")
