"""Naive reference for the batched engine: one replication, one step at a time.

Plain loops over plain arrays, independent of ``kwbandit.trajectory`` and
``kwbandit.algorithms`` (it imports nothing from kwbandit).  Its only
primitives are ``Domain.project``, ``ObjectiveSpec.evaluate`` and
``NoiseModel.draw``, reached through the objects a test passes in.
"""

import numpy as np


def central_difference(f, noise, x, c, rng):
    """2d noisy rewards at x +/- c e_i, clamped into the box, drawn
    axis-major with plus before minus; returns (estimate, boundary contact)."""
    plus, minus, contact = [], [], False
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = c
        xp, xm = f.domain.project(x + step), f.domain.project(x - step)
        contact = contact or bool(np.any(xp != x + step) or np.any(xm != x - step))
        plus.append(f.evaluate(xp) + noise.draw(rng))
        minus.append(f.evaluate(xm) + noise.draw(rng))
    return (np.array(plus) - np.array(minus)) / (2.0 * c), contact


def run(variant, policy, env, noise, rng):
    """One replication of ``variant`` (vanilla, fixed-step, sliding-window,
    oracle or static); returns (actions, boundary contacts, final iterate)."""
    config = getattr(policy, "config", None)
    x0 = np.array(config.x0 if variant == "sliding-window" else getattr(policy, "x0", ()), dtype=float)
    x, window = x0, []
    actions, contacts = [], []
    for s in range(1, env.horizon + 1):
        f = env.objective_at(s)
        if variant == "oracle":
            x = f.theta_array
        actions.append(x)
        if variant in ("oracle", "static"):
            contacts.append(False)
            continue
        c = s**-0.25 if variant == "vanilla" else config.c
        y, contact = central_difference(f, noise, x, c, rng)
        contacts.append(contact)
        if variant == "vanilla":
            x = f.domain.project(x + s**-0.5 * y)
        elif variant == "fixed-step":
            x = f.domain.project(x + config.beta * y)
        else:
            window = [] if len(window) == config.window else window
            window.append(y)
            # NumPy's power, as the rule defines its weights: libm's pow
            # rounds n**-0.5 differently in the last bit for some n
            weights = np.arange(1, config.window + 1, dtype=float) ** -0.5
            total = np.zeros(len(x))
            for weight, estimate in zip(weights, window):
                total = total + weight * estimate
            x = f.domain.project(x0 + total)
    return np.array(actions), np.array(contacts), x
