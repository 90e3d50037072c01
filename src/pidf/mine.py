"""Neural MI lower-bound estimator trained from scratch in numpy.

A single-hidden-layer ReLU network scores (left, right) row pairs; the
training objective is the Donsker-Varadhan lower bound
``mean(T(joint)) - log(mean(exp(T(shuffled))))`` maximized by minibatch
Adam ascent. The marginal batch reuses the joint batch's left rows and
shuffles the right rows within the batch. The reported estimate is the
mean of the minibatch bound over the final 5% of iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import MineConfig
from .types import EstimatorError, philox

_PURPOSE_MINE = 0xC7 << 32


@dataclass
class MineState:
    """Network weights plus Adam moment accumulators."""

    config: MineConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    moments: dict = field(default_factory=dict)
    step: int = 0

    @staticmethod
    def initial(input_dim: int, config: MineConfig, rng: np.random.Generator) -> "MineState":
        w1 = rng.standard_normal((input_dim, config.hidden)) * np.sqrt(2.0 / input_dim)
        b1 = np.zeros(config.hidden)
        w2 = rng.standard_normal(config.hidden) * np.sqrt(1.0 / config.hidden)
        state = MineState(config=config, w1=w1, b1=b1, w2=w2, b2=0.0)
        state.moments = {
            name: (np.zeros_like(value), np.zeros_like(value))
            for name, value in state._params().items()
        }
        return state

    def _params(self) -> dict:
        return {
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": np.asarray(self.b2),
        }


def _forward(state: MineState, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pre = inputs @ state.w1 + state.b1
    hidden = np.maximum(pre, 0.0)
    scores = hidden @ state.w2 + state.b2
    return scores, hidden


def _dv_parts(scores_joint: np.ndarray, scores_marg: np.ndarray) -> tuple[float, np.ndarray]:
    """DV bound value and the softmax weights of the marginal scores."""
    shift = float(np.max(scores_marg))
    expd = np.exp(scores_marg - shift)
    total = float(np.sum(expd))
    log_mean_exp = shift + np.log(total) - np.log(scores_marg.shape[0])
    bound = float(np.mean(scores_joint)) - log_mean_exp
    return bound, expd / total


def dv_bound(state: MineState, joint: np.ndarray, marginal: np.ndarray) -> float:
    """Evaluate the lower bound without touching the network."""
    scores_joint, _ = _forward(state, joint)
    scores_marg, _ = _forward(state, marginal)
    bound, _ = _dv_parts(scores_joint, scores_marg)
    return bound


def mine_train_step(
    state: MineState, joint: np.ndarray, marginal: np.ndarray
) -> tuple[MineState, float]:
    """One Adam ascent step on the DV bound; returns the pre-update bound."""
    b_joint = joint.shape[0]
    stacked = np.vstack([joint, marginal])
    scores, hidden = _forward(state, stacked)
    bound, softmax = _dv_parts(scores[:b_joint], scores[b_joint:])
    if not np.isfinite(bound):
        raise EstimatorError("mine training diverged to a non-finite bound")

    # d(bound)/d(scores): uniform weight on joint rows, minus the softmax
    # weights on marginal rows (gradient of -log mean exp).
    dscores = np.concatenate([np.full(b_joint, 1.0 / b_joint), -softmax])
    dw2 = hidden.T @ dscores
    db2 = float(np.sum(dscores))
    dhidden = np.outer(dscores, state.w2)
    dhidden[hidden <= 0.0] = 0.0
    dw1 = stacked.T @ dhidden
    db1 = dhidden.sum(axis=0)

    state.step += 1
    cfg = state.config
    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": np.asarray(db2)}
    params = state._params()
    correction1 = 1.0 - cfg.beta1 ** state.step
    correction2 = 1.0 - cfg.beta2 ** state.step
    for name, grad in grads.items():
        m, v = state.moments[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * np.square(grad)
        update = cfg.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + cfg.adam_eps
        )
        if name == "b2":
            state.b2 = float(params[name] + update)
        else:
            params[name] += update
    return state, bound


def _standardize(matrix: np.ndarray) -> np.ndarray:
    out = matrix.astype(np.float64, copy=True)
    means = out.mean(axis=0)
    stds = out.std(axis=0)
    stds[stds == 0.0] = 1.0
    return (out - means) / stds


def mine_estimate(
    left: np.ndarray, right: np.ndarray, config: MineConfig, seed: int
) -> float:
    """Train one network on (left; right) and return its MI estimate in nats."""
    n = left.shape[0]
    if config.batch_size > n:
        raise EstimatorError(
            f"mine batch size {config.batch_size} exceeds sample count {n}"
        )
    x = _standardize(left)
    y = _standardize(right)
    rng = philox(seed, _PURPOSE_MINE)
    state = MineState.initial(x.shape[1] + y.shape[1], config, rng)

    if config.iterations == 0:
        perm = rng.permutation(n)
        return dv_bound(state, np.hstack([x, y]), np.hstack([x, y[perm]]))

    bounds = []
    for _ in range(config.iterations):
        idx = rng.integers(0, n, size=config.batch_size)
        perm = rng.permutation(config.batch_size)
        bx, by = x[idx], y[idx]
        state, bound = mine_train_step(
            state, np.hstack([bx, by]), np.hstack([bx, by[perm]])
        )
        bounds.append(bound)
    tail = max(1, round(0.05 * config.iterations))
    value = float(np.mean(bounds[-tail:]))
    if not np.isfinite(value):
        raise EstimatorError("mine produced a non-finite estimate")
    return value
