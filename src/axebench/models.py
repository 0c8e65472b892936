"""Binary predictors: linear and logistic models, threshold rules, a small MLP,
and the off-manifold scaffold that hides a biased rule behind an
in-distribution detector.

Trained predictors are immutable once built and safe to call concurrently.
Every predictor kind serializes to JSON via :func:`save_predictor` /
:func:`load_predictor`.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from ._trees import BaggedTrees
from .core import Dataset, Predictor, one_row, write_json


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LinearModelSpec:
    """Coefficients and intercept of a logistic-link linear score."""

    coefficients: tuple[float, ...]
    intercept: float = 0.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("at least one coefficient required")
        if not all(np.isfinite(coeffs)) or not np.isfinite(self.intercept):
            raise ValueError("coefficients must be finite")
        if not any(c != 0.0 for c in coeffs):
            raise ValueError("at least one coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "intercept", float(self.intercept))


class LinearPredictor(Predictor):
    """predict_proba(x) = sigmoid(intercept + coefficients . x), exact gradient."""

    def __init__(self, spec: LinearModelSpec, descriptor: str | None = None):
        self.spec = spec
        self._beta = np.asarray(spec.coefficients, dtype=float)
        self._beta.flags.writeable = False
        self._b0 = spec.intercept
        self.descriptor = descriptor or f"linear(d={self._beta.size})"

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(one_row(x))[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._beta.size:
            raise ValueError(f"dimension mismatch: model takes {self._beta.size} features, "
                             f"data has shape {X.shape}")
        return sigmoid(self._b0 + X @ self._beta)

    def gradient(self, x) -> np.ndarray:
        return self.gradient_batch(one_row(x))[0]

    def gradient_batch(self, X) -> np.ndarray:
        p = self.predict_proba_batch(X)
        return (p * (1.0 - p))[:, None] * self._beta

    def to_dict(self) -> dict:
        return {"kind": "linear", "coefficients": list(self.spec.coefficients),
                "intercept": self.spec.intercept, "descriptor": self.descriptor}


def make_linear_predictor(spec: LinearModelSpec, n_features: int | None = None) -> LinearPredictor:
    if n_features is not None and len(spec.coefficients) != n_features:
        raise ValueError("dimension mismatch")
    return LinearPredictor(spec)


@dataclass(frozen=True)
class RuleModelSpec:
    """Single-feature threshold rule."""

    feature_index: int
    threshold: float = 0.0
    positive_above: bool = True

    def __post_init__(self):
        object.__setattr__(self, "feature_index", int(self.feature_index))
        object.__setattr__(self, "threshold", float(self.threshold))
        if self.feature_index < 0:
            raise ValueError("feature_index must be non-negative")


class RulePredictor(Predictor):
    """predict(x) = 1[x_f > threshold] (or its inversion); probability is 0/1, no gradient."""

    def __init__(self, spec: RuleModelSpec, descriptor: str | None = None):
        self.spec = spec
        op = ">" if spec.positive_above else "<="
        self.descriptor = descriptor or f"rule(x{spec.feature_index}{op}{spec.threshold:g})"

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(one_row(x))[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        fired = np.asarray(X, dtype=float)[:, self.spec.feature_index] > self.spec.threshold
        return (fired == self.spec.positive_above).astype(float)

    def to_dict(self) -> dict:
        return {"kind": "rule", "feature_index": self.spec.feature_index,
                "threshold": self.spec.threshold, "positive_above": self.spec.positive_above,
                "descriptor": self.descriptor}


def make_rule_predictor(spec: RuleModelSpec, n_features: int | None = None) -> RulePredictor:
    if n_features is not None and not 0 <= spec.feature_index < n_features:
        raise ValueError("rule feature index out of range")
    return RulePredictor(spec)


def train_logistic(d: Dataset, l2: float = 0.0, seed: int = 0,
                   epochs: int = 400, learning_rate: float = 0.5) -> LinearPredictor:
    """Full-batch gradient-descent logistic regression on the working features.

    Zero-initialized, so training is fully deterministic; the seed is recorded
    in the descriptor for provenance only.
    """
    if d.labels is None:
        raise ValueError("dataset has no labels")
    y = d.labels.astype(float)
    if y.min() == y.max():
        raise ValueError("labels must contain both classes")
    X = d.features
    w = np.zeros(d.n_features)
    b = 0.0
    for _ in range(epochs):
        p = sigmoid(X @ w + b)
        err = p - y
        w -= learning_rate * (X.T @ err / d.nu + l2 * w)
        b -= learning_rate * float(err.mean())
    spec = LinearModelSpec(coefficients=tuple(w), intercept=b)
    return LinearPredictor(spec, descriptor=f"logistic(d={d.n_features},l2={l2:g},seed={seed})")


@dataclass(frozen=True)
class MlpSpec:
    """One-or-more hidden layers with a smooth sigmoid-family nonlinearity."""

    hidden_sizes: tuple[int, ...]
    activation: str = "tanh"
    l2: float = 0.0
    epochs: int = 300
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.hidden_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("at least one hidden layer with positive width required")
        if self.activation not in ("tanh", "sigmoid"):
            raise ValueError("activation must be a sigmoid-family nonlinearity")
        object.__setattr__(self, "hidden_sizes", sizes)


def _act(name, z):
    return np.tanh(z) if name == "tanh" else sigmoid(z)


def _act_grad(name, a):
    # derivative expressed through the activation value
    return 1.0 - a * a if name == "tanh" else a * (1.0 - a)


class MlpPredictor(Predictor):
    """Small feed-forward network with analytic input gradients."""

    def __init__(self, weights, biases, activation: str, descriptor: str):
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.activation = activation
        self.descriptor = descriptor

    def _forward(self, X):
        acts = [np.asarray(X, dtype=float)]
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ W + b
            last = i == len(self.weights) - 1
            acts.append(sigmoid(z) if last else _act(self.activation, z))
        return acts

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(one_row(x))[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        return self._forward(X)[-1][:, 0]

    def gradient(self, x) -> np.ndarray:
        return self.gradient_batch(one_row(x))[0]

    def gradient_batch(self, X) -> np.ndarray:
        acts = self._forward(X)
        delta = acts[-1] * (1.0 - acts[-1])  # d proba / d output pre-activation
        for i in range(len(self.weights) - 1, 0, -1):
            delta = (delta @ self.weights[i].T) * _act_grad(self.activation, acts[i])
        return delta @ self.weights[0].T

    def to_dict(self) -> dict:
        return {"kind": "mlp", "activation": self.activation, "descriptor": self.descriptor,
                "weights": [W.tolist() for W in self.weights],
                "biases": [b.tolist() for b in self.biases]}


def train_mlp(d: Dataset, spec: MlpSpec) -> MlpPredictor:
    """Full-batch backprop on binary cross-entropy; deterministic per spec.seed."""
    if d.labels is None:
        raise ValueError("dataset has no labels")
    y = d.labels.astype(float)[:, None]
    if y.min() == y.max():
        raise ValueError("labels must contain both classes")
    rng = np.random.default_rng(spec.seed)
    sizes = (d.n_features, *spec.hidden_sizes, 1)
    weights = [rng.normal(0, 1.0 / np.sqrt(sizes[i]), (sizes[i], sizes[i + 1]))
               for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    model = MlpPredictor(weights, biases, spec.activation,
                         descriptor=f"mlp({'x'.join(map(str, spec.hidden_sizes))},seed={spec.seed})")
    X = d.features
    for _ in range(spec.epochs):
        acts = model._forward(X)
        delta = (acts[-1] - y) / d.nu  # BCE gradient through the output sigmoid
        for i in range(len(model.weights) - 1, -1, -1):
            gw = acts[i].T @ delta + spec.l2 * model.weights[i]
            gb = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ model.weights[i].T) * _act_grad(spec.activation, acts[i])
            model.weights[i] -= spec.learning_rate * gw
            model.biases[i] -= spec.learning_rate * gb
    return model


class OffManifoldFlipPredictor(Predictor):
    """Rashomon twin of ``base``: identical on every anchored row, flipped elsewhere.

    Used to witness whether a metric reacts to behavior outside the data
    manifold. Membership is exact byte equality with the anchor rows.
    """

    def __init__(self, base: Predictor, anchor_rows):
        self.base = base
        self._anchors = {r.tobytes() for r in np.ascontiguousarray(anchor_rows, dtype=float)}
        self.descriptor = f"offmanifold-flip({base.descriptor})"

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(one_row(x))[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=float)
        p = self.base.predict_proba_batch(X)
        anchored = np.array([row.tobytes() in self._anchors for row in X], dtype=bool)
        return np.where(anchored, p, 1.0 - p)


@dataclass
class OodDetector:
    """Real-versus-perturbed classifier with its recorded held-out accuracy."""

    model: BaggedTrees
    sigma_ood: float
    seed: int
    heldout_accuracy: float

    def flags_batch(self, X) -> np.ndarray:
        """True where a point looks perturbed (off-manifold)."""
        return self.model.predict(X).astype(bool)

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "sigma_ood": self.sigma_ood,
                "seed": self.seed, "heldout_accuracy": self.heldout_accuracy}

    @classmethod
    def from_dict(cls, d: dict) -> "OodDetector":
        return cls(model=BaggedTrees.from_dict(d["model"]), sigma_ood=d["sigma_ood"],
                   seed=d["seed"], heldout_accuracy=d["heldout_accuracy"])


def _perturbation_mask(rng, nu: int, n_features: int, full_fraction: float) -> np.ndarray:
    """Which entries of each noised training row receive Gaussian noise.

    A share of rows gets full-vector noise; the rest noise a random feature
    subset whose size follows the coalition kernel law (heavily favoring one or
    a few features), mirroring how sampling-based explainers actually leave the
    manifold. Without the subset rows the detector never learns to flag points
    that deviate in a single column.
    """
    mask = np.zeros((nu, n_features), dtype=bool)
    if n_features < 2:
        return np.ones((nu, n_features), dtype=bool)
    sizes = np.arange(1, n_features)
    p = (n_features - 1) / (sizes * (n_features - sizes))
    p = p / p.sum()
    for i in range(nu):
        if rng.random() < full_fraction:
            mask[i] = True
        else:
            s = rng.choice(sizes, p=p)
            mask[i, rng.permutation(n_features)[:s]] = True
    return mask


def train_ood_detector(d: Dataset, sigma_ood: float, seed: int,
                       n_trees: int = 12, max_depth: int = 12,
                       holdout_fraction: float = 0.25,
                       full_noise_fraction: float = 0.25) -> OodDetector:
    """Fit bagged trees on {real rows -> 0} vs {noised rows -> 1}, balanced."""
    if d.nu < 50:
        raise ValueError("need at least 50 rows to train the detector")
    rng = np.random.default_rng(seed)
    X = d.features
    noise = rng.normal(0.0, sigma_ood, X.shape)
    noise *= _perturbation_mask(rng, d.nu, d.n_features, full_noise_fraction)
    perturbed = X + noise
    # hold out real/perturbed twins together so near-duplicates never leak
    # between the sides, which would bias the accuracy estimate
    perm = rng.permutation(d.nu)
    n_hold = max(1, int(holdout_fraction * d.nu))
    hold_rows, train_rows = perm[:n_hold], perm[n_hold:]
    Z_train = np.vstack([X[train_rows], perturbed[train_rows]])
    y_train = np.concatenate([np.zeros(train_rows.size, dtype=int),
                              np.ones(train_rows.size, dtype=int)])
    Z_hold = np.vstack([X[hold_rows], perturbed[hold_rows]])
    y_hold = np.concatenate([np.zeros(hold_rows.size, dtype=int),
                             np.ones(hold_rows.size, dtype=int)])
    trees = BaggedTrees(n_trees=n_trees, max_depth=max_depth,
                        seed=int(rng.integers(0, 2**31))).fit(Z_train, y_train)
    accuracy = float((trees.predict(Z_hold) == y_hold).mean())
    return OodDetector(model=trees, sigma_ood=float(sigma_ood), seed=int(seed),
                       heldout_accuracy=accuracy)


@dataclass(frozen=True)
class ScaffoldSpec:
    """Recipe for an adversarial scaffold: one biased rule plus 1-2 foil rules."""

    biased: RuleModelSpec
    foils: tuple[RuleModelSpec, ...]
    sigma_ood: float = 1.0
    seed: int = 0
    detector_trees: int = 12
    detector_depth: int = 12

    def __post_init__(self):
        foils = tuple(self.foils)
        if not foils:
            raise ValueError("at least one foil required")
        if len(foils) > 2:
            raise ValueError("at most two foils supported")
        indices = [self.biased.feature_index] + [f.feature_index for f in foils]
        if len(set(indices)) != len(indices):
            raise ValueError("foil feature indices must differ from the protected index")
        object.__setattr__(self, "foils", foils)


class ScaffoldPredictor(Predictor):
    """Behaves like the biased rule on-manifold and like a foil rule off-manifold.

    Two-foil routing is a seeded hash of the query bytes, so the choice is a
    pure function of x (repeated calls agree) while alternating pseudo-randomly
    across distinct points.

    The detector is queried only on rows where some foil disagrees with the
    biased rule: elsewhere its flag cannot change the output. Routing hashes
    only the flagged rows, which is exact because a route depends on nothing
    but the row's bytes.
    """

    def __init__(self, biased: RulePredictor, foils: list[RulePredictor],
                 detector: OodDetector, seed: int):
        self.biased = biased
        self.foils = list(foils)
        self.detector = detector
        self.seed = int(seed)
        self.on_data_agreement: float | None = None
        low = detector.heldout_accuracy < 0.85
        self.descriptor = (f"scaffold({biased.descriptor};foils={len(foils)};"
                           f"det={detector.heldout_accuracy:.3f}"
                           f"{';low-detector' if low else ''})")

    def _routes(self, X: np.ndarray) -> np.ndarray:
        """Foil index per row of X: the seeded crc32 of the row's bytes."""
        if len(self.foils) == 1:
            return np.zeros(len(X), dtype=int)
        digests = np.fromiter(map(zlib.crc32, np.ascontiguousarray(X, dtype=float)),
                              dtype=np.int64, count=len(X))
        return (digests ^ (self.seed & 0xFFFFFFFF)) & 1

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(one_row(x))[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = self.biased.predict_proba_batch(X)
        foil_out = [foil.predict_proba_batch(X) for foil in self.foils]
        live = np.flatnonzero(np.any([f != out for f in foil_out], axis=0))
        idx = live[self.detector.flags_batch(X[live])]
        routes = self._routes(X[idx])
        for foil_id, f in enumerate(foil_out):
            sel = idx[routes == foil_id]
            out[sel] = f[sel]
        return out

    def to_dict(self) -> dict:
        return {"kind": "scaffold", "seed": self.seed,
                "biased": self.biased.to_dict(),
                "foils": [f.to_dict() for f in self.foils],
                "detector": self.detector.to_dict(),
                "on_data_agreement": self.on_data_agreement,
                "descriptor": self.descriptor}


def build_scaffold(d: Dataset, spec: ScaffoldSpec) -> ScaffoldPredictor:
    """Train the detector, assemble the scaffold, and record on-data agreement."""
    detector = train_ood_detector(d, spec.sigma_ood, spec.seed,
                                  n_trees=spec.detector_trees, max_depth=spec.detector_depth)
    biased = make_rule_predictor(spec.biased, d.n_features)
    foils = [make_rule_predictor(f, d.n_features) for f in spec.foils]
    scaffold = ScaffoldPredictor(biased, foils, detector, spec.seed)
    agreement = float((scaffold.predict_batch(d.features) == biased.predict_batch(d.features)).mean())
    scaffold.on_data_agreement = agreement
    scaffold.descriptor += f"[agree={agreement:.3f}]"
    return scaffold


def _scaffold_from_dict(d: dict) -> ScaffoldPredictor:
    rule = _LOADERS["rule"]
    scaffold = ScaffoldPredictor(rule(d["biased"]), [rule(f) for f in d["foils"]],
                                 OodDetector.from_dict(d["detector"]), d["seed"])
    scaffold.on_data_agreement = d.get("on_data_agreement")
    scaffold.descriptor = d.get("descriptor", scaffold.descriptor)
    return scaffold


_LOADERS = {
    "linear": lambda d: LinearPredictor(LinearModelSpec(tuple(d["coefficients"]), d["intercept"]),
                                        descriptor=d.get("descriptor")),
    "rule": lambda d: RulePredictor(
        RuleModelSpec(d["feature_index"], d["threshold"], d["positive_above"]),
        descriptor=d.get("descriptor")),
    "mlp": lambda d: MlpPredictor(d["weights"], d["biases"], d["activation"], d["descriptor"]),
    "scaffold": _scaffold_from_dict,
}


def save_predictor(pred: Predictor, path) -> None:
    """Persist a predictor spec + weights as JSON."""
    if not hasattr(pred, "to_dict"):
        raise ValueError(f"predictor {pred.descriptor!r} does not support serialization")
    write_json(path, pred.to_dict())


def load_predictor(path) -> Predictor:
    """Rebuild a predictor from its JSON file; a malformed file raises a ValueError."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"predictor file must hold a JSON object, not a {type(d).__name__}")
    kind = d.get("kind")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise ValueError(f"unknown predictor kind {kind!r}")
    try:
        return loader(d)
    except KeyError as exc:
        raise ValueError(f"{kind} predictor file lacks {exc.args[0]!r}") from None
