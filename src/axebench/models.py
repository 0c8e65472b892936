"""Binary predictors: linear and logistic models, threshold rules, a small MLP,
and the off-manifold scaffold that hides a biased rule behind an
in-distribution detector.

Trained predictors are immutable once built and safe to call concurrently.
Every predictor kind serializes to JSON via :func:`save_predictor` /
:func:`load_predictor`, which checks every field's type and an MLP's layer
chain, so a malformed file raises a ValueError naming the field or layer.

The MLP scores a batch in blocks of ``core._BLOCK_ROWS`` = 2,048 consecutive
rows (blocks start at multiples of 2,048) and writes each block into one output
array. A kernel-Shapley row is one 25,400-row batch (254 coalitions x 100
background rows), and numpy's OpenBLAS runs a product that tall on every core.
On a 2-core Xeon (OpenBLAS 0.3.31) the first-layer product
(rows, inputs) @ (inputs, 8) ran on two threads from m*n*k = 1,048,576 (16,384
rows at 8 inputs) and on one up to 524,288 (2,048 rows at 32 inputs). At 8
inputs the whole 25,400-row product took 205 us wall and 400 us CPU, and a
2,048-row block 10.5 us on one thread; blocks of 1,024 rows cost more per row
(7.7 against 5.1 ns). The bias, tanh and sigmoid cost the same per row at any
height, so blocks halve the CPU of a batch at about the same wall time. A batch
of several blocks adds each bias from rows repeated to the block's height,
built once per call: numpy adds (2,048, 8) + (2,048, 8) in 5 us and the
broadcast (2,048, 8) + (8,) in 19 us, to the same bits, which pays for the
per-block overhead. A batch of one block runs as one ``_forward`` with the
broadcast biases, since repeated bias rows pay only across blocks. The blocks
are :func:`core.spans` of the batch, which says why a final one-row remainder
joins the block before it.

For the network the command line trains, hidden layer (8,), blocks give the
same bits as scoring the whole batch at once at every row count and input
width tested (up to 25,400 rows and 32 inputs). Other shapes can move in the
last bit past 2,048 rows, because OpenBLAS picks its kernel by matrix size:
hidden (2,), (3,), (4,) or (12,) with 16 or more inputs, and the gradient of
hidden (32,) or (64,) when the last block holds two rows. Only loaded model
files have those shapes. Training keeps its whole-dataset forward pass, so
trained weights do not depend on the block size.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from ._trees import BaggedTrees
from .core import (Dataset, Predictor, _BLOCK_ROWS, _coalition_sizes, check_fields, labels_of,
                   perturbed_copies, spans, write_json)


def _rows_of_width(X, width: int) -> np.ndarray:
    """X as a float matrix of ``width`` columns; any other shape is refused."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"dimension mismatch: model takes {width} features, "
                         f"data has shape {X.shape}")
    return X


def _two_class_labels(d: Dataset) -> np.ndarray:
    """The dataset's labels as floats; no labels, or one class only, is refused."""
    if d.labels is None:
        raise ValueError("dataset has no labels")
    y = d.labels.astype(float)
    if y.min() == y.max():
        raise ValueError("labels must contain both classes")
    return y


def sigmoid(z):
    """Numerically stable logistic function: 1 / (1 + e) for z >= 0 and
    e / (1 + e) below, with e = exp(-|z|), so exp never overflows.

    -|z| is taken as min(z, -z), which keeps the sign of a NaN; the result is
    bit-equal to evaluating each branch on its own rows. A 0-d input gives a float.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    out = np.where(z >= 0, 1.0 / d, e / d)
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

    # Predictor's one-row scalar queries, bound here and in four other classes only
    # because perfbench/tracing.py wraps each class's own dict entry by name.
    predict_proba = Predictor.predict_proba

    def predict_proba_batch(self, X) -> np.ndarray:
        return sigmoid(self._b0 + _rows_of_width(X, self._beta.size) @ self._beta)

    gradient = Predictor.gradient

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
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


class RulePredictor(Predictor):
    """predict(x) = 1[x_f > threshold] (or its inversion); probability is 0/1, no gradient."""

    def __init__(self, spec: RuleModelSpec, descriptor: str | None = None):
        self.spec = spec
        op = ">" if spec.positive_above else "<="
        self.descriptor = descriptor or f"rule(x{spec.feature_index}{op}{spec.threshold:g})"

    predict_proba = Predictor.predict_proba

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] <= self.spec.feature_index:
            raise ValueError(f"dimension mismatch: rule reads feature {self.spec.feature_index}, "
                             f"data has shape {X.shape}")
        fired = X[:, self.spec.feature_index] > self.spec.threshold
        return (fired == self.spec.positive_above).astype(float)

    def to_dict(self) -> dict:
        return {"kind": "rule", "feature_index": self.spec.feature_index,
                "threshold": self.spec.threshold, "positive_above": self.spec.positive_above,
                "descriptor": self.descriptor}


def make_rule_predictor(spec: RuleModelSpec, n_features: int | None = None) -> RulePredictor:
    if n_features is not None and not 0 <= spec.feature_index < n_features:
        raise ValueError("rule feature index out of range")
    return RulePredictor(spec)


def train_logistic(d: Dataset, seed: int = 0) -> LinearPredictor:
    """Full-batch gradient-descent logistic regression on the working features.

    Zero-initialized, so training is fully deterministic; the seed is recorded
    in the descriptor for provenance only.
    """
    y = _two_class_labels(d)
    X = d.features
    w = np.zeros(d.n_features)
    b = 0.0
    for _ in range(_LOGISTIC_EPOCHS):
        p = sigmoid(X @ w + b)
        err = p - y
        w -= _LOGISTIC_LEARNING_RATE * (X.T @ err / d.nu + _LOGISTIC_L2 * w)
        b -= _LOGISTIC_LEARNING_RATE * float(err.mean())
    spec = LinearModelSpec(coefficients=tuple(w), intercept=b)
    return LinearPredictor(spec, descriptor=f"logistic(d={d.n_features},l2={_LOGISTIC_L2:g},seed={seed})")


@dataclass(frozen=True)
class MlpSpec:
    """One-or-more hidden layers with a smooth sigmoid-family nonlinearity."""

    hidden_sizes: tuple[int, ...]
    activation: str = "tanh"
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.hidden_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("at least one hidden layer with positive width required")
        if self.activation not in ("tanh", "sigmoid"):
            raise ValueError("activation must be a sigmoid-family nonlinearity")
        object.__setattr__(self, "hidden_sizes", sizes)


def _act(name, z):
    """The hidden activation of z; tanh overwrites z, which must be a fresh array."""
    return np.tanh(z, out=z) if name == "tanh" else sigmoid(z)


def _act_grad(name, a):
    # derivative expressed through the activation value
    return 1.0 - a * a if name == "tanh" else a * (1.0 - a)


_LOGISTIC_L2, _LOGISTIC_EPOCHS, _LOGISTIC_LEARNING_RATE = 0.0, 400, 0.5
_MLP_L2, _MLP_LEARNING_RATE = 0.0, 0.1
_DETECTOR_HOLDOUT_FRACTION, _DETECTOR_FULL_NOISE_FRACTION = 0.25, 0.25


class MlpPredictor(Predictor):
    """Small feed-forward network with analytic input gradients.

    Construction checks the layer chain and that every weight and bias is
    finite, so a malformed model file raises a ValueError naming the layer
    instead of running with wrong shapes or scoring every row NaN.
    """

    def __init__(self, weights, biases, activation: str, descriptor: str):
        if activation not in ("tanh", "sigmoid"):
            raise ValueError(f"mlp activation must be 'tanh' or 'sigmoid', not {activation!r}")
        if not weights:
            raise ValueError("mlp needs at least one layer")
        if len(biases) != len(weights):
            raise ValueError(f"mlp has {len(weights)} weight matrices but {len(biases)} biases")
        self.weights, self.biases = [], []
        for i, (W, b) in enumerate(zip(weights, biases)):
            try:
                W, b = np.asarray(W, dtype=float), np.asarray(b, dtype=float)
            except ValueError:
                raise ValueError(f"mlp layer {i} weights and bias must be rectangular") from None
            if W.ndim != 2 or 0 in W.shape:
                raise ValueError(f"mlp layer {i} weights must be a non-empty matrix")
            if i and W.shape[0] != self.weights[-1].shape[1]:
                raise ValueError(f"mlp layer {i} takes {W.shape[0]} inputs, "
                                 f"layer {i - 1} gives {self.weights[-1].shape[1]}")
            if b.shape != W.shape[1:]:
                raise ValueError(f"mlp layer {i} bias must have {W.shape[1]} entries, "
                                 f"not shape {b.shape}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"mlp layer {i} weights and bias must be finite")
            self.weights.append(W)
            self.biases.append(b)
        if self.weights[-1].shape[1] != 1:
            raise ValueError(f"mlp last layer {len(weights) - 1} must give 1 output, "
                             f"not {self.weights[-1].shape[1]}")
        self.activation = activation
        self.descriptor = descriptor

    def _forward(self, X, biases=None):
        """Activations of every layer, X first; X is never written. Each layer
        adds its bias and applies tanh in place on its own fresh matmul output.
        ``biases`` replaces ``self.biases`` by the same rows repeated once per
        row of X, which numpy adds to the same bits faster than a broadcast row."""
        acts = [np.asarray(X, dtype=float)]
        for i, (W, b) in enumerate(zip(self.weights, self.biases if biases is None else biases)):
            z = acts[-1] @ W
            z += b
            last = i == len(self.weights) - 1
            acts.append(sigmoid(z) if last else _act(self.activation, z))
        return acts

    predict_proba = Predictor.predict_proba

    def _backward(self, acts):
        """Input gradients of the probability from one ``_forward``'s activations."""
        delta = acts[-1] * (1.0 - acts[-1])  # d proba / d output pre-activation
        for i in range(len(self.weights) - 1, 0, -1):
            delta = (delta @ self.weights[i].T) * _act_grad(self.activation, acts[i])
        return delta @ self.weights[0].T

    def _by_blocks(self, X, score, row_shape: tuple) -> np.ndarray:
        """``score`` of the ``_forward`` activations of each block of X's rows,
        written into one array of ``row_shape`` per row; the blocks are
        ``spans(len(X), _BLOCK_ROWS)``. One block skips the loop, to the same bits:
        3,000 one-row gradients took 96 ms that way and 170 ms through it (2-core Xeon)."""
        X = _rows_of_width(X, self.weights[0].shape[0])
        blocks = spans(len(X), _BLOCK_ROWS)
        if len(blocks) < 2:  # one block: no bias rows to share
            return score(self._forward(X))
        bias_rows = [np.repeat(b[None], _BLOCK_ROWS + 1, axis=0) for b in self.biases]
        out = np.empty((len(X), *row_shape))
        for start, end in blocks:
            biases = [b[:end - start] for b in bias_rows]
            out[start:end] = score(self._forward(X[start:end], biases))
        return out

    def predict_proba_batch(self, X) -> np.ndarray:
        return self._by_blocks(X, lambda acts: acts[-1][:, 0], ())

    gradient = Predictor.gradient

    def gradient_batch(self, X) -> np.ndarray:
        return self._by_blocks(X, self._backward, self.weights[0].shape[:1])

    def to_dict(self) -> dict:
        return {"kind": "mlp", "activation": self.activation, "descriptor": self.descriptor,
                "weights": [W.tolist() for W in self.weights],
                "biases": [b.tolist() for b in self.biases]}


def train_mlp(d: Dataset, spec: MlpSpec) -> MlpPredictor:
    """Full-batch backprop on binary cross-entropy; deterministic per spec.seed."""
    y = _two_class_labels(d)[:, None]
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
            gw = acts[i].T @ delta + _MLP_L2 * model.weights[i]
            gb = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ model.weights[i].T) * _act_grad(spec.activation, acts[i])
            model.weights[i] -= _MLP_LEARNING_RATE * gw
            model.biases[i] -= _MLP_LEARNING_RATE * gb
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

    predict_proba = Predictor.predict_proba

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

    def flags_copies(self, rows, free, which, values) -> np.ndarray:
        """``flags_batch`` of one-column copies of rows; see ``BaggedTrees.predict_proba_copies``."""
        return labels_of(self.model.predict_proba_copies(rows, free, which, values)).astype(bool)

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "sigma_ood": self.sigma_ood,
                "seed": self.seed, "heldout_accuracy": self.heldout_accuracy}

    @classmethod
    def from_dict(cls, d: dict) -> "OodDetector":
        check_fields("scaffold detector", d, {"model": dict, "sigma_ood": float, "seed": int,
                                              "heldout_accuracy": float})
        if not 0.0 < d["sigma_ood"] < np.inf:
            raise ValueError("scaffold detector sigma_ood must be finite and positive")
        if not 0.0 <= d["heldout_accuracy"] <= 1.0:
            raise ValueError("scaffold detector heldout_accuracy must lie in [0, 1]")
        return cls(model=BaggedTrees.from_dict(d["model"]), sigma_ood=d["sigma_ood"],
                   seed=d["seed"], heldout_accuracy=d["heldout_accuracy"])


def _perturbation_mask(rng, nu: int, n_features: int, full_fraction: float) -> np.ndarray:
    """Which entries of each noised training row receive Gaussian noise.

    A share of rows gets full-vector noise; the rest noise a random feature
    subset whose size follows the kernel-Shapley coalition-size law (heavily
    favoring one or a few features), mirroring how sampling-based explainers
    leave the manifold. Without the subset rows the detector never learns to
    flag points that deviate in a single column.
    """
    if n_features < 2:
        return np.ones((nu, n_features), dtype=bool)
    sizes, p = _coalition_sizes(n_features)
    mask = np.zeros((nu, n_features), dtype=bool)
    for i in range(nu):
        if rng.random() < full_fraction:
            mask[i] = True
        else:
            s = rng.choice(sizes, p=p)
            mask[i, rng.permutation(n_features)[:s]] = True
    return mask


def train_ood_detector(d: Dataset, sigma_ood: float, seed: int,
                       n_trees: int = 12, max_depth: int = 12) -> OodDetector:
    """Fit bagged trees on {real rows -> 0} vs {noised rows -> 1}, balanced."""
    if d.nu < 50:
        raise ValueError("need at least 50 rows to train the detector")
    rng = np.random.default_rng(seed)
    X = d.features
    noise = rng.normal(0.0, sigma_ood, X.shape)
    if not np.isfinite(noise).all():  # masking inf noise would give NaN rows
        raise ValueError(f"sigma_ood is too large: {sigma_ood!r} draws infinite noise")
    noise *= _perturbation_mask(rng, d.nu, d.n_features, _DETECTOR_FULL_NOISE_FRACTION)
    perturbed = X + noise
    # hold out real/perturbed twins together so near-duplicates never leak
    # between the sides, which would bias the accuracy estimate
    perm = rng.permutation(d.nu)
    n_hold = max(1, int(_DETECTOR_HOLDOUT_FRACTION * d.nu))

    def twins(rows):  # the real rows labelled 0, then their perturbed twins labelled 1
        return np.vstack([X[rows], perturbed[rows]]), np.repeat([0, 1], rows.size)

    Z_train, y_train = twins(perm[n_hold:])
    Z_hold, y_hold = twins(perm[:n_hold])
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
        if not 0.0 < self.sigma_ood < np.inf:  # as a scaffold file must hold it
            raise ValueError("sigma_ood must be finite and positive")
        object.__setattr__(self, "foils", foils)


class ScaffoldPredictor(Predictor):
    """Behaves like the biased rule on-manifold and like a foil rule off-manifold.

    Two-foil routing is a seeded hash of the query bytes, so the choice is a
    pure function of x (repeated calls agree) while alternating pseudo-randomly
    across distinct points.

    The detector is queried only on rows where some foil disagrees with the
    biased rule: elsewhere its flag cannot change the output. Routing hashes
    only the flagged rows, which is exact because a route depends on nothing
    but the row's bytes. Perturbed copies that differ from their row in one
    column take their flags from the detector's per-row leaf cells, which give
    the same bits as walking each copy; wider copies take the base protocol.
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

    predict_proba = Predictor.predict_proba

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self._assemble(X, lambda live: self.detector.flags_batch(X[live]))

    def predict_proba_copies(self, X, sets, draws) -> np.ndarray:
        if sets.shape[1] != 1:
            return super().predict_proba_copies(X, sets, draws)
        X = np.asarray(X, dtype=float)
        count = draws.shape[1]
        points = perturbed_copies(X, sets, draws)  # the rules and routing read them
        free = sets[:, 0]

        def flags(live):
            which = live // count
            return self.detector.flags_copies(X, free, which, points[live, free[which]])
        return self._assemble(points, flags).reshape(-1, count)

    def _assemble(self, X: np.ndarray, flags_of) -> np.ndarray:
        """The biased rule's output on X, with each row where a foil disagrees and
        ``flags_of(those rows' indices)`` is True served by its routed foil."""
        out = self.biased.predict_proba_batch(X)
        foil_out = [foil.predict_proba_batch(X) for foil in self.foils]
        live = np.flatnonzero(np.any([f != out for f in foil_out], axis=0))
        idx = live[flags_of(live)]
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


def _linear_from_dict(d: dict, label: str) -> LinearPredictor:
    check_fields(label, d, {"coefficients": list[float], "intercept": float,
                            "descriptor": str | None}, optional=("descriptor",))
    return LinearPredictor(LinearModelSpec(tuple(d["coefficients"]), d["intercept"]),
                           descriptor=d.get("descriptor"))


def _rule_from_dict(d: dict, label: str) -> RulePredictor:
    check_fields(label, d, {"feature_index": int, "threshold": float, "positive_above": bool,
                            "descriptor": str | None}, optional=("descriptor",))
    return RulePredictor(RuleModelSpec(d["feature_index"], d["threshold"], d["positive_above"]),
                         descriptor=d.get("descriptor"))


def _mlp_from_dict(d: dict, label: str) -> MlpPredictor:
    check_fields(label, d, {"activation": str, "descriptor": str,
                            "weights": list[list[list[float]]], "biases": list[list[float]]})
    return MlpPredictor(d["weights"], d["biases"], d["activation"], d["descriptor"])


def _scaffold_from_dict(d: dict, label: str) -> ScaffoldPredictor:
    check_fields(label, d, {"seed": int, "biased": dict, "foils": list[dict], "detector": dict,
                            "on_data_agreement": float | None, "descriptor": str | None},
                 optional=("on_data_agreement", "descriptor"))
    agreement = d.get("on_data_agreement")
    if agreement is not None and not 0.0 <= agreement <= 1.0:
        raise ValueError(f"{label} on_data_agreement must be null or lie in [0, 1]")
    foils = [_rule_from_dict(f, f"{label} foil {i}") for i, f in enumerate(d["foils"])]
    scaffold = ScaffoldPredictor(_rule_from_dict(d["biased"], f"{label} biased rule"), foils,
                                 OodDetector.from_dict(d["detector"]), d["seed"])
    scaffold.on_data_agreement = agreement
    scaffold.descriptor = d.get("descriptor") or scaffold.descriptor  # as linear and rule do
    return scaffold


_LOADERS = {"linear": _linear_from_dict, "rule": _rule_from_dict, "mlp": _mlp_from_dict,
            "scaffold": _scaffold_from_dict}


def save_predictor(pred: Predictor, path) -> None:
    """Persist a predictor spec + weights as JSON."""
    if not hasattr(pred, "to_dict"):
        raise ValueError(f"predictor {pred.descriptor!r} does not support serialization")
    write_json(path, pred.to_dict())


def load_predictor(path) -> Predictor:
    """Rebuild a predictor from its JSON file; a malformed file raises a ValueError."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    check_fields("predictor file", d, {"kind": str})
    kind = d["kind"]
    if kind not in _LOADERS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    return _LOADERS[kind](d, f"{kind} predictor file")
