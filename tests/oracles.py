"""Independent straight-from-definition implementations used to verify the
library. Everything here is deliberately written with plain loops and its own
tie-breaking logic so it shares no code path with the package.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.stats


def top_n_oracle(e, n):
    e = list(e)
    order = sorted(range(len(e)), key=lambda i: (-abs(e[i]), i))
    return order[:n]


def bottom_n_oracle(e, n):
    e = list(e)
    order = sorted(range(len(e)), key=lambda i: (abs(e[i]), i))
    return order[:n]


def rank_oracle(e):
    # fractional ranks, rank 1 = largest magnitude
    return scipy.stats.rankdata([-abs(v) for v in e], method="average")


def fa_oracle(e, e_star, n):
    if n == 0:
        return 0.0
    return len(set(top_n_oracle(e, n)) & set(top_n_oracle(e_star, n))) / n


def ra_oracle(e, e_star, n):
    if n == 0:
        return 0.0
    re, rs = rank_oracle(e), rank_oracle(e_star)
    common = set(top_n_oracle(e, n)) & set(top_n_oracle(e_star, n))
    return sum(1 for f in common if re[f] == rs[f]) / n


def _sgn(v):
    return int(v > 0) - int(v < 0)


def sa_oracle(e, e_star, n):
    if n == 0:
        return 0.0
    common = set(top_n_oracle(e, n)) & set(top_n_oracle(e_star, n))
    return sum(1 for f in common if _sgn(e[f]) == _sgn(e_star[f])) / n


def sra_oracle(e, e_star, n):
    if n == 0:
        return 0.0
    re, rs = rank_oracle(e), rank_oracle(e_star)
    common = set(top_n_oracle(e, n)) & set(top_n_oracle(e_star, n))
    return sum(1 for f in common
               if re[f] == rs[f] and _sgn(e[f]) == _sgn(e_star[f])) / n


def rc_oracle(e, e_star):
    # spearman on magnitudes == pearson on (either direction of) fractional ranks
    if len(set(abs(v) for v in e)) == 1 or len(set(abs(v) for v in e_star)) == 1:
        return None
    rho = scipy.stats.spearmanr([abs(v) for v in e], [abs(v) for v in e_star]).statistic
    return float(rho)


def pra_oracle(e, e_star):
    a = [abs(v) for v in e]
    b = [abs(v) for v in e_star]
    agree, total = 0, 0
    for i, j in combinations(range(len(a)), 2):
        total += 1
        agree += _sgn(a[i] - a[j]) == _sgn(b[i] - b[j])
    return agree / total


def knn_oracle(train, targets, subset, x, k, include_self, self_index):
    """Exhaustive distance sort with explicit (distance, index) tie-breaking."""
    scored = []
    for idx in range(len(train)):
        if not include_self and self_index is not None and idx == self_index:
            continue
        dist = sum(d * d for d in (train[idx][f] - x[f] for f in subset))
        scored.append((dist, idx))
    scored.sort()
    if k > len(scored):
        raise ValueError("k exceeds candidate count")
    ones = sum(targets[idx] for _, idx in scored[:k])
    return 1 if ones * 2 > k else 0


def knn_table_oracle(train, subset, query, k, include_self):
    """Indices of the k rows nearest to row ``query`` on ``subset``, from an
    exhaustive (distance, index) sort; leave-one-out skips the query row."""
    scored = []
    for idx in range(len(train)):
        if not include_self and idx == query:
            continue
        dist = sum(d * d for d in (train[idx][f] - train[query][f] for f in subset))
        scored.append((dist, idx))
    scored.sort()
    if k > len(scored):
        raise ValueError("k exceeds candidate count")
    return [idx for _, idx in scored[:k]]


def axe_oracle(features, y_preds, importance_rows, n, k, include_self):
    per_point = []
    for i in range(len(features)):
        subset = top_n_oracle(importance_rows[i], n)
        pred = knn_oracle(features, y_preds, subset, features[i], k,
                          include_self, None if include_self else i)
        per_point.append(1.0 if pred == y_preds[i] else 0.0)
    return per_point, sum(per_point) / len(per_point)


def pgi_oracle(proba_fn, x, e, n, num_perturbations, sigma, seed):
    """Re-derives the documented draw scheme and loops point by point."""
    subset = sorted(top_n_oracle(e, n))
    if not subset:
        return 0.0
    rng = np.random.default_rng(seed)
    draws = rng.normal(0.0, sigma, (num_perturbations, len(subset)))
    base = proba_fn(np.asarray(x, dtype=float))
    total = 0.0
    for row in draws:
        z = np.array(x, dtype=float)
        for pos, f in enumerate(subset):
            z[f] += row[pos]
        total += abs(proba_fn(z) - base)
    return total / num_perturbations


def pgu_oracle(proba_fn, x, e, n, num_perturbations, sigma, seed, negate=True):
    subset = sorted(bottom_n_oracle(e, n))
    if not subset:
        return 0.0
    rng = np.random.default_rng(seed)
    draws = rng.normal(0.0, sigma, (num_perturbations, len(subset)))
    base = proba_fn(np.asarray(x, dtype=float))
    total = 0.0
    for row in draws:
        z = np.array(x, dtype=float)
        for pos, f in enumerate(subset):
            z[f] += row[pos]
        total += abs(proba_fn(z) - base)
    value = total / num_perturbations
    return -value if negate else value


def tree_oracle(tree, x):
    """Walk one serialized tree (``_Tree.to_dict`` layout) from its root to a
    leaf, one node at a time: go left when x[feature] <= threshold."""
    node = 0
    while tree["feature"][node] >= 0:
        f = tree["feature"][node]
        if x[f] <= tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return tree["value"][node]


def best_split_oracle(X, y, feature_ids):
    """Per-feature gini scan, one candidate at a time: (score, feature,
    threshold) of the lowest gini cut between distinct values, the earliest
    cut within a feature and the earliest feature in ``feature_ids`` order on
    ties, or None when every candidate is constant."""
    n = y.size
    total_pos = float(y.sum())
    best = None
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        v = X[order, f]
        distinct = v[1:] != v[:-1]
        if not distinct.any():
            continue
        pos_left = np.cumsum(y[order])[:-1].astype(float)
        n_left = np.arange(1, n, dtype=float)
        n_right = n - n_left
        pos_right = total_pos - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini = (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n
        gini[~distinct] = np.inf
        i = int(np.argmin(gini))
        if best is None or gini[i] < best[0]:
            best = (float(gini[i]), int(f), float((v[i] + v[i + 1]) / 2.0))
    return best


def grow_tree_oracle(X, y, rng, max_depth, min_leaf, max_features):
    """One tree grown by recursion, node by node in preorder, each split from
    ``best_split_oracle``; the tree's arrays in ``_Tree.to_dict`` layout."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(idx, depth):
        node = add_node()
        sub_y = y[idx]
        value[node] = float(sub_y.mean())
        if depth >= max_depth or idx.size < 2 * min_leaf or sub_y.min() == sub_y.max():
            return node
        cand = rng.permutation(X.shape[1])[:max_features]
        split = best_split_oracle(X[idx], sub_y, cand)
        if split is None:
            return node
        _, f, t = split
        mask = X[idx, f] <= t
        if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
            return node
        feature[node] = f
        threshold[node] = t
        left[node] = build(idx[mask], depth + 1)
        right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return {"feature": feature, "threshold": threshold, "left": left, "right": right,
            "value": value}


def forest_oracle(X, y, n_trees, max_depth, min_leaf, feature_fraction, seed):
    """The trees of a bagged forest, one at a time: the forest generator seeds
    each tree's generator, which draws the tree's bootstrap rows and then its
    candidate features in ``grow_tree_oracle``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    max_features = max(1, int(round(feature_fraction * X.shape[1])))
    trees = []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(0, 2**31))
        boot = tree_rng.integers(0, X.shape[0], X.shape[0])
        trees.append(grow_tree_oracle(X[boot], y[boot], tree_rng, max_depth, min_leaf,
                                      max_features))
    return trees


def sigmoid_oracle(z):
    """Logistic function with each branch evaluated on its own rows by boolean
    masks: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def mlp_forward_oracle(weights, biases, activation, X):
    """Activations of every layer, X first: a @ W + b, then tanh or the
    logistic function on hidden layers and the logistic function on the last."""
    acts = [np.asarray(X, dtype=float)]
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ W + b
        last = i == len(weights) - 1
        acts.append(np.tanh(z) if activation == "tanh" and not last else sigmoid_oracle(z))
    return acts


def shapley_exhaustive(value_fn, n):
    """Permutation-weighted subset sum; value_fn maps a frozenset of features
    to the coalition value."""
    phi = np.zeros(n)
    players = list(range(n))
    for i in players:
        rest = [p for p in players if p != i]
        for size in range(n):
            weight = (math.factorial(size) * math.factorial(n - size - 1)
                      / math.factorial(n))
            for coalition in combinations(rest, size):
                s = frozenset(coalition)
                phi[i] += weight * (value_fn(s | {i}) - value_fn(s))
    return phi


def region_tsv_oracle(axis, metric, grid):
    """The bytes of one region-grid TSV, one ``repr`` per value and one line per
    cell: header, then ``i1\\ti2\\tmetric\\tq`` for every (i, j) in grid order."""
    axis = np.asarray(axis).tolist()
    lines = ["i1\ti2\tmetric\tq\n"]
    for a, row in zip(axis, np.asarray(grid).tolist()):
        for b, q in zip(axis, row):
            lines.append(f"{a!r}\t{b!r}\t{metric}\t{q!r}\n")
    return "".join(lines).encode("utf-8")


def kernel_shapley_oracle(proba_batch, x, features, samples, background_size, seed):
    """Kernel-Shapley values with one model call per coalition mask, repeated
    masks included. Re-derives the documented draws: the background rows, then
    every coalition in binary order (bit j = feature j) with its kernel weight
    when 2**n - 2 <= samples, else ``samples`` masks, each a size drawn with
    chance (n-1) / (s(n-s)) and that many features of a permutation, weight 1.
    The least squares substitutes phi_n = delta - sum of the others."""
    x = np.asarray(x, dtype=float)
    n = x.size
    rng = np.random.default_rng(seed)
    count = min(background_size, len(features))
    background = np.asarray(features, dtype=float)[rng.choice(len(features), size=count,
                                                              replace=False)]
    v_empty = float(proba_batch(background).mean())
    delta = float(proba_batch(x[None])[0]) - v_empty
    if 2**n - 2 <= samples:
        masks = [[(bits >> j) & 1 for j in range(n)] for bits in range(1, 2**n - 1)]
        weights = [(n - 1) / (math.comb(n, sum(m)) * sum(m) * (n - sum(m))) for m in masks]
    else:
        sizes = np.arange(1, n)
        p = (n - 1) / (sizes * (n - sizes))
        masks = []
        for s in rng.choice(sizes, size=samples, p=p / p.sum()):
            mask = [0] * n
            for j in rng.permutation(n)[:s]:
                mask[j] = 1
            masks.append(mask)
        weights = [1.0] * samples
    values = []
    for mask in masks:
        rows = background.copy()
        for j in range(n):
            if mask[j]:
                rows[:, j] = x[j]
        values.append(float(proba_batch(rows).mean()))
    masks = np.array(masks, dtype=float).reshape(-1, n)
    sw = np.sqrt(np.array(weights))
    z_last = masks[:, -1]
    design = (masks[:, :-1] - z_last[:, None]) * sw[:, None]
    target = (np.array(values) - v_empty - z_last * delta) * sw
    head = np.linalg.lstsq(design, target, rcond=None)[0]
    return np.append(head, delta - head.sum())
