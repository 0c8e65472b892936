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
        dist = sum((train[idx][f] - x[f]) ** 2 for f in subset)
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
        dist = sum((train[idx][f] - train[query][f]) ** 2 for f in subset)
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
