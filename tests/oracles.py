"""Deliberately naive reference implementations for cross-checking.

Everything here favors transparency over speed: double loops, full sorts,
explicit enumeration, dense eigensolvers.  Nothing imports the library's
own numerics, so agreement between the two is meaningful.
"""

import itertools
import math

import numpy as np
import scipy.linalg


def cosine(a, b):
    num = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return num / (na * nb)


def weat_assoc(vectors, w, attrs_a, attrs_b):
    sa = sum(cosine(vectors[w], vectors[a]) for a in attrs_a) / len(attrs_a)
    sb = sum(cosine(vectors[w], vectors[b]) for b in attrs_b) / len(attrs_b)
    return sa - sb


def weat_statistic(vectors, x_words, y_words, attrs_a, attrs_b):
    sx = sum(weat_assoc(vectors, x, attrs_a, attrs_b) for x in x_words)
    sy = sum(weat_assoc(vectors, y, attrs_a, attrs_b) for y in y_words)
    return sx - sy


def mweat_inanimate(vectors, w, attrs_a, attrs_b):
    return abs(weat_assoc(vectors, w, attrs_a, attrs_b))


def mweat_pair(vectors, word_m, word_f, attrs_a, attrs_b, signed=False):
    v = abs(weat_assoc(vectors, word_m, attrs_a, attrs_b)) \
        - abs(weat_assoc(vectors, word_f, attrs_a, attrs_b))
    return v if signed else abs(v)


def mweat_aggregate(vectors, x_words, y_words, attrs_a, attrs_b):
    sx = sum(weat_assoc(vectors, x, attrs_a, attrs_b) for x in x_words)
    sy = sum(weat_assoc(vectors, y, attrs_a, attrs_b) for y in y_words)
    return abs(abs(sx) - abs(sy))


def pair_swap_pvalue_exact(vectors, x_words, y_words, attrs_a, attrs_b):
    """Exact p over all 2^n within-pair swap patterns: #{null >= obs} / 2^n
    (the identity pattern counts itself, so p is never 0).

    The enumeration runs in rational arithmetic over the float association
    scores, so structural ties (swap patterns that reproduce the observed
    value exactly in real arithmetic) are counted exactly, never split by
    float roundoff."""
    from fractions import Fraction
    sx = [Fraction(weat_assoc(vectors, x, attrs_a, attrs_b)) for x in x_words]
    sy = [Fraction(weat_assoc(vectors, y, attrs_a, attrs_b)) for y in y_words]
    obs = abs(abs(sum(sx)) - abs(sum(sy)))
    n = len(sx)
    count = 0
    for pattern in itertools.product((False, True), repeat=n):
        nx = [sy[i] if sw else sx[i] for i, sw in enumerate(pattern)]
        ny = [sx[i] if sw else sy[i] for i, sw in enumerate(pattern)]
        if abs(abs(sum(nx)) - abs(sum(ny))) >= obs:
            count += 1
    return count / (2 ** n)


def top_k_sorted(vectors, query, k, exclude=()):
    """Full sort by (-cosine, word); returns the first k (word, score)."""
    rows = []
    for w, v in vectors.items():
        if w in exclude:
            continue
        rows.append((w, cosine(v, query)))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return rows[:k]


def analogy_rank(scored_candidates, gold):
    """1-based rank of gold in a {word: score} map after a full
    (-score, word) sort."""
    order = sorted(scored_candidates, key=lambda w: (-scored_candidates[w], w))
    return order.index(gold) + 1


def pca_top_component_eigh(diffs):
    """Dense-eigensolver oracle for the mean-centered difference PCA."""
    diffs = np.asarray(diffs, dtype=np.float64)
    mean = diffs.mean(axis=0)
    centered = diffs - mean
    cov = centered.T @ centered / diffs.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    if float(mean @ v) < 0.0:
        v = -v
    total = float(vals.sum())
    explained = float(vals[-1]) / total if total > 0.0 else 1.0
    return v, explained


def lda_direction_inverse(x_masc, x_fem, ridge):
    """Explicit-inverse oracle for the ridge-LDA direction."""
    x_masc = np.asarray(x_masc, dtype=np.float64)
    x_fem = np.asarray(x_fem, dtype=np.float64)
    dim = x_masc.shape[1]
    mu_m = x_masc.mean(axis=0)
    mu_f = x_fem.mean(axis=0)
    cm = x_masc - mu_m
    cf = x_fem - mu_f
    pooled = (cm.T @ cm + cf.T @ cf) / (len(x_masc) + len(x_fem) - 2)
    eps = ridge * float(np.trace(pooled)) / dim
    d = np.linalg.inv(pooled + eps * np.eye(dim)) @ (mu_f - mu_m)
    d = d / np.linalg.norm(d)
    if float(mu_f @ d) < float(mu_m @ d):
        d = -d
    return d


def lda_cv_reference(vectors, masculine, feminine, folds=5, seed=0, ridge=1e-3):
    """Per-fold loop for stratified k-fold LDA accuracy: each fold refits the
    explicit-inverse LDA direction on the other folds' words and scores its
    held-out words one at a time against the midpoint of the training-class
    mean projections.  Folds come from one seeded permutation per class,
    masculine first, split as np.array_split does."""
    masc = [w for w in masculine if w in vectors]
    fem = [w for w in feminine if w in vectors]
    rng = np.random.default_rng(seed)
    masc_folds = np.array_split(rng.permutation(len(masc)), folds)
    fem_folds = np.array_split(rng.permutation(len(fem)), folds)
    correct = 0
    total = 0
    for k in range(folds):
        train_m = [masc[i] for j in range(folds) if j != k for i in masc_folds[j]]
        train_f = [fem[i] for j in range(folds) if j != k for i in fem_folds[j]]
        x_m = np.array([vectors[w] for w in train_m])
        x_f = np.array([vectors[w] for w in train_f])
        d = lda_direction_inverse(x_m, x_f, ridge)
        threshold = ((x_m @ d).mean() + (x_f @ d).mean()) / 2.0
        for i in masc_folds[k]:
            correct += int(float(vectors[masc[i]] @ d) <= threshold)
            total += 1
        for i in fem_folds[k]:
            correct += int(float(vectors[fem[i]] @ d) > threshold)
            total += 1
    return correct / total


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def _average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys):
    return pearson(_average_ranks(list(xs)), _average_ranks(list(ys)))


def spearman_pvalue(rho, n):
    """Two-sided p via the t approximation with n-2 degrees of freedom."""
    import scipy.stats
    if abs(rho) >= 1.0:
        return 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return 2.0 * scipy.stats.t.sf(abs(t), n - 2)


def procrustes_rotation(x_rows, y_rows):
    """scipy oracle: W minimizing sum ||W x - y||^2."""
    r, _ = scipy.linalg.orthogonal_procrustes(np.asarray(x_rows),
                                              np.asarray(y_rows))
    return r.T
