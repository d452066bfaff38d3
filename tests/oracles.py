"""Deliberately naive reference implementations for cross-checking.

Everything here favors transparency over speed: double loops, full sorts,
explicit enumeration, dense eigensolvers.  Nothing imports the library's
own numerics, so agreement between the two is meaningful.  The exception is
planted_fixture_rowwise, the reference for the fixture's bytes, which keeps
the library's containers and normalization.
"""

import itertools
import math

import numpy as np
import scipy.linalg

from gendebias import synthetic
from gendebias.embeddings import EmbeddingSpace, unit_normalize
from gendebias.lexicon import BilingualDictionary, GenderLexicon


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


# The two null-sum references below are the library's earlier float paths,
# kept verbatim so the current ones can be checked against them bit for bit.

def pair_swap_sums_two_products(s_x, s_y, n_perm, seed, exhaustive_limit):
    """(sum_x, sum_y) under within-pair swaps, one product per side.  When
    2^n <= exhaustive_limit every pattern is enumerated, identity (code 0)
    first; otherwise n_perm patterns are drawn from default_rng(seed)."""
    n = len(s_x)
    if (1 << n) <= exhaustive_limit:
        codes = np.arange(1 << n, dtype=np.uint32)
        swaps = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    else:
        swaps = np.random.default_rng(seed).random((n_perm, n)) < 0.5
    return s_x.sum() + swaps @ (s_y - s_x), s_y.sum() + swaps @ (s_x - s_y)


def partition_sums_per_draw(s_all, size_x, n_perm, seed):
    """(sum_x, sum_y) of n_perm random equal-size repartitions of s_all,
    each sum taken by one draw's own 1-D slice."""
    rng = np.random.default_rng(seed)
    total = s_all.sum()
    sum_x, sum_y = [], []
    for _ in range(n_perm):
        pick = rng.permutation(s_all.shape[0])[:size_x]
        part = s_all[pick].sum()
        sum_x.append(float(part))
        sum_y.append(float(total - part))
    return np.array(sum_x), np.array(sum_y)


def permutation_two_products(s_x, s_y, n_perm, seed, protocol, exhaustive_limit,
                             tie_rel_tol):
    """(observed, p, permutation count) as the library counted them before:
    exhaustive pair swaps count the identity row and subtract it again."""
    observed = abs(abs(float(s_x.sum())) - abs(float(s_y.sum())))
    cutoff = observed - tie_rel_tol * (1.0 + observed)
    exhaustive = protocol == "pair_swap" and (1 << len(s_x)) <= exhaustive_limit
    if protocol == "pair_swap":
        sum_x, sum_y = pair_swap_sums_two_products(s_x, s_y, n_perm, seed,
                                                   exhaustive_limit)
    else:
        sum_x, sum_y = partition_sums_per_draw(np.concatenate([s_x, s_y]),
                                               len(s_x), n_perm, seed)
    null = np.abs(np.abs(sum_x) - np.abs(sum_y))
    exceed = int(np.sum(null >= cutoff)) - exhaustive
    n_used = (1 << len(s_x)) - 1 if exhaustive else n_perm
    return observed, float((exceed + 1) / (n_used + 1)), n_used


def top_k_sorted(vectors, query, k, exclude=()):
    """Full sort by (-cosine, word); returns the first k (word, score)."""
    rows = []
    for w, v in vectors.items():
        if w in exclude:
            continue
        rows.append((w, cosine(v, query)))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return rows[:k]


def _rank_of(scores, gold_idx, candidate_mask, lex_rank):
    """1-based rank of the gold among masked candidates: strictly better
    scores first, equal scores broken by ascending lexicographic order.
    Row-wise for 2-D ``scores`` and ``candidate_mask`` with one gold index
    per row.  The whole-block reference that evaluation._ranks reproduces
    tile by tile."""
    gold_idx = np.asarray(gold_idx)
    gold_score = np.take_along_axis(scores, gold_idx[..., None], axis=-1)
    gold_lex = lex_rank[gold_idx][..., None]
    ahead = (scores > gold_score) | ((scores == gold_score) & (lex_rank < gold_lex))
    return 1 + np.count_nonzero(candidate_mask & ahead, axis=-1)


def analogy_rank(scored_candidates, gold):
    """1-based rank of gold in a {word: score} map after a full
    (-score, word) sort."""
    order = sorted(scored_candidates, key=lambda w: (-scored_candidates[w], w))
    return order.index(gold) + 1


def _dot(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def neutralize(vector, direction):
    """Remove the direction component and renormalize, one float at a time."""
    proj = _dot(vector, direction)
    residual = [float(x) - proj * float(d) for x, d in zip(vector, direction)]
    norm = math.sqrt(sum(x * x for x in residual))
    return [x / norm for x in residual]


def shift_pair(vec_m, vec_f, direction, anchor=0.0):
    """Move both vectors along the direction by the same amount so their
    projections sum to 2 * anchor."""
    delta = (_dot(vec_m, direction) + _dot(vec_f, direction) - 2.0 * anchor) / 2.0
    return ([float(x) - delta * float(d) for x, d in zip(vec_m, direction)],
            [float(x) - delta * float(d) for x, d in zip(vec_f, direction)])


def shift_then_neutralize(vectors, pairs, anchors, inanimate, direction):
    """Sequential reference for the shift step: shift each listed pair in
    turn about anchors[pair], neutralize each listed inanimate noun that is
    not a pair form, then measure each pair's residual on the result.

    Returns (new {word: vector}, {pair: residual}, distinct words changed)."""
    out = {w: [float(x) for x in v] for w, v in vectors.items()}
    forms = set()
    for m, f in pairs:
        out[m], out[f] = shift_pair(out[m], out[f], direction, anchors[(m, f)])
        forms.update((m, f))
    nouns = set()
    for w in inanimate:
        if w not in forms:
            out[w] = neutralize(out[w], direction)
            nouns.add(w)
    residual = {(m, f): abs(_dot(out[m], direction) + _dot(out[f], direction)
                            - 2.0 * anchors[(m, f)]) for m, f in pairs}
    return out, residual, len(forms) + len(nouns)


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


def lda_direction_direct(x_masc, x_fem, ridge):
    """The ridge-LDA direction in the library's arithmetic, written out as
    one fit: both classes' rows centred, the pooled covariance, a solve
    with eps = ridge * trace / dim, normalization and orientation.  It
    pins the library's bits, where lda_direction_inverse checks its
    algebra."""
    mu_m = x_masc.mean(axis=0)
    mu_f = x_fem.mean(axis=0)
    cm = x_masc - mu_m
    cf = x_fem - mu_f
    pooled = (cm.T @ cm + cf.T @ cf) / (len(x_masc) + len(x_fem) - 2)
    dim = pooled.shape[0]
    eps = ridge * float(np.trace(pooled)) / dim
    d = np.linalg.solve(pooled + eps * np.eye(dim), mu_f - mu_m)
    d = d / np.linalg.norm(d)
    if float(x_fem.mean(axis=0) @ d) < float(x_masc.mean(axis=0) @ d):
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


def planted_fixture_rowwise(seed=0, dim=synthetic.DEFAULT_DIM, n_definitional=20,
                            n_occupations=30, n_attributes=8, n_adjectives=7,
                            n_nouns=370, n_inanimate=60,
                            grammatical_offset=synthetic.DEFAULT_GRAMMATICAL_OFFSET,
                            occupation_offsets=synthetic.DEFAULT_OCCUPATION_OFFSETS,
                            definitional_offset=0.3, attribute_offset=0.3,
                            noise=synthetic.DEFAULT_NOISE, base_scale=0.8,
                            english_occupation_lean=0.05, rotate_source=True):
    """gendebias.planted_fixture built row by row: each word's row made and
    noised on its own, then stacked, rotated and normalized.  Its draws and
    operations, in their order, define the fixture's bytes, which the
    library's build must match for the same arguments."""
    if dim < 4:
        raise ValueError("dim must be at least 4")
    if n_nouns % 2 != 0:
        raise ValueError("n_nouns must be even")
    if n_inanimate > n_nouns:
        raise ValueError("n_inanimate cannot exceed n_nouns")
    rng = np.random.default_rng(seed)
    g_axis = np.zeros(dim)
    g_axis[0] = 1.0
    s_axis = np.zeros(dim)
    s_axis[1] = 1.0

    def base() -> np.ndarray:
        v = np.zeros(dim)
        v[2:] = rng.standard_normal(dim - 2)
        return base_scale * v / np.linalg.norm(v[2:])

    src_words: list[str] = []
    src_rows: list[np.ndarray] = []
    en_words: list[str] = []
    en_rows: list[np.ndarray] = []
    dict_pairs: list[tuple[str, str]] = []

    def put_source(word: str, vec: np.ndarray) -> None:
        src_words.append(word)
        src_rows.append(vec + noise * rng.standard_normal(dim))

    def put_english(word: str, vec: np.ndarray) -> None:
        en_words.append(word)
        en_rows.append(vec + noise * rng.standard_normal(dim))

    g = grammatical_offset
    occ_m_offset, occ_f_offset = occupation_offsets

    definitional_pairs = []
    for i in range(n_definitional):
        u = base()
        amp = definitional_offset + 0.08 * rng.standard_normal()
        m, f = f"def_m{i:03d}", f"def_f{i:03d}"
        put_source(m, u - g * g_axis - amp * s_axis)
        put_source(f, u + g * g_axis + amp * s_axis)
        em, ef = f"en_def_m{i:03d}", f"en_def_f{i:03d}"
        en_amp = definitional_offset + 0.08 * rng.standard_normal()
        put_english(em, u - en_amp * s_axis)
        put_english(ef, u + en_amp * s_axis)
        dict_pairs += [(m, em), (f, ef)]
        definitional_pairs.append((m, f))

    occupation_pairs = []
    for i in range(n_occupations):
        u = base()
        m, f = f"occ_m{i:03d}", f"occ_f{i:03d}"
        put_source(m, u - g * g_axis + occ_m_offset * s_axis)
        put_source(f, u + g * g_axis + occ_f_offset * s_axis)
        e = f"en_occ{i:03d}"
        put_english(e, u + english_occupation_lean * rng.standard_normal() * s_axis)
        dict_pairs += [(m, e), (f, e)]
        occupation_pairs.append((m, f, e))

    attributes_male, attributes_female = [], []
    for i in range(n_attributes):
        m, f = f"attr_m{i:03d}", f"attr_f{i:03d}"
        um, uf = base(), base()
        put_source(m, um - g * g_axis - attribute_offset * s_axis)
        put_source(f, uf + g * g_axis + attribute_offset * s_axis)
        em, ef = f"en_attr_m{i:03d}", f"en_attr_f{i:03d}"
        put_english(em, um - attribute_offset * s_axis)
        put_english(ef, uf + attribute_offset * s_axis)
        dict_pairs += [(m, em), (f, ef)]
        attributes_male.append(m)
        attributes_female.append(f)

    adjective_pairs = []
    for i in range(n_adjectives):
        u = base()
        m, f = f"adj_m{i:03d}", f"adj_f{i:03d}"
        put_source(m, u - g * g_axis)
        put_source(f, u + g * g_axis)
        e = f"en_adj{i:03d}"
        put_english(e, u)
        dict_pairs += [(m, e), (f, e)]
        adjective_pairs.append((e, m, f))

    nouns_m, nouns_f, inanimate = [], [], []
    for i in range(n_nouns // 2):
        for cls in ("m", "f"):
            u = base()
            w = f"noun_{cls}{i:03d}"
            sign = -1.0 if cls == "m" else 1.0
            lean = 0.1 * rng.uniform(-1.0, 1.0)
            put_source(w, u + sign * g * g_axis + lean * s_axis)
            e = f"en_noun_{cls}{i:03d}"
            put_english(e, u)
            dict_pairs.append((w, e))
            (nouns_m if cls == "m" else nouns_f).append(w)
            if len(inanimate) < n_inanimate:
                inanimate.append(w)

    src_matrix = np.vstack(src_rows)
    if rotate_source:
        rotation = synthetic.random_orthogonal(dim, rng)
        src_matrix = src_matrix @ rotation.T
    else:
        rotation = np.eye(dim)

    source = unit_normalize(EmbeddingSpace(src_words, src_matrix,
                                           language_tag="src"))
    english = unit_normalize(EmbeddingSpace(en_words, np.vstack(en_rows),
                                            language_tag="en"))
    lexicon = GenderLexicon(
        definitional_pairs=definitional_pairs,
        grammatical_masculine=nouns_m,
        grammatical_feminine=nouns_f,
        occupation_pairs=occupation_pairs,
        inanimate_nouns=inanimate,
        attributes_male=attributes_male,
        attributes_female=attributes_female,
        adjective_pairs=adjective_pairs,
    )
    english_lexicon = GenderLexicon(
        definitional_pairs=[(f"en_def_m{i:03d}", f"en_def_f{i:03d}")
                            for i in range(n_definitional)],
        attributes_male=[f"en_attr_m{i:03d}" for i in range(n_attributes)],
        attributes_female=[f"en_attr_f{i:03d}" for i in range(n_attributes)],
    )
    return synthetic.PlantedFixture(
        source=source, english=english, lexicon=lexicon,
        english_lexicon=english_lexicon,
        seed_dictionary=BilingualDictionary(dict_pairs),
        rotation=rotation, grammatical_axis=g_axis, semantic_axis=s_axis)
