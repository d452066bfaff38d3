"""Layer tracing for the benchmark, done from outside the package.

The tracer wraps only public names: the functions in ``gendebias.__all__``
plus ``gendebias.cli.main``.  Every ``gendebias.*`` module that bound one of
them gets the wrapper, so the calls the CLI and the library make to each
other nest as child spans.  Private helpers are never wrapped; their time is
self time of the public function that called them.

A span is (id, name, parent id, run id, start, end).  Spans and counts stay
in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

MB = float(1 << 20)

# Public function -> the per-layer time metric its self time (span minus
# child spans) is charged to.  None charges it to the caller's metric: these
# are per-row or per-vector primitives whose cost belongs to the loop that
# calls them, so vectorising that loop moves the caller's metric.  A name
# listed here that the package no longer exports stops the benchmark.
BUCKETS = {
    "main": "cli.overhead_s",
    "load_text_embeddings": "embeddings.load_s",
    "save_text_embeddings": "embeddings.save_s",
    "unit_normalize": "embeddings.normalize_s",
    "top_k": "embeddings.top_k_s",
    "cosine": None,
    "load_lexicon": "lexicon.load_s",
    "load_bilingual_dictionary": "lexicon.load_s",
    "load_similarity_dataset": "lexicon.load_s",
    "lexicon_to_json_dict": "lexicon.load_s",
    "identity_dictionary": "lexicon.load_s",
    "build_analogy_queries": "lexicon.load_s",
    "coverage_filter": "lexicon.coverage_s",
    "semantic_direction": "directions.semantic_s",
    "build_directions": "directions.semantic_s",
    "bilingual_directions": "directions.semantic_s",
    "orthogonalize": "directions.semantic_s",
    "project": None,
    "grammatical_direction": "directions.grammatical_s",
    "lda_cross_validation": "directions.lda_cv_s",
    "audit_bias": "metrics.audit_s",
    "permutation_test": "metrics.permutation_test_s",
    "association_scores": "metrics.weat_s",
    "weat_assoc": "metrics.weat_s",
    "weat_statistic": "metrics.weat_s",
    "mweat_inanimate": "metrics.weat_s",
    "mweat_pair": "metrics.weat_s",
    "mweat_aggregate": "metrics.weat_s",
    "bias_correlation": "metrics.weat_s",
    "hard_debias_english": "mitigation.hard_debias_s",
    "neutralize": None,
    "shift_pair": None,
    "procrustes_matrix": "mitigation.procrustes_s",
    "procrustes_align": "mitigation.procrustes_s",
    "mitigate_shift_ori": "mitigation.shift_s",
    "mitigate_shift_en": "mitigation.shift_s",
    "mitigate_de_align": "mitigation.shift_s",
    "mitigate_hybrid": "mitigation.shift_s",
    "renormalize_outcome": "mitigation.shift_s",
    "word_translation_eval": "evaluation.translate_s",
    "pair_translation_eval": "evaluation.pairs_s",
    "word_similarity_eval": None,
    "export_projections": "evaluation.export_s",
    "write_projections_csv": "evaluation.export_s",
    "write_translation_csv": "evaluation.export_s",
    "planted_fixture": "synthetic.fixture_s",
    "random_space": "synthetic.fixture_s",
}

# Spans below a span charged to one of these metrics are charged to it too:
# LDA cross-validation fits one grammatical direction per fold.
INCLUSIVE = {"directions.lda_cv_s"}

# Per-layer metrics the tracer derives, with units.
LAYER_METRICS = (
    ("cli.overhead_s", "s"), ("cli.digest_mb", "MB"),
    ("embeddings.load_s", "s"), ("embeddings.load_mb", "MB"),
    ("embeddings.load_rows", "count"), ("embeddings.save_s", "s"),
    ("embeddings.save_mb", "MB"), ("embeddings.normalize_s", "s"),
    ("embeddings.top_k_s", "s"), ("embeddings.top_k_queries", "count"),
    ("lexicon.load_s", "s"), ("lexicon.coverage_s", "s"),
    ("lexicon.dict_pairs", "count"), ("lexicon.dropped", "count"),
    ("directions.semantic_s", "s"), ("directions.grammatical_s", "s"),
    ("directions.lda_cv_s", "s"), ("directions.lda_rows", "count"),
    ("metrics.audit_s", "s"), ("metrics.permutations", "count"),
    ("metrics.permutation_test_s", "s"), ("metrics.weat_s", "s"),
    ("metrics.weat_calls", "count"),
    ("mitigation.hard_debias_s", "s"), ("mitigation.hard_debias_rows", "count"),
    ("mitigation.procrustes_s", "s"), ("mitigation.seed_pairs_covered", "count"),
    ("mitigation.seed_coverage", "ratio"), ("mitigation.shift_s", "s"),
    ("mitigation.words_touched", "count"),
    ("evaluation.translate_s", "s"), ("evaluation.translate_csls_s", "s"),
    ("evaluation.translate_queries", "count"),
    ("evaluation.translate_coverage", "ratio"), ("evaluation.score_mb", "MB"),
    ("evaluation.csls_gflop", "GFLOP"), ("evaluation.pairs_s", "s"),
    ("evaluation.pair_queries", "count"), ("evaluation.pair_skipped", "count"),
    ("evaluation.export_s", "s"),
    ("synthetic.fixture_s", "s"),
)

# CLI flags whose files the CLI hashes into every result's config block.
_DIGESTED_FLAGS = ("--embeddings", "--embeddings-en", "--lexicon",
                   "--lexicon-en", "--dict", "--seed-dict", "--dataset")


def _file_mb(path) -> float:
    return os.path.getsize(path) / MB


def _digest_mb(a, r):
    argv = list(a["argv"] or ())
    total = 0.0
    for flag, value in zip(argv, argv[1:]):
        if flag in _DIGESTED_FLAGS:
            total += _file_mb(value)
    return {"cli.digest_mb": total}


def _covered(words, space) -> int:
    return sum(1 for w in words if w in space)


def _permutations_used(a, r):
    import gendebias.metrics as gm
    query, protocol = a["query"], a["protocol"]
    if protocol is None:
        protocol = "pair_swap" if query.paired else "partition"
    if protocol == "pair_swap" and (1 << query.n_pairs) <= gm.EXHAUSTIVE_LIMIT:
        return {"metrics.permutations": (1 << query.n_pairs) - 1}
    return {"metrics.permutations": a["n_perm"]}


def _seed_pairs(a, r):
    source, target = a["source"], a["target"]
    pairs = list(a["seed_dict"].pairs())
    covered = sum(1 for s, t in pairs if s in source and t in target)
    return {"mitigation.seed_pairs_covered": covered,
            "mitigation.seed_pairs_listed": len(pairs)}


def _translation(a, r):
    bi = a["bi"]
    queries = r.metrics["n_queries"]
    out = {"evaluation.translate_queries": queries,
           "evaluation.translate_listed": len(a["dictionary"]),
           "evaluation.score_mb": ("max", queries * len(bi.target) * 8 / MB)}
    if a["csls"]:
        flop = 2.0 * bi.dim * len(bi.target) * (queries + len(bi.source))
        out["evaluation.csls_gflop"] = flop / 1e9
    return out


def _words_touched(a, r):
    return {"mitigation.words_touched": r.words_touched}


# Counts recorded at the same boundaries as the spans: public function ->
# f(bound arguments, result) -> {counter: increment, or ("max", value)}.
HOOKS = {
    "main": _digest_mb,
    "load_text_embeddings": lambda a, r: {
        "embeddings.load_rows": len(r), "embeddings.load_mb": _file_mb(a["path"])},
    "save_text_embeddings": lambda a, r: {
        "embeddings.save_mb": _file_mb(a["path"])},
    "top_k": lambda a, r: {"embeddings.top_k_queries": 1},
    "load_bilingual_dictionary": lambda a, r: {"lexicon.dict_pairs": r.n_pairs},
    "coverage_filter": lambda a, r: {"lexicon.dropped": r[1].total_dropped},
    "grammatical_direction": lambda a, r: {
        "directions.lda_rows": (_covered(a["masculine"], a["space"])
                                + _covered(a["feminine"], a["space"]))},
    "audit_bias": lambda a, r: {"metrics.permutations": r.n_permutations},
    "permutation_test": _permutations_used,
    "association_scores": lambda a, r: {"metrics.weat_calls": 1},
    "hard_debias_english": lambda a, r: {
        "mitigation.hard_debias_rows": len(a["space"])},
    "procrustes_matrix": _seed_pairs,
    "mitigate_shift_ori": _words_touched,
    "mitigate_shift_en": _words_touched,
    "mitigate_hybrid": _words_touched,
    "word_translation_eval": _translation,
    "pair_translation_eval": lambda a, r: {
        "evaluation.pair_queries": r.metrics["n_queries"],
        "evaluation.pair_skipped": len(a["queries"]) - r.metrics["n_queries"]},
}


class Tracer:
    """Records spans and counts while installed and active.

    ``run_id`` labels what follows (a set-up repetition or a pass);
    ``active`` is cleared while the benchmark checks outputs so its own
    calls into the package leave no spans.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict] = defaultdict(dict)
        self.run_id = ""
        self.active = False
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import gendebias
        import gendebias.cli
        public = {name: getattr(gendebias, name) for name in gendebias.__all__}
        public = {n: f for n, f in public.items() if inspect.isfunction(f)}
        public["main"] = gendebias.cli.main
        missing = sorted(set(BUCKETS) - set(public))
        if missing:
            raise RuntimeError("public functions the benchmark traces are gone "
                               f"from gendebias: {', '.join(missing)}")
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in public.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "gendebias" and not modname.startswith("gendebias."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        split_csls = name == "word_translation_eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            span_name = name
            if split_csls and bound.arguments["csls"]:
                span_name = "word_translation_eval[csls]"
            parent = self._stack[-1] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, span_name, parent, self.run_id,
                                   start, end))
            if hook is not None:
                self._count(hook(bound.arguments, result))
            return result

        return traced

    def _count(self, increments: dict) -> None:
        counts = self.counts[self.run_id]
        for key, value in increments.items():
            if isinstance(value, tuple):
                counts[key] = max(counts.get(key, 0.0), value[1])
            else:
                counts[key] = counts.get(key, 0) + value

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, run_id: str) -> dict[str, float]:
        """Every LAYER_METRICS value for one run id (0 where a layer did no
        work in that run)."""
        spans = [s for s in self.spans if s[3] == run_id]
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] += s[5] - s[4]
        bucket_of: dict[int, str | None] = {}

        def bucket(span) -> str | None:
            if span[0] in bucket_of:
                return bucket_of[span[0]]
            parent = by_id.get(span[2])
            if parent is not None and bucket(parent) in INCLUSIVE:
                found = bucket(parent)
            elif span[1] == "word_translation_eval[csls]":
                found = "evaluation.translate_csls_s"
            else:
                found = BUCKETS.get(span[1])
                if found is None and parent is not None:
                    found = bucket(parent)
            bucket_of[span[0]] = found
            return found

        out = {name: 0.0 for name, _ in LAYER_METRICS}
        for s in spans:
            b = bucket(s)
            if b is not None:
                out[b] += (s[5] - s[4]) - child_time[s[0]]
        counts = self.counts.get(run_id, {})
        for key, value in counts.items():
            if key in out:
                out[key] = float(value)
        listed = counts.get("mitigation.seed_pairs_listed", 0)
        out["mitigation.seed_coverage"] = (
            counts.get("mitigation.seed_pairs_covered", 0) / listed if listed else 0.0)
        listed = counts.get("evaluation.translate_listed", 0)
        out["evaluation.translate_coverage"] = (
            counts.get("evaluation.translate_queries", 0) / listed if listed else 0.0)
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "parent": s[2], "run": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans]


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over runs (all runs carry the same keys)."""
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
