"""Inputs, passes and output checks of the benchmark's three workloads.

Every workload is a closed loop with one client: each operation (one CLI
step or one public API call) starts when the previous one returns.  The
package is reached only through ``gendebias.cli.main`` and the names in
``gendebias.__all__``, looked up at call time so an installed tracer sees
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gendebias as gd
import gendebias.cli as gd_cli

# "full" keeps fastText's dimension and MUSE's dictionary shape (a 5k-pair
# seed dictionary, a disjoint 1.5k-query evaluation dictionary).  6.5k nouns
# is the smallest vocabulary that holds both, and the smallest keeps a run
# (three set-ups plus the timed passes) near 40 s, which the benchmark's
# run budget requires.  "tiny" is the package's default 500-word fixture,
# for the smoke test.
SIZES = {
    "full": {"dim": 300, "n_nouns": 6500, "n_inanimate": 650,
             "seed_pairs": 5000, "eval_pairs": 1500},
    "tiny": {"dim": 50, "n_nouns": 370, "n_inanimate": 60,
             "seed_pairs": 300, "eval_pairs": 150},
}

# Retrieval quality this commit reaches on the planted fixture, for every
# seed tried (0-29 at both sizes): a later change may not fall below it.
P_AT_1_FLOOR = 100.0
MRR_FLOOR = 1.0
SCORE_TOL = 1e-9
# .vec files keep 10 significant digits, so an audit of a written space
# matches the in-memory one to about 1e-9 relative
STAT_REL_TOL = 1e-6
MAX_RESIDUAL = 1e-9
MIN_AXIS_COS = 0.99

AUDIT_N_PERM = 100_000
PARTITION_N_PERM = 10_000
TOP_K = 10

INPUT_FILES = {"source": "source.vec", "english": "english.vec",
               "lexicon": "lexicon.json", "lexicon_en": "lexicon_en.json",
               "seed_dict": "seed_dict.tsv", "eval_dict": "eval_dict.tsv"}

# Per-step timings each workload reports, by the CLI step they time.
STEP_METRICS = {
    "mitigate_roundtrip": {"audit_s": "audit", "mitigate_s": "mitigate"},
    "translate_eval": {"eval_translation_s": "eval_translation",
                       "eval_translation_csls_s": "eval_translation_csls",
                       "eval_pairs_s": "eval_pairs"},
    "api_study": {},
}


# -- set-up ------------------------------------------------------------------


def uses_files(workload: str) -> bool:
    return workload != "api_study"


def make_fixture(workload: str, size: str, seed: int):
    """The planted fixture a workload runs on.  translate_eval needs a
    co-embedded pair; the others keep the source frame rotated so that
    Procrustes alignment has real work to do."""
    s = SIZES[size]
    return gd.planted_fixture(seed=seed, dim=s["dim"], n_nouns=s["n_nouns"],
                              n_inanimate=s["n_inanimate"],
                              rotate_source=workload != "translate_eval")


def split_dictionary(fixture, size: str, seed: int):
    """Seeded split of the fixture's dictionary entries into a seed
    dictionary and an evaluation dictionary with no source word in common."""
    entries = list(fixture.seed_dictionary.items())
    s = SIZES[size]
    if s["seed_pairs"] + s["eval_pairs"] > len(entries):
        raise ValueError(f"fixture has {len(entries)} dictionary entries, "
                         f"size {size!r} needs {s['seed_pairs'] + s['eval_pairs']}")
    order = np.random.default_rng(seed).permutation(len(entries))
    seed_entries = [entries[i] for i in order[:s["seed_pairs"]]]
    eval_entries = [entries[i] for i in
                    order[s["seed_pairs"]:s["seed_pairs"] + s["eval_pairs"]]]
    return seed_entries, eval_entries


def _dictionary_text(entries) -> str:
    return "".join(f"{src}\t{tgt}\n" for src, tgts in entries for tgt in tgts)


def write_inputs(fixture, size: str, seed: int, root: Path) -> dict[str, str]:
    """Write the fixture as the text files the CLI reads; returns the paths."""
    paths = {key: root / name for key, name in INPUT_FILES.items()}
    gd.save_text_embeddings(fixture.source, paths["source"])
    gd.save_text_embeddings(fixture.english, paths["english"])
    for key, lex in (("lexicon", fixture.lexicon),
                     ("lexicon_en", fixture.english_lexicon)):
        paths[key].write_text(json.dumps(gd.lexicon_to_json_dict(lex)),
                              encoding="utf-8")
    seed_entries, eval_entries = split_dictionary(fixture, size, seed)
    paths["seed_dict"].write_text(_dictionary_text(seed_entries), encoding="utf-8")
    paths["eval_dict"].write_text(_dictionary_text(eval_entries), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def sizes_record(fixture, size: str, inputs: dict[str, str] | None) -> dict:
    s = SIZES[size]
    record = {"size": size, "dim": fixture.source.dim,
              "vocab_source": len(fixture.source),
              "vocab_english": len(fixture.english),
              "seed_dict_pairs": s["seed_pairs"], "eval_dict_pairs": s["eval_pairs"]}
    if inputs is not None:
        for key in ("source", "english"):
            record[f"{key}_vec_bytes"] = Path(inputs[key]).stat().st_size
    return record


# -- operation records -------------------------------------------------------


@dataclass
class Op:
    """One operation of a pass.  ``result`` is held only until the pass is
    checked."""

    name: str
    seconds: float
    error: str | None = None
    result: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def flag(self, problem: str) -> None:
        self.problems.append(problem)


class Recorder:
    """Times operations; an exception (MemoryError included) fails the
    operation instead of the benchmark."""

    def __init__(self):
        self.ops: list[Op] = []

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # the operation failed; the loop goes on
            self.ops.append(Op(name, perf_counter() - start,
                               error=f"{type(e).__name__}: {e}"))
            return None
        self.ops.append(Op(name, perf_counter() - start, result=result))
        return result


# -- CLI workloads -----------------------------------------------------------


def cli_steps(workload: str, inputs: dict[str, str], out: Path, seed: int):
    """(step name, argv, result files relative to ``out``, the one the
    checks read first) for one pass."""
    src, en, lex = inputs["source"], inputs["english"], inputs["lexicon"]
    if workload == "mitigate_roundtrip":
        mitigated = out / "mitigated"
        return [
            ("audit", ["audit", "--embeddings", src, "--lexicon", lex,
                       "--seed", str(seed), "--out", str(out / "audit_pre.json")],
             ["audit_pre.json"]),
            ("mitigate", ["mitigate", "--method", "hybrid_ori", "--embeddings", src,
                          "--embeddings-en", en, "--lexicon", lex,
                          "--lexicon-en", inputs["lexicon_en"],
                          "--seed-dict", inputs["seed_dict"], "--seed", str(seed),
                          "--out", str(mitigated)],
             ["mitigated/outcome.json", "mitigated/directions.json",
              "mitigated/source.vec", "mitigated/english.vec"]),
            ("audit", ["audit", "--embeddings", str(mitigated / "source.vec"),
                       "--lexicon", lex, "--seed", str(seed),
                       "--out", str(out / "audit_post.json")],
             ["audit_post.json"]),
        ]
    if workload == "translate_eval":
        pair = ["--embeddings", src, "--embeddings-en", en]
        return [
            ("eval_translation", ["eval-translation", *pair,
                                  "--dict", inputs["eval_dict"],
                                  "--out", str(out / "translate.json")],
             ["translate.json", "translate.json.details.csv"]),
            ("eval_translation_csls", ["eval-translation", "--csls", *pair,
                                       "--dict", inputs["eval_dict"],
                                       "--out", str(out / "translate_csls.json")],
             ["translate_csls.json", "translate_csls.json.details.csv"]),
            ("eval_pairs", ["eval-pairs", *pair, "--lexicon", lex,
                            "--out", str(out / "pairs.json")],
             ["pairs.json"]),
        ]
    raise ValueError(f"{workload} is not a CLI workload")


def run_cli_pass(workload, inputs, out: Path, seed: int, rec: Recorder):
    out.mkdir(parents=True, exist_ok=True)
    steps = cli_steps(workload, inputs, out, seed)
    for name, argv, _ in steps:
        rec.call(name, lambda argv=argv: gd_cli.main(argv))
    return steps


def cli_reference(workload: str, inputs: dict[str, str], seed: int) -> dict | None:
    """Audit statistics that mitigate_roundtrip's two ``audit`` steps must
    report: the source as read, and the source after ``hybrid_ori``, both
    computed in memory through the public API from the same input files
    and with the CLI's defaults.

    The CLI steps are checked against these values, not against each other:
    on the full-size planted fixture hybrid_ori raises the statistic for
    about one seed in ten (4 of 41 tried), so "after below before" is not a
    property of this package's output.
    """
    if workload != "mitigate_roundtrip":
        return None
    source = gd.unit_normalize(gd.load_text_embeddings(inputs["source"]))
    english = gd.unit_normalize(gd.load_text_embeddings(inputs["english"]))
    lex, _ = gd.coverage_filter(gd.load_lexicon(inputs["lexicon"]), source)
    en_lex, _ = gd.coverage_filter(gd.load_lexicon(inputs["lexicon_en"]), english)
    outcome = gd.mitigate_hybrid(
        source, english, lex, "ori",
        gd.load_bilingual_dictionary(inputs["seed_dict"]),
        gd.EnglishDebiasConfig.from_lexicon(en_lex), seed=seed)
    query = gd.BiasQuery(x_words=[p.masculine for p in lex.occupation_pairs],
                         y_words=[p.feminine for p in lex.occupation_pairs],
                         attrs_a=lex.attributes_male, attrs_b=lex.attributes_female)
    return {"audit_pre.json": gd.mweat_aggregate(query, source),
            "audit_post.json": gd.mweat_aggregate(query, outcome.source_space)}


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _report(path: Path, key: str) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))[key]


def check_cli_pass(steps, ops: list[Op], out: Path, reference: list | None,
                   expected: dict | None) -> list:
    """Flag failed exits, broken properties and result files that differ
    from the first pass's; ``expected`` is ``cli_reference``'s result.
    Returns this pass's per-step file digests."""
    digests = []
    for i, ((name, _, files), op) in enumerate(zip(steps, ops)):
        if op.error is None and op.result != 0:
            op.flag(f"exit code {op.result}")
        step_digests = {}
        for rel in files:
            path = out / rel
            step_digests[rel] = file_digest(path) if path.is_file() else None
        digests.append(step_digests)
        if reference is not None and step_digests != reference[i]:
            changed = sorted(k for k in step_digests
                             if step_digests[k] != reference[i].get(k))
            op.flag(f"result files differ from the first pass: {changed}")
        if op.failed:
            continue
        try:
            _check_cli_step(name, out / files[0], op, expected)
        except (OSError, KeyError, ValueError) as e:
            op.flag(f"unreadable result: {type(e).__name__}: {e}")
    return digests


def _check_cli_step(name: str, result: Path, op: Op, expected: dict | None) -> None:
    if name == "audit":
        report = _report(result, "report")
        if not 0.0 < report["p_value"] <= 1.0:
            op.flag(f"audit p-value {report['p_value']} outside (0, 1]")
        want = expected[result.name]
        if not abs(report["statistic"] - want) <= STAT_REL_TOL * max(1.0, want):
            op.flag(f"audit statistic {report['statistic']} is not the "
                    f"in-memory {want}")
    elif name == "mitigate":
        outcome = _report(result, "outcome")
        if not outcome["max_residual"] <= MAX_RESIDUAL:
            op.flag(f"max_residual {outcome['max_residual']} > {MAX_RESIDUAL}")
    elif name == "eval_pairs":
        metrics = _report(result, "report")["metrics"]
        for key in ("f_mrr", "m_mrr"):
            if not metrics[key] >= MRR_FLOOR - SCORE_TOL:
                op.flag(f"{key} {metrics[key]} below {MRR_FLOOR}")
    else:
        metrics = _report(result, "report")["metrics"]
        if not metrics["p_at_1"] >= P_AT_1_FLOOR - SCORE_TOL:
            op.flag(f"P@1 {metrics['p_at_1']} below {P_AT_1_FLOOR}")


def _check_axis(op: Op, direction: np.ndarray, axis: np.ndarray) -> None:
    cos = abs(float(direction @ axis)) / float(np.linalg.norm(direction)
                                               * np.linalg.norm(axis))
    if not cos >= MIN_AXIS_COS:
        op.flag(f"|cos(d_g, planted grammatical axis)| = {cos:.4f} < {MIN_AXIS_COS}")


# -- in-memory API workload --------------------------------------------------


@dataclass
class ApiState:
    fixture: object
    seed: int
    seed_dict: object
    english_config: object
    occupation_query: object
    inanimate_query: object
    annotated: list
    aligned_grammatical_axis: np.ndarray


def api_state(size: str, seed: int) -> ApiState:
    fx = make_fixture("api_study", size, seed)
    lex = fx.lexicon
    seed_entries, _ = split_dictionary(fx, size, seed)
    seed_dict = gd.BilingualDictionary(
        (src, tgt) for src, tgts in seed_entries for tgt in tgts)
    masculine = set(lex.grammatical_masculine)
    annotated = [(w, group) for pair in lex.definitional_pairs
                 for w, group in zip(pair, ("definitional_masculine",
                                            "definitional_feminine"))]
    annotated += [(w, group) for p in lex.occupation_pairs
                  for w, group in ((p.masculine, "occupation_masculine"),
                                   (p.feminine, "occupation_feminine"))]
    annotated += [(w, "inanimate") for w in lex.inanimate_nouns]
    cfg = gd.EnglishDebiasConfig.from_lexicon(fx.english_lexicon)
    # the planted axis as seen in the frame the source gets aligned into
    debiased = gd.hard_debias_english(fx.english, cfg.definitional_pairs,
                                      cfg.equalize_pairs, cfg.gender_specific)
    rotation = gd.procrustes_matrix(fx.source, debiased, seed_dict)
    return ApiState(
        fixture=fx, seed=seed, seed_dict=seed_dict, english_config=cfg,
        aligned_grammatical_axis=rotation @ fx.source_grammatical_axis,
        occupation_query=gd.BiasQuery(
            x_words=[p.masculine for p in lex.occupation_pairs],
            y_words=[p.feminine for p in lex.occupation_pairs],
            attrs_a=lex.attributes_male, attrs_b=lex.attributes_female),
        inanimate_query=gd.BiasQuery(
            x_words=[w for w in lex.inanimate_nouns if w in masculine],
            y_words=[w for w in lex.inanimate_nouns if w not in masculine],
            attrs_a=lex.attributes_male, attrs_b=lex.attributes_female,
            paired=False),
        annotated=annotated)


def run_api_pass(st: ApiState, rec: Recorder) -> None:
    fx, lex, cfg = st.fixture, st.fixture.lexicon, st.english_config
    src, en = fx.source, fx.english
    dirs = rec.call("build_directions", gd.build_directions, src, lex, seed=st.seed)
    debiased = rec.call("hard_debias_english", gd.hard_debias_english, en,
                        cfg.definitional_pairs, cfg.equalize_pairs,
                        cfg.gender_specific)
    bi = rec.call("procrustes_align", gd.procrustes_align, src, debiased,
                  st.seed_dict)
    bi_dirs = rec.call("bilingual_directions", gd.bilingual_directions, bi, lex,
                       cfg.definitional_pairs, seed=st.seed)
    rec.call("audit_bias", gd.audit_bias, lex, src, n_perm=AUDIT_N_PERM,
             seed=st.seed)
    rec.call("permutation_test", gd.permutation_test, st.inanimate_query, src,
             n_perm=PARTITION_N_PERM, seed=st.seed, protocol="partition")
    src_scores, en_scores = {}, {}
    en_lex = fx.english_lexicon
    for p in lex.occupation_pairs:
        key = f"{p.masculine}/{p.feminine}"
        src_scores[key] = rec.call("mweat_pair", gd.mweat_pair, p.masculine,
                                   p.feminine, lex.attributes_male,
                                   lex.attributes_female, src)
        en_scores[key] = rec.call("weat_assoc", gd.weat_assoc, p.english,
                                  en_lex.attributes_male,
                                  en_lex.attributes_female, en)
    rec.call("bias_correlation", gd.bias_correlation, src_scores, en_scores)
    rec.call("mitigate_shift_ori", gd.mitigate_shift_ori, src, lex, dirs)
    rec.call("mitigate_shift_en", gd.mitigate_shift_en, bi, lex, bi_dirs)
    for p in lex.occupation_pairs:
        for word in p.words:
            rec.call("top_k", gd.top_k, src.vector(word), src, TOP_K,
                     exclude=(word,))
    rec.call("export_projections", gd.export_projections, src, st.annotated, dirs)


def check_api_pass(st: ApiState, ops: list[Op], reference: list | None) -> list:
    """Flag broken properties and results that differ from the first
    pass's; returns this pass's per-operation fingerprints."""
    prints = []
    pre = gd.mweat_aggregate(st.occupation_query, st.fixture.source)
    for i, op in enumerate(ops):
        prints.append(fingerprint(op.result) if op.error is None else None)
        if reference is not None and prints[-1] != reference[i]:
            op.flag("result differs from the first pass")
        if op.error is not None:
            continue
        check = _API_CHECKS.get(op.name)
        if check is not None:
            try:
                check(st, op, pre)
            except (ValueError, KeyError, TypeError, AttributeError) as e:
                op.flag(f"unexpected result: {type(e).__name__}: {e}")
    return prints


def _check_p(op, p):
    if not 0.0 < p <= 1.0:
        op.flag(f"p-value {p} outside (0, 1]")


def _check_shift(st, op, pre, falls):
    """Pairs symmetric about their anchors and inanimate nouns neutralized,
    as the shift methods promise.  ``falls``: the occupation aggregate must
    also fall.  It does for shift_ori on all 75 seeds tried; shift_en leaves
    it unchanged or raises it for about one seed in seventy-five (seed
    758651974: 3.4030661 -> 3.4030953), so it is not checked there."""
    outcome = op.result
    worst = max(outcome.residual.values())
    if not worst <= MAX_RESIDUAL:
        op.flag(f"max residual {worst} > {MAX_RESIDUAL}")
    space, d_s = outcome.source_space, outcome.directions.d_s
    lean = max(abs(float(space.vector(w) @ d_s))
               for w in st.fixture.lexicon.inanimate_nouns)
    if not lean <= MAX_RESIDUAL:
        op.flag(f"an inanimate noun keeps projection {lean} on d_s")
    if falls:
        post = gd.mweat_aggregate(st.occupation_query, space)
        if not post < pre:
            op.flag(f"post-mitigation statistic {post} not below {pre}")


def _check_top_k(st, op, pre):
    hits = op.result
    scores = [h.score for h in hits]
    if ([h.rank for h in hits] != list(range(1, TOP_K + 1))
            or any(a < b for a, b in zip(scores, scores[1:]))):
        op.flag("top_k did not return k neighbours in rank order")


def _check_rho(st, op, pre):
    rho, p = op.result
    if not (-1.0 <= rho <= 1.0 and math.isfinite(p)):
        op.flag(f"correlation ({rho}, {p}) out of range")


def _check_export(st, op, pre):
    rows, skipped = op.result
    if skipped or len(rows) != len(st.annotated):
        op.flag(f"exported {len(rows)} of {len(st.annotated)} rows")


_API_CHECKS = {
    "build_directions": lambda st, op, pre: _check_axis(
        op, op.result.d_g, st.fixture.source_grammatical_axis),
    "bilingual_directions": lambda st, op, pre: _check_axis(
        op, op.result.d_g, st.aligned_grammatical_axis),
    "audit_bias": lambda st, op, pre: _check_p(op, op.result.p_value),
    "permutation_test": lambda st, op, pre: _check_p(op, op.result),
    "bias_correlation": _check_rho,
    "mitigate_shift_ori": lambda st, op, pre: _check_shift(st, op, pre, True),
    "mitigate_shift_en": lambda st, op, pre: _check_shift(st, op, pre, False),
    "top_k": _check_top_k,
    "export_projections": _check_export,
}


def fingerprint(obj) -> str:
    """Digest of a result's values (spaces by words and matrix), so that
    repeated passes can be compared exactly."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, gd.EmbeddingSpace):
        _feed(h, obj.words)
        _feed(h, obj.matrix)
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
