"""Gender bias auditing and mitigation for word embeddings of grammatically
gendered languages.

The toolkit separates a semantic gender direction (from definitional pairs)
from a grammatical one (from noun classes), measures occupational bias with
association scores built for gendered form pairs, tests significance by
permutation, mitigates via anchor shifting / English hard-debiasing /
orthogonal re-alignment, and evaluates embedding quality before and after.
"""

from .embeddings import (BilingualSpace, EmbeddingSpace, cosine,
                         load_text_embeddings, save_text_embeddings,
                         unit_normalize)
from .lexicon import (AnalogyQuery, BilingualDictionary, CoverageReport,
                      GenderLexicon, LexiconError, OccupationPair,
                      build_analogy_queries, coverage_filter,
                      identity_dictionary, lexicon_to_json_dict,
                      load_bilingual_dictionary, load_lexicon,
                      load_similarity_dataset)
from .directions import (GenderDirections, bilingual_directions,
                         build_directions, grammatical_direction,
                         lda_cross_validation, orthogonalize, project,
                         semantic_direction)
from .metrics import (BiasQuery, BiasReport, PairScore, WordScore, audit_bias,
                      association_scores, bias_correlation, mweat_aggregate,
                      mweat_inanimate, mweat_pair, permutation_test,
                      weat_assoc, weat_statistic)
from .mitigation import (EnglishDebiasConfig, MitigationOutcome, METHODS,
                         hard_debias_english, mitigate_de_align,
                         mitigate_hybrid, mitigate_shift_en,
                         mitigate_shift_ori, neutralize, procrustes_align,
                         procrustes_matrix, renormalize_outcome, shift_pair)
from .evaluation import (EvalReport, Neighbor, TranslationDetail,
                         export_projections, pair_translation_eval, top_k,
                         word_similarity_eval, word_translation_eval,
                         write_projections_csv, write_translation_csv)
from .synthetic import PlantedFixture, planted_fixture, random_space

__version__ = "0.1.0"

__all__ = [
    "AnalogyQuery", "BiasQuery", "BiasReport", "BilingualDictionary",
    "BilingualSpace", "CoverageReport", "EmbeddingSpace",
    "EnglishDebiasConfig", "EvalReport", "GenderDirections", "GenderLexicon",
    "LexiconError", "METHODS", "MitigationOutcome", "Neighbor",
    "OccupationPair", "PairScore", "PlantedFixture", "TranslationDetail",
    "WordScore", "association_scores", "audit_bias", "bias_correlation",
    "bilingual_directions", "build_analogy_queries", "build_directions",
    "cosine", "coverage_filter", "export_projections",
    "grammatical_direction", "hard_debias_english", "identity_dictionary",
    "lda_cross_validation", "lexicon_to_json_dict", "load_bilingual_dictionary",
    "load_lexicon", "load_similarity_dataset", "load_text_embeddings",
    "mitigate_de_align", "mitigate_hybrid", "mitigate_shift_en",
    "mitigate_shift_ori", "mweat_aggregate", "mweat_inanimate", "mweat_pair",
    "neutralize", "orthogonalize", "pair_translation_eval", "permutation_test",
    "planted_fixture", "procrustes_align", "procrustes_matrix", "project",
    "random_space", "renormalize_outcome", "save_text_embeddings",
    "semantic_direction", "shift_pair", "top_k", "unit_normalize",
    "weat_assoc", "weat_statistic", "word_similarity_eval",
    "word_translation_eval", "write_projections_csv", "write_translation_csv",
    "__version__",
]
