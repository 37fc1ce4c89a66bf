"""finsent: financial sentence polarity from performance-indicator tags.

Pipeline: a domain lexicon and a chunk grammar over POS tags turn each
sentence into a small set of semantic tags; class association rules are mined
from tagged training sentences; an ordered rule base predicts polarity
(positive / neutral / negative), optionally arranged as a two-stage
hierarchical classifier.  An evaluation harness runs stratified k-fold
cross-validation and reports per-class precision/recall/F/accuracy.
"""

from .lexicon import (
    LexCategory,
    Lexicon,
    LexiconError,
    load_default_lexicon,
    load_lexicon,
)
from .pos_text import (
    PosSentence,
    PosTextError,
    PosToken,
    ingest_pretagged,
    pos_tags,
    tag_raw,
    tokenize,
)
from .chunker import (
    Chunk,
    GrammarError,
    bundled_grammar,
    chunk,
    chunk_spans,
    compile_grammar,
    to_bracket,
)
from .semtag import (
    Mode,
    SemTag,
    TaggedSentence,
    extract_pairs,
    filter_mode,
    flip_direction,
    tag_sentence,
)
from .arm import (
    MiningError,
    Rule,
    RuleBase,
    RuleBaseFormatError,
    Transaction,
    generate_rules,
    mine_frequent,
    mine_rules,
    parse_rulebase,
    serialize_rulebase,
)
from .classify import (
    Arrangement,
    ClassifierModel,
    MatchPolicy,
    Scoring,
    load_model,
    predict,
    predict_flat,
    save_model,
    train,
)
from .evaluate import (
    Corpus,
    CorpusError,
    EvalReport,
    FoldError,
    FoldPlan,
    PipelineConfig,
    cross_validate,
    load_phrasebank,
    make_folds,
    sweep_confidence,
    tag_text,
    train_model,
)

__version__ = "0.1.0"
