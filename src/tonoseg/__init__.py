"""Tone-sequence grammars and prosodic word boundary prediction.

Train variable-length-context probabilistic grammars over tone symbol
sequences arranged in a minimal turn > word hierarchy, score corpora by
entropy, and recover word boundaries in unsegmented tone streams by
exact Viterbi search.
"""

from .core import (
    FLAT,
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    HIERARCHY_PROMINENCE_TONES,
    AlphabetError,
    Corpus,
    DecodeError,
    EmptyTurnError,
    EmptyWordError,
    EncodingScheme,
    InvalidArgumentError,
    Marker,
    ProminentTone,
    ProsodicWord,
    Tone,
    TonosegError,
    Turn,
    UnknownSchemeError,
    UnknownToneError,
    decode_turn,
    encode_corpus,
    encode_turn,
    get_scheme,
    register_scheme,
)
from .grammar import (
    PatternGrammar,
    TrainConfig,
    marginal_entropy,
    model_entropy,
    normalized_entropy,
    train,
)
from .formats import (
    CorpusFormatError,
    CorruptModelError,
    NestingError,
    SchemeMismatchError,
    VersionError,
    load_model,
    parse_corpus,
    parse_segmentation,
    save_model,
    serialize_corpus,
    serialize_segmentation,
)
from .segment import (
    SegmentationResult,
    WordSpan,
    brute_force_segment,
    enumerate_candidates,
    segment_corpus,
    segment_turn,
)
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    baseline_segment,
    confusion,
    format_report_kv,
    format_report_table,
    metrics,
)
from .synth import (
    PlantedGrammar,
    SpecError,
    UnreachableContextError,
    planted_conditional,
    prefix_probability,
    sample_corpus,
)

__version__ = "0.1.0"
