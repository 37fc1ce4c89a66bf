"""Shared test data: the six-transaction sample database and its seven
illustrative class rules (with their exact support/confidence values), and
``format_pretagged``, which writes a sentence as pre-tagged input."""
from finsent.arm import Transaction


def format_pretagged(sentence):
    """A PosSentence as the ``surface_TAG ...`` line ``ingest_pretagged`` reads."""
    return " ".join(f"{surface}_{tag}" for surface, tag in zip(sentence.surfaces, sentence.pos_tags))


def _t(items, label):
    return Transaction(frozenset(items), label)


SAMPLE_TRANSACTIONS = [
    _t({"LagInd::UP"}, "positive"),
    _t({"UP", "POS"}, "neutral"),
    _t({"LagInd::DOWN"}, "negative"),
    _t({"LagInd"}, "neutral"),
    _t({"LeadInd::UP"}, "positive"),
    _t({"LagInd", "POS", "NEG"}, "neutral"),
]

# (antecedent, consequent, support %, confidence %)
KNOWN_RULES = [
    (frozenset({"LagInd"}), "neutral", 33.33, 100.0),
    (frozenset({"POS"}), "neutral", 33.33, 100.0),
    (frozenset({"UP", "POS"}), "neutral", 16.67, 100.0),
    (frozenset({"LagInd::DOWN"}), "negative", 16.67, 100.0),
    (frozenset({"LagInd::UP"}), "positive", 16.67, 100.0),
    (frozenset({"LeadInd::UP"}), "positive", 16.67, 100.0),
    (frozenset({"UP"}), "neutral", 16.67, 100.0),
]

KNOWN_RULES_TEXT = (
    "LagInd -> neutral\t33.33\t100.0\n"
    "POS -> neutral\t33.33\t100.0\n"
    "POS,UP -> neutral\t16.67\t100.0\n"
    "LagInd::DOWN -> negative\t16.67\t100.0\n"
    "LagInd::UP -> positive\t16.67\t100.0\n"
    "LeadInd::UP -> positive\t16.67\t100.0\n"
    "UP -> neutral\t16.67\t100.0\n"
)
