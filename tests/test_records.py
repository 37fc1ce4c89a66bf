"""Each record keeps a frozen dataclass's contract without being one: both constructor forms,
value equality (and equal hashes where the fields hash), no assignment or deletion, and a
``repr`` naming every field; the slotted records keep their length and build each cache once."""
import pickle

import pytest

from finsent.arm import Rule, RuleBase, Transaction
from finsent.classify import Arrangement, ClassifierModel, ClassScore
from finsent.lexicon import LexCategory, Lexicon
from finsent.pos_text import PosSentence
from finsent.semtag import PairExtraction, SemTag, TaggedSentence


def _rule():
    return Rule(frozenset({"UP"}), "positive", 10.0, 80.0)


def _rule_base(rb):
    assert len(rb) == 1
    assert rb.index is rb.index and rb.index == {frozenset({"UP"}): (0,)}


def _sentence(sentence):
    assert len(sentence) == 2
    assert sentence.tokens is sentence.tokens and sentence.tokens == (("sales", "NNS"), ("rose", "VBD"))


def _model(model):
    other = model._replace(stages={})
    assert other.stages == {} and other.arrangement is model.arrangement and model.stages != {}
    assert model.rule_count() == 0


_RULE_REPR = "Rule(antecedent=frozenset({'UP'}), consequent='positive', support=10.0, confidence=80.0)"


@pytest.mark.parametrize("make, expected_repr, hashable, check", [
    (lambda: Transaction(frozenset({"UP"}), "positive"),
     "Transaction(items=frozenset({'UP'}), label='positive')", True, None),
    (_rule, _RULE_REPR, True, None),
    (lambda: RuleBase((_rule(),), 1.0), f"RuleBase(rules=({_RULE_REPR},), minsup=1.0, minconf=60.0)", True,
     _rule_base),
    (lambda: ClassScore({"positive": 80.0}, {"positive": 1}),
     "ClassScore(sums={'positive': 80.0}, counts={'positive': 1})", False, None),
    (lambda: ClassifierModel(Arrangement.MULTICLASS, {"multiclass": RuleBase(())}),
     "ClassifierModel(arrangement=<Arrangement.MULTICLASS: 'multiclass'>, "
     "stages={'multiclass': RuleBase(rules=(), minsup=0.5, minconf=60.0)}, "
     "match_policy=<MatchPolicy.EXACT: 'exact'>, scoring=<Scoring.AVERAGE: 'average'>)", False, _model),
    (lambda: TaggedSentence(frozenset({SemTag.UP})), "TaggedSentence(tags=frozenset({<SemTag.UP: 'UP'>}))", True,
     None),
    (lambda: PairExtraction((((("NP", 0, 1),), (("JJ", 1, 2),)),)),
     "PairExtraction(nodes=(((('NP', 0, 1),), (('JJ', 1, 2),)),))", True, None),
    (lambda: Lexicon({"sales": LexCategory.LAGIND}),
     "Lexicon(entries={'sales': <LexCategory.LAGIND: 'LagInd'>}, reversal_terms=frozenset())", False, None),
    (lambda: PosSentence(["sales", "rose"], ("NNS", "VBD")),
     "PosSentence(surfaces=('sales', 'rose'), pos_tags=('NNS', 'VBD'))", True, _sentence),
], ids=["Transaction", "Rule", "RuleBase", "ClassScore", "ClassifierModel", "TaggedSentence", "PairExtraction",
        "Lexicon", "PosSentence"])
def test_record_contract(make, expected_repr, hashable, check):
    record, twin = make(), make()
    assert record == twin and not record != twin and record is not twin
    values = {name: getattr(record, name) for name in record._fields}
    assert type(record)(*values.values()) == type(record)(**values) == pickle.loads(pickle.dumps(record)) == record
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in record._fields} == values
    assert repr(record) == expected_repr
    if check:
        check(record)
