"""finsent: financial sentence polarity from performance-indicator tags.

Pipeline: a domain lexicon and a chunk grammar over POS tags turn each
sentence into a small set of semantic tags; class association rules are mined
from tagged training sentences; an ordered rule base predicts polarity
(positive / neutral / negative), optionally arranged as a two-stage
hierarchical classifier.  An evaluation harness runs stratified k-fold
cross-validation and reports per-class precision/recall/F/accuracy.

``finsent.<name>`` is the submodule ``name`` if there is one, or else the name in the
``__all__`` of ``_MODULES``, imported in pipeline order only until one has it
(``from finsent import tag_text``).  So importing a submodule loads only what it imports.
"""
import importlib.util

__version__ = "0.1.0"

_MODULES = ("lexicon", "pos_text", "chunker", "semtag", "arm", "classify", "evaluate")


def __getattr__(name):
    # a submodule comes first: ``from . import`` asks for one, maybe mid-import
    if name.isidentifier() and not name.startswith("_"):
        if importlib.util.find_spec(f"{__name__}.{name}"):
            return importlib.import_module(f"{__name__}.{name}")
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
