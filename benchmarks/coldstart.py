"""One cold set-up, as a CLI call pays it: import, lexicon, grammars, model.

Run by ``run.py`` in a fresh interpreter: ``python3 coldstart.py SRC MODEL_DIR``.
Prints the seconds from the first statement to ready.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from finsent.chunker import bundled_grammar  # noqa: E402
from finsent.classify import load_model  # noqa: E402
from finsent.lexicon import load_default_lexicon  # noqa: E402

load_default_lexicon()
bundled_grammar("indicator_direction")
bundled_grammar("numeric_direction")
load_model(sys.argv[2])
print(repr(time.perf_counter() - START))
