"""Set-up probe, run in a fresh interpreter with `src` on PYTHONPATH:

    python3 perfbench/setup_probe.py <models dir>

Imports procmine's CLI, loads both models and warms the lexicon cache,
then prints the two phase times as one JSON line.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import procmine.cli  # noqa: E402,F401
from procmine import lingua  # noqa: E402
from procmine.actionable import ActionableModel  # noqa: E402
from procmine.classifier import ProcedureClassifierModel  # noqa: E402

imported = time.perf_counter()
models = Path(sys.argv[1])
ActionableModel.load(models / "actionable.json")
ProcedureClassifierModel.load(models / "procedure.json")
lingua.default_lexicon()
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "model_load_s": loaded - imported}))
