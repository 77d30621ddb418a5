"""Set-up probe: what every CLI invocation pays before its command runs.

Imports ``dirachydro.cli`` and validates one config against the bundled
schema (``validate_config`` loads the schema itself), then prints the two
durations as JSON. The benchmark times this whole process from outside.

    python bench/probe.py CONFIG.json
"""

import json
import sys
import time

t0 = time.perf_counter()
from dirachydro import cli  # noqa: E402

t1 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    config = json.load(fh)
problems = cli.validate_config(config)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "validate_s": t2 - t1, "problems": problems}))
sys.exit(1 if problems else 0)
