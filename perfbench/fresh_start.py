"""One fresh start for the set-up metric.

    PYTHONPATH=src python3 perfbench/fresh_start.py

Times ``unmarshal_probe``, imports ``monomap.cli`` and times the probe
again.  Prints, as JSON, the CPU seconds from interpreter start until the
import is done (the first probe taken out) and the two probe times.
"""

import time

from probe import unmarshal_probe

before = unmarshal_probe()
import monomap.cli  # noqa: E402,F401

setup = time.process_time() - before
after = unmarshal_probe()

import json  # noqa: E402

print(json.dumps({"setup_s": setup, "probe_s": [before, after]}))
