"""A cold ``wasserline`` CLI run that times its own import and ``main``.

    python3 perfbench/cli_probe.py TIMINGS.json dist a.json b.json --p 2

Behaves like ``python -m wasserline.cli dist a.json b.json --p 2`` (same
stdout, same exit code) and writes {"import_s", "main_s"} to TIMINGS.json.
"""

import json
import sys
import time

start = time.perf_counter()
import wasserline.cli as cli  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()
code = cli.main(sys.argv[2:])
done = time.perf_counter()
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"import_s": imported - start, "main_s": done - imported}, fh)
sys.exit(code)
