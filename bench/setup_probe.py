"""Set-up time of a fresh interpreter: ``import trc`` + ``load_corpus()`` +
``standard_context()``, which every ``trc`` command pays before its work.

Usage: python3 setup_probe.py REPO_ROOT TRACE

Prints one JSON object: ``setup_s``, the calibration loop time around it
(see ``calibration``) and, with TRACE=1, the self times of the set-up layers
(run the interpreter with ``-X importtime`` to also get the import layers on
standard error).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> None:
    root, traced = Path(sys.argv[1]), sys.argv[2] == "1"
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibration
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    before = calibration.loop_s()
    start = time.perf_counter()
    import trc
    if tracer is not None:
        import trc.mutate  # an import statement, so -X importtime reports it
        tracer.install()
    trc.corpus.load_corpus()
    trc.corpus.standard_context()
    elapsed = time.perf_counter() - start
    loop = (before + calibration.loop_s()) / 2
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({"setup_s": elapsed, "loop_s": loop,
                      "self_s": dict(tracer.self_s) if tracer else {}}))


if __name__ == "__main__":
    main()
