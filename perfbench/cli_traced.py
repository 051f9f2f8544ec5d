"""Run procmine's CLI with the benchmark tracer installed:

    python3 perfbench/cli_traced.py <spans.json> extract ...

`procmine.cli.main` is the entry point `python -m procmine.cli` uses. When
it returns, the spans and the relatedness mention-pair count of every
document are written to <spans.json>, and the CLI's exit code is returned.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, mention_pairs  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    runs = []
    with tracer.installed():
        from procmine import cli, pipeline
        traced_run_document = pipeline.run_document

        def keep_run(*args, **kwargs):
            run = traced_run_document(*args, **kwargs)
            runs.append(run)
            return run

        pipeline.run_document = keep_run  # uninstall restores the original
        code = cli.main(argv)
    returned = time.perf_counter()
    pairs = sum(mention_pairs(run) for run in runs)
    spans = json.dumps(tracer.spans)
    # The work after the CLI returned is not tracing cost; the benchmark
    # subtracts it from this process's wall time.
    after_main_s = time.perf_counter() - returned
    Path(out_path).write_text(
        f'{{"mention_pairs": {pairs}, "after_main_s": {after_main_s!r}, '
        f'"spans": {spans}}}')
    return code


if __name__ == "__main__":
    sys.exit(main())
