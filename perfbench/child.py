"""One benchmark iteration in a fresh process: the calls ``spinquench.cli.main`` makes.

    python3 child.py CONFIG COMMAND WORKERS OUT_DIR MARKS_FILE [TRACE_DIR RUN_ID]

Loads the config with ``load_config`` and runs ``run_quench_experiment`` (for
COMMAND ``run``) or ``run_oracle_check`` (for ``oracle-check``), exactly as
the command line would. It writes the CLOCK_MONOTONIC time at which the config
was loaded to MARKS_FILE, for the set-up time, and exits with the program's
exit code. With TRACE_DIR the layers are wrapped for the iteration and
unwrapped before the spans are written there.
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    config_path, command, workers, out_dir, marks_path = argv[:5]
    tracer = None
    if len(argv) > 5:
        import tracing

        tracer = tracing.Tracer(run_id=argv[6], out_dir=argv[5])
        tracer.install()
    try:
        from spinquench import cli

        config = cli.load_config(config_path)
        loaded = time.monotonic()
        if command == "run":
            code = cli.run_quench_experiment(config, workers=int(workers), output_dir=out_dir)
        else:
            code = cli.run_oracle_check(config, output_dir=out_dir)
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.flush()
    import spinquench

    Path(marks_path).write_text(json.dumps({
        "loaded": loaded,
        "module": str(Path(spinquench.__file__).resolve()),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
