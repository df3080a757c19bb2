"""Child-process entry point: time the package import, then run one command.

    python3 perfbench/launch.py RECORD [--trace SPANS] cli <netdisturb args...>
    python3 perfbench/launch.py RECORD [--trace SPANS] study <study args...>
    python3 perfbench/launch.py RECORD import

``cli`` runs ``netdisturb.cli.main`` exactly as the ``netdisturb`` console
script does.  ``study`` runs the recovery-mc study (``study.py``).
``import`` only imports, as a set-up time probe.  RECORD receives the
start and end (``time.perf_counter``, the system-wide monotonic clock) of
``import netdisturb.cli`` in this fresh interpreter and the exit code.
With ``--trace`` the spans of the run are written to SPANS when it ends.
"""

import sys
import time


def main() -> int:
    record_path, rest = sys.argv[1], sys.argv[2:]
    spans_path = None
    if rest[0] == "--trace":
        spans_path, rest = rest[1], rest[2:]
    mode, argv = rest[0], rest[1:]

    import_start = time.perf_counter()
    import netdisturb.cli

    import_end = time.perf_counter()

    import json

    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    code = 1
    try:
        if mode == "import":
            code = 0
            return code
        if mode == "cli":
            run = netdisturb.cli.main
        else:
            import study

            run = study.main
        if tracer is None:
            code = run(argv)
        else:
            code = tracer.call("root", run, (argv,))
        return code
    finally:
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"import": [import_start, import_end], "exit_code": code}, fh)
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
