"""Child process for the benchmark: the set-up probe and traced CLI runs.

    python3 perfbench/child.py setup PRESET
        interpreter start, import of the CLI, argument parsing and config
        load, with no solve
    python3 perfbench/child.py --trace OUT.json setup PRESET
    python3 perfbench/child.py --trace OUT.json cli CLI-ARGS...
        the same, or a ``trialgame`` CLI run, with every layer traced; the
        aggregated spans are written to OUT.json

``trialgame`` must be importable (``PYTHONPATH=src``).
"""

import json
import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    import trialgame.cli

    mode, args = argv[0], argv[1:]
    if mode == "setup":
        parsed = trialgame.cli.build_parser().parse_args(["loss-sweep", "--config", args[0]])
        trialgame.cli.load_config(trialgame.cli.preset_path(parsed.config))
        code = 0
    elif mode == "cli":
        code = trialgame.cli.main(args)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
