"""One CLI op of the traced cli-fixtures run.

    python3 bench/cli_child.py <spans.json> <command> <input>

Runs `logmoduli.cli.main([command, input])` with the tracing wrappers of
spans.py installed, writes the spans to <spans.json> and exits with the
CLI's exit code.  Stdout is the CLI's own, so it is checked like an
untraced op.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import logmoduli.cli  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_op(0)
    try:
        code = logmoduli.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
