"""``repro serve`` with the benchmark's tracing wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py TRACE_DIR [repro serve options]

The wrappers go in before the server forks its shards, so every shard
inherits them.  Each shard writes its spans to
``TRACE_DIR/spans-<pid>.json`` when it stops; the server itself runs the
unchanged ``repro serve`` command line.
"""

from __future__ import annotations

import os
import sys

import tracing


def main(argv) -> int:
    trace_dir, serve_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder)

    import repro.serve.shard as shard
    from repro.cli import main as repro_main

    original = shard.shard_main

    def traced_shard_main(*args, **kwargs):
        recorder.reset()  # drop what the fork copied from the parent
        try:
            return original(*args, **kwargs)
        finally:
            recorder.dump(os.path.join(trace_dir,
                                       f"spans-{os.getpid()}.json"))

    shard.shard_main = traced_shard_main
    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
