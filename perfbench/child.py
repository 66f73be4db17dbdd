"""One study in a fresh interpreter, timed the way a user pays for it.

The benchmark starts this script once per run:

    python3 perfbench/child.py --command moments --config study.cfg \
        --timing timing.json --src src [--spans spans.npz] [--setup-only]

It imports ``mixedsde.cli``, parses and resolves the config (the user's
set-up), then calls ``mixedsde.cli.main`` exactly as the ``mixedsde``
console script does. Clock readings go to ``--timing`` as JSON; they use
``time.perf_counter`` (CLOCK_MONOTONIC), which the parent shares, so the
parent can add interpreter start-up to the set-up time. With ``--spans`` the
layer tracer is installed after the import and its spans are saved on exit.
"""

import time

T_ENTER = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_kb() -> int:
    """High-water resident memory of this process and of its reaped children.

    VmHWM counts only this process image. ``ru_maxrss`` would also count
    the memory of the benchmark process that spawned this one, because
    Linux carries the pre-exec high-water mark over into it.
    """
    import resource

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, children)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--timing", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_import = time.perf_counter()
    import mixedsde.cli as cli

    t_imported = time.perf_counter()
    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(Path(args.src).resolve()):
        print(f"mixedsde imported from {source}, not from {args.src}", file=sys.stderr)
        return 4

    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer(run_id=Path(args.timing).parent.name)
        install(tracer)

    t_parse = time.perf_counter()
    cli.resolve_config(args.command, cli.parse_config_file(args.config), args.config, {})
    t_parsed = time.perf_counter()
    timing = {
        "t_enter": T_ENTER,
        "t_import": t_import,
        "t_imported": t_imported,
        "t_parse": t_parse,
        "t_parsed": t_parsed,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    code = 0
    if not args.setup_only:
        t_main = time.perf_counter()
        code = cli.main([args.command, "--config", args.config])
        timing.update(t_main=t_main, t_main_end=time.perf_counter(), exit_code=code,
                      peak_rss_kb=_peak_rss_kb())
    Path(args.timing).write_text(json.dumps(timing))
    if tracer is not None:
        tracer.save(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
