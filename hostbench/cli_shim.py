"""``repro`` CLI entry with compile, simulate and kernel spans recorded.

Traced ``cli`` ops run this instead of ``python -m repro``::

    python3 -X importtime hostbench/cli_shim.py SPANS_OUT simulate KEY --json

It wraps the CLI module's own ``compile_application`` and ``simulate``
names, runs ``repro.cli.main`` on the remaining arguments, and writes the
spans to ``SPANS_OUT`` when the command returns.
"""

import pathlib
import sys

sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)


def main() -> int:
    import repro.cli as cli

    from hostbench.tracer import Tracer

    spans_out, argv = pathlib.Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    compile_application, simulate = cli.compile_application, cli.simulate

    def traced_compile(*args, **kwargs):
        with tracer.span("transform.compile"):
            return compile_application(*args, **kwargs)

    def traced_simulate(compiled, options=None):
        tracer.instrument_kernels(compiled.graph)
        with tracer.span("sim.simulate") as span:
            result = simulate(compiled, options)
        span["engine_events"] = result.events_processed
        return result

    cli.compile_application = traced_compile
    cli.simulate = traced_simulate
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
