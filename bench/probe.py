"""Fresh-process probes; run.py starts them with PYTHONPATH set to src/.

    probe.py setup CONFIG   print the seconds from before `import kfaclab`
                            until the config's network, dataset, probe inputs
                            and transformed twin are built
    probe.py cli CONFIG     run `kfaclab check-invariance` with the tracer
                            installed; print JSON with cli.import_s,
                            cli.self_s, the exit code and the report
"""

import contextlib
import io
import json
import sys
import time


def setup(path):
    with open(path) as fh:
        raw = json.load(fh)
    start = time.perf_counter()
    from kfaclab import harness

    config = harness.ExperimentConfig.from_dict(raw)
    spec, model, params, data, _ = harness._setup(config)
    harness._transformed_side(spec, model, params, data, config)
    print(repr(time.perf_counter() - start))


def cli(path):
    start = time.perf_counter()
    import kfaclab.cli

    import_s = time.perf_counter() - start
    from tracer import SpanStats, Tracer

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kfaclab.cli.main(["check-invariance", "--config", path])
    tracer.uninstall()
    self_s = SpanStats(tracer.spans).self_of_module("cli")
    print(json.dumps({"import_s": import_s, "self_s": self_s, "exit": code,
                      "stdout": out.getvalue()}))


if __name__ == "__main__":
    mode, config_path = sys.argv[1:3]
    {"setup": setup, "cli": cli}[mode](config_path)
