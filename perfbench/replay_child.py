"""Replay serve_stream's requests through ``handlers.dispatch`` in-process.

A fresh interpreter per replay, so the untraced and the traced replay
both start from cold caches.  Each request is one span tree under its
request id: decode (``json.loads`` + ``codec.validate_estimate``),
dispatch, and the layers below it.

Usage (``serve.py`` does this)::

    python3 perfbench/replay_child.py CONFIG_JSON OUT_JSON
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROUTE = ("POST", "/v1/estimate")


def main(config_json: str, out_path: str) -> None:
    config = json.loads(config_json)
    bodies = Path(config["bodies"]).read_bytes().splitlines()

    from repro.pipeline import EstimatorSpec
    from repro.service import handlers
    from repro.service.state import ServiceConfig, ServiceState

    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer(tracing.SLOTS)
        tracing.install(tracer, service=True)
        tracer.run_id = "setup"

    state = ServiceState(ServiceConfig(spec=EstimatorSpec(artifact_path=config["artifact"])))
    failed = 0
    start = time.perf_counter()
    if tracer is None:
        for body in bodies:
            response = handlers.dispatch(state, *ROUTE, json.loads(body))
            failed += response.status != 200
    else:
        for i, body in enumerate(bodies):
            tracer.run_id = f"req-{i}"
            root = tracer.begin("service.request")
            decode = tracer.begin("service.decode")
            payload = json.loads(body)
            tracer.end(decode)
            dispatch = tracer.begin("service.dispatch")
            response = handlers.dispatch(state, *ROUTE, payload)
            tracer.end(dispatch)
            tracer.end(root)
            failed += response.status != 200
    wall = time.perf_counter() - start
    state.close()

    result = {"wall_s": wall, "failed": failed, "requests": len(bodies)}
    if tracer is not None:
        from layers import layer_metrics

        metrics = layer_metrics(tracer.totals())
        every = tracer.self_times()
        setup = tracer.self_times("setup")
        metrics["trace.self_sum_s"] = sum(every.values()) - sum(setup.values())
        result["layers"] = metrics
        tracer.dump(Path(config["trace_out"]))
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
