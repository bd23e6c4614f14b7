"""One batch-workload process: a timed pipeline, the reference, or a trace.

Run by ``run.py``, one process per call, so that peak memory belongs to
one pipeline and no state carries over between repetitions::

    python3 perfbench/batch.py --workload paper-small --seed 3 --mode run

Modes:

* ``run`` — setup, provider ingest and ``LinkingJob.run`` exactly as
  ``repro link --blocking rules`` (``rules-strict`` at ``thales``) runs
  them, untraced; reports the stage times, peak RSS and the digest of
  the sameAs links;
* ``check`` — ``run``, then, off the clock and after peak RSS is read,
  the same inputs through the pairwise oracle
  (:func:`pipeline.reference_links`) with a freshly built classifier,
  and the F1 of the CLI's own provider batch (seed 0);
* ``trace`` — the ``run`` pipeline with a span around every layer call,
  then the layer probes the pipeline does not make on its own (a fresh
  ``Graph.add_all``, ``predict_many``, Table 1) and the oracle pass,
  whose spans give the serial cost of candidates, scoring and decision.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pipeline  # noqa: E402
from spans import Tracer, span  # noqa: E402

from repro.core.classifier import RuleClassifier  # noqa: E402
from repro.engine import JobConfig, LinkingJob  # noqa: E402
from repro.linking import RecordStore  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any reaped child (the executor's pool
    workers are joined by the time ``LinkingJob.run`` returns)."""
    # ru_maxrss is in KiB on Linux
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def setup(spec, tracer):
    """Everything before the first provider record is linked."""
    with span(tracer, "datagen.generate"):
        catalog = pipeline.generate_catalog(spec["preset"])
    with span(tracer, "records.from_graph"):
        local = RecordStore.from_graph(catalog.local_graph, pipeline.FIELDS)
    rules = pipeline.learn_rules(catalog, tracer)
    with span(tracer, "classifier.build"):
        classifier = RuleClassifier(rules.with_min_confidence(pipeline.MIN_CONFIDENCE))
    return catalog, local, rules, classifier


def run_pipeline(spec, seed, tracer=None):
    started = time.perf_counter()
    with span(tracer, "setup"):
        catalog, local, rules, classifier = setup(spec, tracer)
    setup_s = time.perf_counter() - started
    # the provider feed is the benchmark's input, made off the clock
    graph, _ = pipeline.provider_inputs(catalog, spec["items"], seed)
    resumed = time.perf_counter()
    with span(tracer, "link"):
        with span(tracer, "records.from_graph"):
            external = RecordStore.from_graph(graph, pipeline.FIELDS)
        job = LinkingJob(
            pipeline.rule_blocking(classifier, catalog, graph, spec["fallback_full"]),
            pipeline.comparator(),
            pipeline.matcher(),
            JobConfig(executor="auto"),
        )
        link_started = time.perf_counter()
        with span(tracer, "engine.run"):
            result = job.run(external, local)
        finished = time.perf_counter()
    return {
        "catalog": catalog,
        "local": local,
        "external": external,
        "graph": graph,
        "rules": rules,
        "classifier": classifier,
        "result": result,
        "timings": {
            "setup_s": setup_s,
            "link_s": finished - link_started,
            "total_s": setup_s + finished - resumed,
        },
        "digest": pipeline.links_digest(result.match_pairs),
        "matches": len(result.matches),
        "pairs": result.compared,
    }


def fresh_blocking(spec, state, graph):
    """A rules blocking over *graph*, built afresh from the learned rules."""
    classifier = RuleClassifier(state["rules"].with_min_confidence(pipeline.MIN_CONFIDENCE))
    return pipeline.rule_blocking(classifier, state["catalog"], graph, spec["fallback_full"])


def quality_f1(spec, state) -> float:
    """F1 of the CLI's own provider batch (seed 0), whatever the run's seed.

    The oracle scores with the same comparator as the engine, so the
    digest check cannot see a scorer that drops matches; this F1 can, and
    it does not move with the seed that varies the timed inputs.
    """
    graph, truth = pipeline.provider_inputs(state["catalog"], spec["items"], 0)
    job = LinkingJob(
        fresh_blocking(spec, state, graph),
        pipeline.comparator(),
        pipeline.matcher(),
        JobConfig(executor="auto"),
    )
    external = RecordStore.from_graph(graph, pipeline.FIELDS)
    return job.run(external, state["local"]).matching_quality(truth).f1


def layer_probes(spec, state, tracer):
    """Per-layer metrics the timed pipeline cannot report by itself."""
    from repro.experiments.table1 import run_table1

    catalog, local, external, graph = (
        state["catalog"], state["local"], state["external"], state["graph"]
    )
    layers = pipeline.ingest_layers(tracer, catalog)
    classifier = state["classifier"]
    classifier.build_probe_table()
    items = list(external.ids())
    with span(tracer, "classifier.predict_many"):
        predictions = classifier.predict_many(items, graph)
    decided = sum(1 for item in items if predictions[item])
    with span(tracer, "table1"):
        table = run_table1(catalog)
    with span(tracer, "reference"):
        oracle = pipeline.reference_links(
            fresh_blocking(spec, state, graph), external, local, tracer
        )
    layers.update(
        pipeline.oracle_layers(tracer, oracle, external, local, state["result"].stats)
    )
    layers.update(
        {
            "core.training_set_s": tracer.seconds("core.training_set"),
            "core.learn_s": tracer.seconds("core.learn"),
            "core.rules": len(state["rules"]),
            "classifier.predict_many_s": tracer.seconds("classifier.predict_many"),
            "classifier.decided_frac": decided / len(items),
            "classifier.decided_c60": table.row(0.6).n_decisions,
            "classifier.decided_c40": table.row(0.4).n_decisions,
            "classifier.recall_c40": table.row(0.4).recall,
            "blocking.fallback_items": (len(items) - decided) if spec["fallback_full"] else 0,
        }
    )
    return pipeline.links_digest(oracle["links"]), layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(pipeline.BATCH_WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "check", "trace"), required=True)
    args = parser.parse_args(argv)
    spec = pipeline.BATCH_WORKLOADS[args.workload]

    tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}") if args.mode == "trace" else None
    state = run_pipeline(spec, args.seed, tracer)
    stats = state["result"].stats
    out = {
        "timings": state["timings"],
        "digest": state["digest"],
        "matches": state["matches"],
        "pairs": state["pairs"],
        "executor": stats.executor,
        "fallback_reason": stats.fallback_reason,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.mode == "trace":
        out["reference_digest"], out["layers"] = layer_probes(spec, state, tracer)
        out["spans"] = tracer.spans
    elif args.mode == "check":
        started = time.perf_counter()
        oracle = pipeline.reference_links(
            fresh_blocking(spec, state, state["graph"]), state["external"], state["local"]
        )
        out["reference_digest"] = pipeline.links_digest(oracle["links"])
        out["quality_f1"] = quality_f1(spec, state)
        out["check_s"] = time.perf_counter() - started
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
