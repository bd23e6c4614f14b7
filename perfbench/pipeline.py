"""The paper pipeline as the benchmark drives it, through public layer calls.

Shared by the batch child process (``batch.py``) and the serve workload's
in-process references. Nothing here changes the program: every step is a
call into ``repro``'s public functions, wrapped in an optional span.

Inputs come from the workload seed. The local catalog and the choice of
provider items are those of ``repro link`` (catalog seed 7 for ``small``
and 20120326 for ``thales``, provider-batch seed 4242); the seed draws
the corruption noise on those provider items. Seed 0 is exactly the
CLI's provider batch, on which ``f1`` is always scored. Holding the
item choice fixed keeps the amount of linking work nearly constant from
seed to seed: at ``thales`` a fresh 50-item sample per seed moves the
candidate-pair count between 35k and 79k, which would swamp any timing
change.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Tuple

from spans import Tracer, span

from repro.core.classifier import RuleClassifier
from repro.core.learner import LearnerConfig, RuleLearner
from repro.datagen.catalog import (
    MANUFACTURER,
    PART_NUMBER,
    ElectronicCatalogGenerator,
    GeneratedCatalog,
)
from repro.datagen.config import CatalogConfig
from repro.datagen.corruption import Corruptor
from repro.linking import (
    FieldComparator,
    RecordComparator,
    RecordStore,
    RuleBasedBlocking,
    ThresholdMatcher,
)
from repro.rdf.graph import Graph
from repro.rdf.namespace import OWL, Namespace
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import Literal, Term
from repro.rdf.triples import Triple

FIELDS = {"pn": PART_NUMBER}
SUPPORT_THRESHOLD = 0.002
MIN_CONFIDENCE = 0.4
MATCH_THRESHOLD = 0.9
BATCH_SEED = 4242
PROVIDER_NS = Namespace("http://example.org/catalog/provider-test/")

#: The two batch workloads: preset, provider items and blocking mode.
BATCH_WORKLOADS = {
    "paper-small": {"preset": "small", "items": 300, "fallback_full": True},
    "paper-thales": {"preset": "thales", "items": 50, "fallback_full": False},
}

Pair = Tuple[Term, Term]


def generate_catalog(preset: str) -> GeneratedCatalog:
    """The preset's catalog at the CLI's default catalog seed."""
    config = {"small": CatalogConfig.small, "thales": CatalogConfig.thales_like}[preset]()
    return ElectronicCatalogGenerator(config).generate()


def provider_inputs(
    catalog: GeneratedCatalog, n_items: int, seed: int | str
) -> Tuple[Graph, List[Pair]]:
    """The provider feed and its truth; ``seed`` 0 equals ``provider_batch``.

    Same construction as :func:`repro.experiments.throughput.provider_batch`
    (unseen catalog items, corrupted part number plus manufacturer), with
    the item sample drawn from the CLI's batch seed and the corruption
    noise from *seed*.
    """
    rng = random.Random(BATCH_SEED)
    linked = {link.local for link in catalog.links}
    unseen = [item for item in catalog.items if item.iri not in linked]
    chosen = rng.sample(unseen, min(n_items, len(unseen)))
    noise = rng if seed == 0 else random.Random(f"provider-noise-{seed}")
    corruptor = Corruptor()
    graph = Graph(identifier="external-test")
    truth: List[Pair] = []
    for i, item in enumerate(chosen):
        ext = PROVIDER_NS.term(f"t{i}")
        graph.add(
            Triple(ext, PART_NUMBER, Literal(corruptor.corrupt(item.part_number, noise)))
        )
        graph.add(Triple(ext, MANUFACTURER, Literal(item.manufacturer)))
        truth.append((ext, item.iri))
    return graph, truth


def learn_rules(catalog: GeneratedCatalog, tracer: Optional[Tracer] = None):
    """Algorithm 1 over the catalog's expert links, as ``repro link`` runs it."""
    with span(tracer, "core.training_set"):
        training = catalog.to_training_set()
    with span(tracer, "core.learn"):
        return RuleLearner(
            LearnerConfig(properties=(PART_NUMBER,), support_threshold=SUPPORT_THRESHOLD)
        ).learn(training)


def rule_blocking(classifier, catalog, external_graph, fallback_full: bool):
    return RuleBasedBlocking(
        classifier, catalog.ontology, external_graph, fallback_full=fallback_full
    )


def comparator() -> RecordComparator:
    return RecordComparator([FieldComparator("pn")])


def matcher() -> ThresholdMatcher:
    return ThresholdMatcher(match_threshold=MATCH_THRESHOLD)


def links_digest(pairs) -> str:
    """sha256 of the sorted sameAs N-Triples of (external, local) pairs."""
    graph = Graph(identifier="links")
    for ext_id, local_id in pairs:
        graph.add(Triple(ext_id, OWL.sameAs, local_id))
    return hashlib.sha256(serialize_ntriples(graph).encode("utf-8")).hexdigest()


def reference_links(
    blocking, external: RecordStore, local: RecordStore, tracer: Optional[Tracer] = None
) -> Dict[str, object]:
    """The untimed pairwise oracle: drain, compare, decide, keep the best.

    Per external record the top-scoring match wins, score ties going to
    the lexicographically smallest local id (the engine's fold rule).
    Each stage is its own span, so the traced run reads the serial cost
    of candidates, scoring and decision off this same pass.
    """
    with span(tracer, "blocking.candidates"):
        pairs = list(blocking.candidate_pairs(external, local))
    records = comparator()
    with span(tracer, "comparators.score"):
        vectors = [records.compare(external[e], local[l]) for e, l in pairs]
    decider = matcher()
    with span(tracer, "matchers.decide"):
        decisions = [decider.decide(vector) for vector in vectors]
    best: Dict[Term, Tuple[float, str, Term]] = {}
    for (ext_id, local_id), decision in zip(pairs, decisions):
        if not decision.is_match:
            continue
        incumbent = best.get(ext_id)
        key = (-decision.score, str(local_id))
        if incumbent is None or key < incumbent[:2]:
            best[ext_id] = (-decision.score, str(local_id), local_id)
    return {
        "pairs": len(pairs),
        "reached": sum(1 for v in vectors if v.aggregate >= MATCH_THRESHOLD),
        "links": [(ext_id, entry[2]) for ext_id, entry in best.items()],
    }


def oracle_layers(tracer: Tracer, oracle, external, local, stats) -> Dict[str, float]:
    """Layer metrics from a traced oracle pass and the engine run's stats."""
    seconds = tracer.seconds
    pairs = oracle["pairs"]
    serial = (
        seconds("blocking.candidates")
        + seconds("comparators.score")
        + seconds("matchers.decide")
    )
    return {
        "blocking.candidates_s": seconds("blocking.candidates"),
        "blocking.pairs": pairs,
        "blocking.pair_ratio": pairs / (len(external) * len(local)),
        "comparators.score_s": seconds("comparators.score"),
        "comparators.us_per_pair": seconds("comparators.score") / pairs * 1e6,
        "matchers.decide_s": seconds("matchers.decide"),
        "matchers.reach_frac": oracle["reached"] / pairs,
        "engine.run_s": seconds("engine.run"),
        "engine.serial_work_s": serial,
        "engine.speedup": serial / seconds("engine.run"),
        "engine.workers": stats.workers,
        "engine.cache_hit_rate": stats.cache_hit_rate,
        "engine.index_probe_s": stats.index_probe_seconds,
    }


def ingest_layers(tracer: Tracer, catalog: GeneratedCatalog) -> Dict[str, float]:
    """Time ``Graph.add_all`` of the catalog's local triples into a fresh graph."""
    triples = list(catalog.local_graph)
    with tracer.span("rdf.add_all"):
        Graph(identifier="bench-local").add_all(triples)
    return {
        "datagen.generate_s": tracer.seconds("datagen.generate"),
        "datagen.triples": len(catalog.local_graph) + len(catalog.external_graph),
        "rdf.add_all_s": tracer.seconds("rdf.add_all"),
        "rdf.us_per_triple": tracer.seconds("rdf.add_all") / len(triples) * 1e6,
        "records.from_graph_s": tracer.seconds("records.from_graph"),
    }
