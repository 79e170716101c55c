"""The three benchmark workloads: generator parameters, inputs and stages.

Every input is derived from the workload seed. Network sizes come from a
fixed grid (the same for every seed), so a different seed changes the
random structure of each network but barely changes the total work.

* ``many-small``: the ``generate`` subcommand makes two labeled ensembles
  in the 0-100 bucket; nothing is written by the benchmark itself.
* ``medium-overlap``: the benchmark writes an events file of networks in
  the 100-1000 bucket whose two classes use recipes blended 0.45 / 0.55
  between the two profiles, so the classes overlap.
* ``hub-stress``: the benchmark writes an events file holding a few
  unlabeled hub-heavy networks (1000+ bucket) plus a small labeled
  background in the 0-100 bucket, so that ``classify`` has two classes.

Events files hold one ``original`` per node without an in-edge and one
``retweet`` per edge, so ``build`` reproduces each generated network.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from diffnet.cli import network_id_for_url
from diffnet.dataset import read_manifest, write_manifest
from diffnet.graphs import Label
from diffnet.synth import (
    CascadeRecipe,
    ClassProfile,
    generate,
    mean_audience_size,
    recipe_for,
)

CLASSIFIERS = ("lr", "knn", "knn-dgcd13", "knn-portrait")
# the classifiers' own settings; the CLI defaults except for the fixed seed
CLASSIFY_PARAMS = {"seed": 0, "folds": 10, "test_fraction": 0.1, "k": 10}

# --- generator parameters ---------------------------------------------------

MANY_SMALL_COUNT = 200  # networks per class

MEDIUM_COUNT = 150  # networks per class
MEDIUM_TARGETS = (120, 300)  # target node counts, evenly spaced per class
MEDIUM_BLEND = {Label.MAINSTREAM: 0.40, Label.DISINFORMATION: 0.60}

BACKGROUND_COUNT = 24  # labeled 0-100 networks per class on hub-stress
BACKGROUND_TARGETS = (60, 90)
# The background only gives classify two classes on hub-stress. It is the
# same for every seed: LR's iteration count on 48 samples swings with the
# data, and the classify stage here is the control, not the subject.
BACKGROUND_SEED = 0

SIZE_TOLERANCE = 0.1  # generated networks keep within 10% of their target size


@dataclass(frozen=True)
class HubSpec:
    """One hub-heavy network: ``hubs`` cascades of exactly ``leaves`` retweets."""

    hubs: int
    leaves: int
    depth_bias: float = 0.0
    mention_prob: float = 0.0
    quote_prob: float = 0.0
    reply_prob: float = 0.0
    reciprocity_prob: float = 0.0

    def recipe(self, seed: int) -> CascadeRecipe:
        return CascadeRecipe(
            n_cascades=self.hubs,
            audience_min=self.leaves,
            audience_max=self.leaves,
            depth_bias=self.depth_bias,
            mention_prob=self.mention_prob,
            quote_prob=self.quote_prob,
            reply_prob=self.reply_prob,
            reciprocity_prob=self.reciprocity_prob,
            seed=seed,
        )


HUB_SPECS = (
    HubSpec(hubs=1, leaves=1600),
    HubSpec(hubs=2, leaves=900, mention_prob=0.01),
    HubSpec(hubs=3, leaves=600, depth_bias=0.05, mention_prob=0.01, reply_prob=0.3),
    HubSpec(hubs=4, leaves=450, depth_bias=0.2, mention_prob=0.02, quote_prob=0.01,
            reciprocity_prob=0.02),
)


# --- stages -----------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One CLI call; ``metric`` is the end-to-end stage metric it adds to."""

    name: str
    metric: str
    argv: tuple[str, ...]


def analysis_stages(corpus: Path, out: Path, hub_options: bool) -> list[Stage]:
    """features, both distance matrices and the four classifiers."""
    manifest = str(corpus / "manifest.csv")
    features = str(out / "features.csv")
    dgcd = str(out / "dgcd13.csv")
    portrait = str(out / "portrait.csv")
    dgcd_extra = ("--include-large",) if hub_options else ()
    portrait_extra = ("--portrait-undirected",) if hub_options else ()
    common = ("--features", features, "--seed", str(CLASSIFY_PARAMS["seed"]))
    stages = [
        Stage("features", "features_s", ("features", manifest, "--out", features)),
        Stage("dgcd13", "dgcd_matrix_s",
              ("distances", manifest, "--out", dgcd, "--which", "dgcd13") + dgcd_extra),
        Stage("portrait", "portrait_matrix_s",
              ("distances", manifest, "--out", portrait, "--which", "portrait")
              + portrait_extra),
    ]
    for name in CLASSIFIERS:
        argv = ("classify", "--out", str(out / f"report-{name}.json")) + common
        if name == "knn-dgcd13":
            argv += ("--classifier", "knn-distance", "--distances", dgcd)
        elif name == "knn-portrait":
            argv += ("--classifier", "knn-distance", "--distances", portrait)
        else:
            argv += ("--classifier", name)
        stages.append(Stage(f"classify-{name}", "classify_s", argv))
    return stages


# --- inputs -----------------------------------------------------------------


@dataclass
class Inputs:
    """What the benchmark wrote before the first stage."""

    seed: int = 0
    events: Path | None = None
    labels: dict[str, Label] = field(default_factory=dict)  # network id -> label
    graphs: dict[str, tuple[int, int]] | None = None  # network id -> (nodes, edges)


def grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` evenly spaced integer targets in [lo, hi]."""
    return [int(round(t)) for t in np.linspace(lo, hi, count)]


def blended_recipe(weight: float, target_nodes: int, seed: int) -> CascadeRecipe:
    """Recipe ``weight`` of the way from broadcast_like to clustered_like."""
    a = recipe_for(ClassProfile.BROADCAST_LIKE, target_nodes, seed=seed)
    b = recipe_for(ClassProfile.CLUSTERED_LIKE, target_nodes, seed=seed)

    def mix(name: str) -> float:
        return (1.0 - weight) * getattr(a, name) + weight * getattr(b, name)

    audience_min = int(round(mix("audience_min")))
    audience_max = int(round(mix("audience_max")))
    exponent = mix("audience_exponent")
    per_cascade = 1.0 + mean_audience_size(exponent, audience_min, audience_max)
    return CascadeRecipe(
        n_cascades=max(1, round(target_nodes / per_cascade)),
        audience_exponent=exponent,
        audience_min=audience_min,
        audience_max=audience_max,
        reply_prob=mix("reply_prob"),
        mention_prob=mix("mention_prob"),
        quote_prob=mix("quote_prob"),
        depth_bias=mix("depth_bias"),
        reciprocity_prob=mix("reciprocity_prob"),
        seed=seed,
    )


def _sized_network(make, target: int, rng: np.random.Generator, max_attempts: int = 200):
    """First network from ``make(seed)`` within SIZE_TOLERANCE of ``target``
    nodes, so that the total work hardly depends on the seed."""
    lo, hi = target * (1 - SIZE_TOLERANCE), target * (1 + SIZE_TOLERANCE)
    for _ in range(max_attempts):
        network = make(int(rng.integers(0, 2**63 - 1)))
        if lo <= network.n_nodes <= hi:
            return network
    raise RuntimeError(f"no network of {target} +/- {SIZE_TOLERANCE:.0%} nodes "
                       f"after {max_attempts} attempts")


def _event_lines(network, url: str, prefix: str):
    """JSONL lines that ``build`` turns back into ``network``."""
    has_in_edge = {v for _, v in network.edges}
    tick = 0
    for user in network.sorted_nodes:
        if user not in has_in_edge:
            yield json.dumps({"tweet_id": f"{prefix}-{tick}", "user": user, "target_user": None,
                              "interaction": "original", "url": url, "timestamp": tick})
            tick += 1
    for source, receiver in sorted(network.edges):
        yield json.dumps({"tweet_id": f"{prefix}-{tick}", "user": receiver,
                          "target_user": source, "interaction": "retweet", "url": url,
                          "timestamp": tick})
        tick += 1


def _write_events(path: Path, networks) -> Inputs:
    """Write (url, label, network) triples as one events file."""
    inputs = Inputs(events=path, graphs={})
    with path.open("w", encoding="utf-8") as fh:
        for k, (url, label, network) in enumerate(networks):
            for line in _event_lines(network, url, f"t{k}"):
                fh.write(line + "\n")
            network_id = network_id_for_url(url)
            inputs.graphs[network_id] = (network.n_nodes, network.n_edges)
            if label is not Label.UNLABELED:
                inputs.labels[network_id] = label
    return inputs


def label_manifest(corpus: Path, labels: dict[str, Label]) -> None:
    """Give every built network its class; ids not in ``labels`` stay unlabeled."""
    manifest = corpus / "manifest.csv"
    entries = [
        replace(e, label=labels[e.network_id]) if e.network_id in labels else e
        for e in read_manifest(manifest)
    ]
    write_manifest(entries, manifest)


# --- workloads --------------------------------------------------------------


class Workload:
    name = ""

    def params(self, seed: int) -> dict:
        """Generator parameters, printed with every result."""
        raise NotImplementedError

    def prepare(self, directory: Path, seed: int) -> Inputs:
        """Write the inputs the benchmark makes itself, before the first stage."""
        raise NotImplementedError

    def stages(self, inputs: Inputs, out: Path) -> list[Stage]:
        raise NotImplementedError


class ManySmall(Workload):
    name = "many-small"

    @staticmethod
    def generate_seeds(seed: int) -> tuple[int, int]:
        return 2 * seed + 1, 2 * seed + 2

    def params(self, seed: int) -> dict:
        return {
            "profiles": [p.value for p in ClassProfile],
            "count_per_class": MANY_SMALL_COUNT,
            "bucket": "0-100",
            "generate_seeds": list(self.generate_seeds(seed)),
            "classify": CLASSIFY_PARAMS,
        }

    def prepare(self, directory: Path, seed: int) -> Inputs:
        return Inputs(seed=seed)

    def stages(self, inputs: Inputs, out: Path) -> list[Stage]:
        corpus = out / "corpus"
        stages = [
            Stage(f"generate-{profile.value}", "ingest_s",
                  ("generate", "--profile", profile.value, "--count", str(MANY_SMALL_COUNT),
                   "--bucket", "0-100", "--out-dir", str(corpus), "--seed", str(gen_seed)))
            for profile, gen_seed in zip(ClassProfile, self.generate_seeds(inputs.seed))
        ]
        return stages + analysis_stages(corpus, out, hub_options=False)


class EventsWorkload(Workload):
    """Networks written as one events file, then ``build`` and labeling."""

    hub_options = False

    def networks(self, seed: int):
        """Yield (url, label, network) triples."""
        raise NotImplementedError

    def prepare(self, directory: Path, seed: int) -> Inputs:
        return _write_events(directory / "events.jsonl", self.networks(seed))

    def stages(self, inputs: Inputs, out: Path) -> list[Stage]:
        corpus = out / "corpus"
        build = Stage("build", "ingest_s", ("build", str(inputs.events), "--out-dir", str(corpus)))
        return [build] + analysis_stages(corpus, out, hub_options=self.hub_options)


class MediumOverlap(EventsWorkload):
    name = "medium-overlap"

    def params(self, seed: int) -> dict:
        return {
            "count_per_class": MEDIUM_COUNT,
            "target_nodes": list(MEDIUM_TARGETS),
            "size_tolerance": SIZE_TOLERANCE,
            "blend": {label.value: w for label, w in MEDIUM_BLEND.items()},
            "blend_from_to": ["broadcast_like", "clustered_like"],
            "classify": CLASSIFY_PARAMS,
        }

    def networks(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        for label, weight in MEDIUM_BLEND.items():
            for i, target in enumerate(grid(*MEDIUM_TARGETS, MEDIUM_COUNT)):
                network = _sized_network(
                    lambda s: generate(blended_recipe(weight, target, s),
                                       ClassProfile.BROADCAST_LIKE),
                    target, rng,
                )
                yield f"https://bench.invalid/medium/{label.value}-{i:04d}", label, network


class HubStress(EventsWorkload):
    name = "hub-stress"
    hub_options = True

    def params(self, seed: int) -> dict:
        return {
            "hub_specs": [asdict(h) for h in HUB_SPECS],
            "hub_label": "unlabeled",
            "background_count_per_class": BACKGROUND_COUNT,
            "background_targets": list(BACKGROUND_TARGETS),
            "background_seed": BACKGROUND_SEED,
            "size_tolerance": SIZE_TOLERANCE,
            "distances_options": ["--include-large", "--portrait-undirected"],
            "classify": CLASSIFY_PARAMS,
        }

    def networks(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        for i, spec in enumerate(HUB_SPECS):
            recipe = spec.recipe(int(rng.integers(0, 2**63 - 1)))
            network = generate(recipe, ClassProfile.BROADCAST_LIKE)
            yield f"https://bench.invalid/hub/hub-{i:02d}", Label.UNLABELED, network
        rng = np.random.default_rng([BACKGROUND_SEED, 3])
        for profile in ClassProfile:
            for i, target in enumerate(grid(*BACKGROUND_TARGETS, BACKGROUND_COUNT)):
                network = _sized_network(
                    lambda s: generate(recipe_for(profile, target, seed=s), profile), target, rng
                )
                yield f"https://bench.invalid/hub/{profile.value}-{i:04d}", network.label, network


WORKLOADS = {w.name: w for w in (ManySmall(), MediumOverlap(), HubStress())}
