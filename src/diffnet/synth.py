"""Synthetic diffusion-network generator.

Draws resharing cascades straight into networks whose global features
separate into two controllable classes, so the full pipeline can be exercised
without any platform data. Class profiles encode qualitative contrasts:
broadcast-like networks are unions of shallow stars, clustered-like
networks are fewer, deeper cascades with closure edges that create
triangles, reciprocated arcs and merged components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Bias, DiffusionNetwork, Label, SizeBucket


class ClassProfile(enum.Enum):
    BROADCAST_LIKE = "broadcast_like"
    CLUSTERED_LIKE = "clustered_like"


_PROFILE_LABELS = {
    ClassProfile.BROADCAST_LIKE: Label.MAINSTREAM,
    ClassProfile.CLUSTERED_LIKE: Label.DISINFORMATION,
}


@dataclass(frozen=True)
class CascadeRecipe:
    """Parameters of one synthetic network.

    Audience sizes (retweets per cascade) follow a discrete power law with
    the given exponent, truncated to [audience_min, audience_max].
    depth_bias is the probability that a retweeter attaches to an earlier
    retweeter instead of the root; reply_prob closes a triangle back to the
    grandparent; mention_prob and quote_prob link into other cascades;
    reciprocity_prob reciprocates the freshly created arc.
    """

    n_cascades: int
    audience_exponent: float = 2.5
    audience_min: int = 1
    audience_max: int = 40
    reply_prob: float = 0.0
    mention_prob: float = 0.0
    quote_prob: float = 0.0
    depth_bias: float = 0.0
    reciprocity_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_cascades < 1:
            raise ValueError("n_cascades must be >= 1")
        if not 1 <= self.audience_min <= self.audience_max:
            raise ValueError("need 1 <= audience_min <= audience_max")
        if self.audience_exponent <= 1.0:
            raise ValueError("audience_exponent must be > 1")
        for name in ("reply_prob", "mention_prob", "quote_prob", "depth_bias", "reciprocity_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


def power_law_audience_sizes(
    rng: np.random.Generator, n: int, exponent: float, lo: int, hi: int
) -> np.ndarray:
    """n draws from P(k) proportional to k^-exponent on the integer range [lo, hi]."""
    support = np.arange(lo, hi + 1, dtype=np.float64)
    weights = support ** (-exponent)
    weights /= weights.sum()
    return rng.choice(support.astype(int), size=n, p=weights)


def mean_audience_size(exponent: float, lo: int, hi: int) -> float:
    support = np.arange(lo, hi + 1, dtype=np.float64)
    weights = support ** (-exponent)
    return float((support * weights).sum() / weights.sum())


def node_count(recipe: CascadeRecipe) -> int:
    """Node count of ``generate(recipe, ...)``, from the audience sizes alone
    (the first draws of the recipe's stream), without building a cascade."""
    rng = np.random.default_rng(recipe.seed)
    sizes = power_law_audience_sizes(
        rng, recipe.n_cascades, recipe.audience_exponent, recipe.audience_min, recipe.audience_max
    )
    return recipe.n_cascades + int(sizes.sum())


def generate(
    recipe: CascadeRecipe,
    profile: ClassProfile,
    network_id: str | None = None,
) -> DiffusionNetwork:
    """Generate one network cascade by cascade, straight from the random draws.

    Users are numbered in the order they act and named ``u{i}``. Every actor
    is fresh, so the node count is exactly n_cascades + total audience size
    (``node_count``). Edges follow the information flow. ``tweet_count``
    counts one original per cascade, one retweet per audience member and
    one tweet per closure link.
    """
    rng = np.random.default_rng(recipe.seed)
    sizes = power_law_audience_sizes(
        rng, recipe.n_cascades, recipe.audience_exponent, recipe.audience_min, recipe.audience_max
    )
    # local names: the loop below runs once per audience member
    random, integers = rng.random, rng.integers
    depth_bias, reply_prob, reciprocity_prob = recipe.depth_bias, recipe.reply_prob, recipe.reciprocity_prob
    mention_prob, quote_prob = recipe.mention_prob, recipe.quote_prob
    parent_of = [0] * (recipe.n_cascades + int(sizes.sum()))
    cascades: list[tuple[int, int]] = []  # (root, member count) per finished cascade
    edges: set[tuple[int, int]] = set()
    tweets = 0
    root = 0
    for size in sizes.tolist():
        for actor in range(root + 1, root + 1 + size):
            if actor - root > 1 and random() < depth_bias:
                parent = root + int(integers(1, actor - root))
            else:
                parent = root
            edges.add((parent, actor))  # the retweet
            parent_of[actor] = parent
            # triangle closure: reply to the grandparent alongside the retweet
            if parent != root and random() < reply_prob:
                edges.add((parent_of[parent], actor))
                tweets += 1
            # reciprocated arc: the parent replies back to the retweeter
            if random() < reciprocity_prob:
                edges.add((actor, parent))
                tweets += 1
            # cross-cascade links merge weak components
            if cascades and random() < mention_prob:
                other, members = cascades[int(integers(len(cascades)))]
                edges.add((actor, other + int(integers(members))))
                tweets += 1
            if cascades and random() < quote_prob:
                other, members = cascades[int(integers(len(cascades)))]
                edges.add((other + int(integers(members)), actor))
                tweets += 1
        cascades.append((root, 1 + size))
        tweets += 1 + size
        root += 1 + size

    names = [f"u{i}" for i in range(root)]
    return DiffusionNetwork(
        network_id=network_id if network_id is not None else f"synth-{profile.value}-{recipe.seed}",
        nodes=frozenset(names),
        edges=frozenset((names[u], names[v]) for u, v in edges),
        label=_PROFILE_LABELS[profile],
        bias=Bias.NONE,
        tweet_count=tweets,
    )


def recipe_for(profile: ClassProfile, target_nodes: int, seed: int = 0) -> CascadeRecipe:
    """Calibrated preset for one profile, sized to roughly target_nodes."""
    if target_nodes < 2:
        raise ValueError("target_nodes must be >= 2")
    if profile is ClassProfile.BROADCAST_LIKE:
        base = CascadeRecipe(
            n_cascades=1,
            audience_exponent=2.5,
            audience_min=1,
            audience_max=40,
            reply_prob=0.01,
            mention_prob=0.04,
            quote_prob=0.02,
            depth_bias=0.04,
            reciprocity_prob=0.01,
            seed=seed,
        )
    else:
        base = CascadeRecipe(
            n_cascades=1,
            audience_exponent=2.3,
            audience_min=5,
            audience_max=180,
            reply_prob=0.35,
            mention_prob=0.30,
            quote_prob=0.10,
            depth_bias=0.55,
            reciprocity_prob=0.12,
            seed=seed,
        )
    per_cascade = 1.0 + mean_audience_size(base.audience_exponent, base.audience_min, base.audience_max)
    n_cascades = max(1, round(target_nodes / per_cascade))
    return replace(base, n_cascades=n_cascades)


_BUCKET_TARGETS = {
    SizeBucket.D_0_100: (58, 95),
    SizeBucket.D_100_1000: (110, 600),
    SizeBucket.D_1000_INF: (1050, 2400),
}


def generate_ensemble(
    profile: ClassProfile,
    bucket: SizeBucket,
    count: int,
    seed: int = 0,
    min_nodes: int = 55,
    max_attempts: int = 200,
) -> list[DiffusionNetwork]:
    """Generate ``count`` networks whose node counts land in ``bucket``.

    Target sizes are drawn per member; draws that miss the bucket (audience
    sizes are random) are retried with a fresh seed. The node count is
    known from the audience sizes alone (``node_count``), so a missed draw
    builds no cascade. min_nodes keeps small networks above the
    tweet-count corpus filter.
    """
    if bucket not in _BUCKET_TARGETS:
        raise ValueError(f"cannot target bucket {bucket.value}")
    lo, hi = _BUCKET_TARGETS[bucket]
    master = np.random.default_rng(seed)
    networks = []
    for i in range(count):
        for attempt in range(max_attempts):
            target = int(master.integers(lo, hi + 1))
            member_seed = int(master.integers(0, 2**63 - 1))
            recipe = recipe_for(profile, target, seed=member_seed)
            n = node_count(recipe)
            if bucket.contains(n) and n >= min_nodes:
                networks.append(generate(
                    recipe, profile, network_id=f"synth-{profile.value}-{bucket.value}-{i:04d}"
                ))
                break
        else:
            raise RuntimeError(
                f"failed to hit bucket {bucket.value} in {max_attempts} attempts"
            )
    return networks
