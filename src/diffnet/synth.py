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
from itertools import chain
from typing import Callable

import numpy as np

from .graphs import Bias, DiffusionNetwork, Label, SizeBucket

__all__ = [
    "CascadeRecipe",
    "ClassProfile",
    "generate",
    "generate_ensemble",
    "mean_audience_size",
    "recipe_for",
]


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


_BLOCK = 256  # words per random_raw call: timing generate, 64-512 were level
_DOUBLE = 2.0**-53  # (word >> 11) * _DOUBLE is what Generator.random() returns
_LOW = 0xFFFFFFFF


def _draws(bit_generator: np.random.BitGenerator) -> tuple[Callable[[], int], Callable[[int], int]]:
    """``(word, integers)`` over the raw output of a PCG64 ``bit_generator``.

    ``word()`` is its next 64-bit output, taken from ``random_raw`` blocks
    of ``_BLOCK`` words, so the generator runs ahead of the words used and
    must not be drawn from again. ``integers(k)`` is
    ``Generator.integers(k)`` for 1 <= k < 2**32, as numpy draws it: k = 1
    takes no draw; otherwise Lemire's method on 32-bit draws, rejecting
    while the low half of draw * k is below (2**32 - k) % k. A 32-bit draw
    is the low half of a fresh word, whose high half is kept as the spare
    for the next 32-bit draw (doubles never touch it); the spare starts as
    the one in ``bit_generator.state``.
    """
    state = bit_generator.state
    spare = state["uinteger"] if state["has_uint32"] else None
    blocks = iter(lambda: bit_generator.random_raw(_BLOCK).tolist(), None)  # never ends
    word = chain.from_iterable(blocks).__next__

    def integers(k: int) -> int:
        nonlocal spare
        if k == 1:
            return 0
        if not 1 < k <= _LOW:
            raise ValueError(f"k must be in [1, 2**32), got {k}")
        while True:
            if spare is None:
                draw = word()
                spare = draw >> 32
                draw &= _LOW
            else:
                draw, spare = spare, None
            m = draw * k
            leftover = m & _LOW
            if leftover >= k or leftover >= (_LOW + 1 - k) % k:
                return m >> 32

    return word, integers


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

    The stream is ``np.random.default_rng(recipe.seed)``: audience sizes by
    ``power_law_audience_sizes``, then per audience member the numbers
    ``rng.random()`` and ``rng.integers`` would give, in the same order,
    computed by ``_draws`` from raw PCG64 words. The tests pin both against
    real numpy calls, so a numpy release that draws differently fails them.
    """
    rng = np.random.default_rng(recipe.seed)
    sizes = power_law_audience_sizes(
        rng, recipe.n_cascades, recipe.audience_exponent, recipe.audience_min, recipe.audience_max
    )
    # the loop below runs once per audience member: its draws come from
    # _draws, the same numbers as rng.random() and rng.integers(k)
    word, integers = _draws(rng.bit_generator)
    double = _DOUBLE
    depth_bias, reply_prob, reciprocity_prob = recipe.depth_bias, recipe.reply_prob, recipe.reciprocity_prob
    mention_prob, quote_prob = recipe.mention_prob, recipe.quote_prob
    parent_of = [0] * (recipe.n_cascades + int(sizes.sum()))
    cascades: list[tuple[int, int]] = []  # (root, member count) per finished cascade
    edges: set[tuple[int, int]] = set()
    tweets = 0
    root = 0
    for size in sizes.tolist():
        for actor in range(root + 1, root + 1 + size):
            if actor - root > 1 and (word() >> 11) * double < depth_bias:
                parent = root + 1 + integers(actor - root - 1)  # rng.integers(1, actor - root)
            else:
                parent = root
            edges.add((parent, actor))  # the retweet
            parent_of[actor] = parent
            # triangle closure: reply to the grandparent alongside the retweet
            if parent != root and (word() >> 11) * double < reply_prob:
                edges.add((parent_of[parent], actor))
                tweets += 1
            # reciprocated arc: the parent replies back to the retweeter
            if (word() >> 11) * double < reciprocity_prob:
                edges.add((actor, parent))
                tweets += 1
            # cross-cascade links merge weak components
            if cascades and (word() >> 11) * double < mention_prob:
                other, members = cascades[integers(len(cascades))]
                edges.add((actor, other + integers(members)))
                tweets += 1
            if cascades and (word() >> 11) * double < quote_prob:
                other, members = cascades[integers(len(cascades))]
                edges.add((other + integers(members), actor))
                tweets += 1
        cascades.append((root, 1 + size))
        tweets += 1 + size
        root += 1 + size

    names = [f"u{i}" for i in range(root)]
    sources, targets = zip(*edges)  # never empty: every audience member retweets
    return DiffusionNetwork(
        network_id=network_id if network_id is not None else f"synth-{profile.value}-{recipe.seed}",
        nodes=frozenset(names),
        edges=frozenset(zip(map(names.__getitem__, sources), map(names.__getitem__, targets))),
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
