"""Synthetic cascade generator: structure guarantees and class contrasts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import util

from diffnet import (
    CascadeRecipe,
    ClassProfile,
    Label,
    SizeBucket,
    extract_features,
    generate,
    generate_ensemble,
    mean_audience_size,
    recipe_for,
)
from diffnet.synth import _DOUBLE, _draws, node_count, power_law_audience_sizes


# --- recipe validation ------------------------------------------------------


def test_recipe_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n_cascades"):
        CascadeRecipe(n_cascades=0)
    with pytest.raises(ValueError, match="audience_min"):
        CascadeRecipe(n_cascades=1, audience_min=0)
    with pytest.raises(ValueError, match="audience_min"):
        CascadeRecipe(n_cascades=1, audience_min=10, audience_max=5)
    with pytest.raises(ValueError, match="exponent"):
        CascadeRecipe(n_cascades=1, audience_exponent=1.0)
    with pytest.raises(ValueError, match="reply_prob"):
        CascadeRecipe(n_cascades=1, reply_prob=1.5)
    with pytest.raises(ValueError, match="depth_bias"):
        CascadeRecipe(n_cascades=1, depth_bias=-0.1)


# --- audience sampling ------------------------------------------------------


def test_audience_sizes_stay_in_range():
    rng = np.random.default_rng(0)
    sizes = power_law_audience_sizes(rng, 500, 2.5, 3, 17)
    assert sizes.min() >= 3 and sizes.max() <= 17


def test_steep_exponent_concentrates_on_minimum():
    rng = np.random.default_rng(1)
    sizes = power_law_audience_sizes(rng, 200, 60.0, 1, 40)
    assert np.all(sizes == 1)


def test_mean_audience_size_hand_value():
    # support {1,2,3} with exponent 2: weights 1, 1/4, 1/9
    expected = (1 + 2 / 4 + 3 / 9) / (1 + 1 / 4 + 1 / 9)
    assert mean_audience_size(2.0, 1, 3) == pytest.approx(expected, abs=1e-12)
    assert mean_audience_size(2.5, 7, 7) == 7.0


# --- single-network generation ----------------------------------------------


def test_generate_is_deterministic():
    recipe = CascadeRecipe(n_cascades=20, reply_prob=0.3, depth_bias=0.5, seed=9)
    a = generate(recipe, ClassProfile.CLUSTERED_LIKE)
    b = generate(recipe, ClassProfile.CLUSTERED_LIKE)
    assert a.nodes == b.nodes
    assert a.edges == b.edges
    assert a.tweet_count == b.tweet_count


def test_profiles_carry_their_labels():
    recipe = CascadeRecipe(n_cascades=5, seed=2)
    assert generate(recipe, ClassProfile.BROADCAST_LIKE).label is Label.MAINSTREAM
    assert generate(recipe, ClassProfile.CLUSTERED_LIKE).label is Label.DISINFORMATION


def test_all_zero_probabilities_yield_disjoint_stars():
    recipe = CascadeRecipe(n_cascades=12, audience_min=2, audience_max=9, seed=4)
    net = generate(recipe, ClassProfile.BROADCAST_LIKE)
    fv = extract_features(net)
    assert fv.wcc == 12
    assert fv.cc == 0.0
    assert fv.kc == 1
    assert fv.dwcc <= 2
    assert fv.scc == net.n_nodes  # no closure events, so no cycles
    assert fv.lscc == 1
    # every event has a fresh actor, so nodes == tweets and edges == retweets
    assert net.tweet_count == net.n_nodes
    assert net.n_edges == net.n_nodes - 12


def test_node_count_is_cascades_plus_audience():
    recipe = CascadeRecipe(
        n_cascades=15, audience_min=3, audience_max=3, reply_prob=1.0,
        depth_bias=1.0, reciprocity_prob=1.0, seed=5,
    )
    net = generate(recipe, ClassProfile.CLUSTERED_LIKE)
    # closure events reuse existing users, so the count stays exact
    assert net.n_nodes == 15 * (1 + 3)


def test_reciprocity_creates_nontrivial_strong_components():
    recipe = CascadeRecipe(n_cascades=10, audience_min=4, audience_max=10,
                           reciprocity_prob=1.0, seed=6)
    fv = extract_features(generate(recipe, ClassProfile.CLUSTERED_LIKE))
    assert fv.lscc >= 2


def test_reply_closure_creates_triangles():
    recipe = CascadeRecipe(n_cascades=6, audience_min=10, audience_max=20,
                           reply_prob=1.0, depth_bias=1.0, seed=7)
    fv = extract_features(generate(recipe, ClassProfile.CLUSTERED_LIKE))
    assert fv.cc > 0.0
    assert fv.kc >= 2


def test_cross_cascade_links_merge_components():
    recipe = CascadeRecipe(n_cascades=8, mention_prob=1.0, seed=8)
    fv = extract_features(generate(recipe, ClassProfile.CLUSTERED_LIKE))
    assert fv.wcc < 8


_PROBABILITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def recipes(draw):
    """Recipes of 1-6 cascades: power-law audiences, or hub shapes whose
    audiences all have one size of up to 600."""
    if draw(st.booleans()):
        lo = draw(st.integers(1, 30))
        hi = draw(st.integers(lo, 60))
    else:
        lo = hi = draw(st.integers(1, 600))
    return CascadeRecipe(
        n_cascades=draw(st.integers(1, 6)),
        audience_exponent=draw(st.floats(1.1, 4.0)),
        audience_min=lo,
        audience_max=hi,
        reply_prob=draw(_PROBABILITIES),
        mention_prob=draw(_PROBABILITIES),
        quote_prob=draw(_PROBABILITIES),
        depth_bias=draw(_PROBABILITIES),
        reciprocity_prob=draw(_PROBABILITIES),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@given(recipes(), st.sampled_from(ClassProfile))
def test_generate_matches_event_stream_oracle(recipe, profile):
    net = generate(recipe, profile)
    # dataclass equality: id, nodes, edges, label, bias and tweet_count
    assert net == util.oracle_generate(recipe, profile)
    assert node_count(recipe) == net.n_nodes


@pytest.mark.parametrize("bucket", [SizeBucket.D_0_100, SizeBucket.D_100_1000])
@pytest.mark.parametrize("seed", [0, 7])
def test_ensemble_matches_oracle_that_builds_every_attempt(bucket, seed):
    for profile in ClassProfile:
        assert generate_ensemble(profile, bucket, 8, seed=seed) == util.oracle_generate_ensemble(
            profile, bucket, 8, seed=seed
        )


_STREAM_RANGES = (1, 2, 3, 7, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1)


@pytest.mark.parametrize("spare_on_entry", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_draws_match_numpy_random_and_integers(seed, spare_on_entry):
    # k = 2**31 + 1 and 3 * 2**30 reject about a half and a quarter of
    # their 32-bit draws, a loop the generator oracle test practically
    # never reaches
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if spare_on_entry:
        assert rng.integers(5) == twin.integers(5)  # keeps the high half
    assert rng.bit_generator.state["has_uint32"] == spare_on_entry
    word, integers = _draws(rng.bit_generator)
    ops = np.random.default_rng([seed, 1]).integers(0, len(_STREAM_RANGES) + 1, size=3000)
    for op in ops.tolist():
        if op == len(_STREAM_RANGES):
            assert (word() >> 11) * _DOUBLE == twin.random()
        else:
            k = _STREAM_RANGES[op]
            assert integers(k) == twin.integers(k)


class _RepeatingWord:
    """A stand-in bit generator whose every 64-bit output is ``word``."""

    state = {"has_uint32": 0, "uinteger": 0}

    def __init__(self, word: int):
        self.word = word

    def random_raw(self, size: int) -> np.ndarray:
        return np.full(size, self.word, dtype=np.uint64)


def test_draws_reject_just_below_the_lemire_threshold():
    # k = 2**31 + 1 rejects while the low half of draw * k is below
    # (2**32 - k) % k = 2**31 - 1; an even draw x leaves x itself. The low
    # half 2**31 - 2 is rejected, and the spare high half 2**31 accepted.
    k = 2**31 + 1
    _, integers = _draws(_RepeatingWord(2**31 << 32 | (2**31 - 2)))
    assert integers(k) == (2**31 * k) >> 32 == 2**30


def test_draws_reject_ranges_numpy_draws_another_way():
    _, integers = _draws(np.random.default_rng(0).bit_generator)
    for k in (0, 2**32, 2**40):
        with pytest.raises(ValueError, match="k must be"):
            integers(k)


def test_custom_network_id_flows_through():
    recipe = CascadeRecipe(n_cascades=3, seed=1)
    net = generate(recipe, ClassProfile.BROADCAST_LIKE, network_id="my-net")
    assert net.network_id == "my-net"


# --- calibrated presets and ensembles ---------------------------------------


def test_recipe_for_tracks_target_size():
    for profile in ClassProfile:
        for target in (60, 300, 1500):
            recipe = recipe_for(profile, target, seed=3)
            n = generate(recipe, profile).n_nodes
            assert 0.3 * target < n < 3.0 * target


def test_recipe_for_rejects_tiny_targets():
    with pytest.raises(ValueError, match="target_nodes"):
        recipe_for(ClassProfile.BROADCAST_LIKE, 1)


def test_ensemble_members_land_in_bucket():
    nets = generate_ensemble(ClassProfile.BROADCAST_LIKE, SizeBucket.D_0_100, 12, seed=0)
    assert len(nets) == 12
    ids = [n.network_id for n in nets]
    assert len(set(ids)) == 12
    assert all(i.startswith("synth-broadcast_like-0-100-") for i in ids)
    for net in nets:
        assert SizeBucket.from_node_count(net.n_nodes) is SizeBucket.D_0_100
        assert net.n_nodes >= 55
        assert net.tweet_count >= net.n_nodes  # keeps the >= 50 tweet filter satisfied


def test_ensemble_is_deterministic():
    a = generate_ensemble(ClassProfile.CLUSTERED_LIKE, SizeBucket.D_100_1000, 4, seed=5)
    b = generate_ensemble(ClassProfile.CLUSTERED_LIKE, SizeBucket.D_100_1000, 4, seed=5)
    for x, y in zip(a, b):
        assert x.network_id == y.network_id
        assert x.edges == y.edges


def test_ensemble_unreachable_bucket_raises():
    with pytest.raises(RuntimeError, match="attempts"):
        generate_ensemble(
            ClassProfile.BROADCAST_LIKE, SizeBucket.D_0_100, 1, seed=0,
            min_nodes=150, max_attempts=10,
        )
    with pytest.raises(ValueError, match="bucket"):
        generate_ensemble(ClassProfile.BROADCAST_LIKE, SizeBucket.D_ALL, 1)


def test_class_profiles_contrast_structurally():
    """The calibrated presets must separate along clustering, coreness, and
    component structure; the classifier benchmarks lean on this contrast."""
    broadcast = generate_ensemble(ClassProfile.BROADCAST_LIKE, SizeBucket.D_0_100, 15, seed=1)
    clustered = generate_ensemble(ClassProfile.CLUSTERED_LIKE, SizeBucket.D_0_100, 15, seed=2)
    fb = [extract_features(n) for n in broadcast]
    fc = [extract_features(n) for n in clustered]
    assert np.median([f.cc for f in fc]) > np.median([f.cc for f in fb])
    assert np.median([f.kc for f in fc]) >= 2
    assert np.median([f.kc for f in fb]) <= 1
    assert np.median([f.wcc for f in fb]) > np.median([f.wcc for f in fc])
    assert np.median([f.lwcc for f in fc]) > np.median([f.lwcc for f in fb])
