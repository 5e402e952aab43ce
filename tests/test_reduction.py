import numpy as np
import pytest

from gen import reference_reduce_grid, reference_reduce_lidar, small_alphabet
from ltlnav import reduction
from ltlnav.envs import EnvConfig, Observation
from ltlnav.reduction import (
    FUSIONS, V_AVOID, V_NEUTRAL, V_REACH, reduce, reduce_grid, reduce_lidar,
    reduced_dim,
)
from ltlnav.subgoals import Subgoal, encode_subgoal


def grid_obs(cells):
    return Observation("grid", np.zeros(0), np.asarray(cells, dtype=np.int64))


def lidar_obs(rng, n_props, k=16):
    return Observation("lidar", rng.uniform(-1, 1, size=3),
                       rng.uniform(0, 1, size=(n_props, k)))


def random_subgoal(rng, n_props):
    n_letters = 1 << n_props
    reach = int(rng.integers(1, n_letters))
    pool = [a for a in range(1, n_letters) if a != reach]
    take = int(rng.integers(0, len(pool) + 1))
    avoid = frozenset(int(x) for x in rng.choice(pool, size=take, replace=False))
    return Subgoal(reach, avoid)


def permute_bits(mask, perm):
    out = 0
    for i, p in enumerate(perm):
        if (mask >> i) & 1:
            out |= 1 << p
    return out


def permute_grid_obs(obs, perm):
    ap = obs.ap.copy()
    for i, p in enumerate(perm):
        ap[obs.ap == i] = p
    return Observation("grid", obs.not_ap, ap)


def permute_lidar_obs(obs, perm):
    ap = np.empty_like(obs.ap)
    for i, p in enumerate(perm):
        ap[p] = obs.ap[i]
    return Observation("lidar", obs.not_ap, ap)


def permute_subgoal(sub, perm):
    return Subgoal(permute_bits(sub.reach, perm),
                   frozenset(permute_bits(a, perm) for a in sub.avoid))


class TestGrid:
    def test_reach_avoid_values(self):
        # letters: a=0 b=1 c=2; reach {a}, avoid {{b}}
        obs = grid_obs([[0, 1, -1], [2, -1, 0], [-1, -1, 1]])
        out = reduce_grid(obs, Subgoal(1, frozenset({2})), 3)
        want = np.array([[1, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
        assert np.array_equal(out, want)

    def test_empty_avoid_no_negative_cells(self):
        obs = grid_obs([[0, 1], [2, -1]])
        out = reduce_grid(obs, Subgoal(1, frozenset()), 3)
        assert not (out < 0).any()

    def test_avoid_wins_over_reach(self):
        obs = grid_obs([[0, 1]])
        out = reduce_grid(obs, Subgoal(3, frozenset({1})), 3)
        assert np.array_equal(out, np.array([[V_AVOID, V_REACH]]))

    def test_multi_letter_reach(self):
        obs = grid_obs([[0, 1, 2]])
        out = reduce_grid(obs, Subgoal(3, frozenset()), 3)
        assert np.array_equal(out, np.array([[1.0, 1.0, 0.0]]))


class TestLidar:
    def test_single_avoid_passthrough(self):
        rng = np.random.default_rng(0)
        obs = lidar_obs(rng, 4)
        out = reduce_lidar(obs, Subgoal(1, frozenset({4})))
        k = obs.ap.shape[1]
        assert np.array_equal(out[:3], obs.not_ap)
        assert np.array_equal(out[3:3 + k], obs.ap[0])
        assert np.array_equal(out[3 + k:], obs.ap[2])

    def test_avoid_fusion_is_elementwise_max(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            obs = lidar_obs(rng, 4)
            sub = Subgoal(1, frozenset({2, 4}))
            out = reduce_lidar(obs, sub)
            k = obs.ap.shape[1]
            assert np.array_equal(out[3 + k:],
                                  np.maximum(obs.ap[1], obs.ap[2]))

    def test_multi_prop_reach_is_elementwise_min(self):
        rng = np.random.default_rng(2)
        obs = lidar_obs(rng, 4)
        out = reduce_lidar(obs, Subgoal(3, frozenset()))
        k = obs.ap.shape[1]
        assert np.array_equal(out[3:3 + k], np.minimum(obs.ap[0], obs.ap[1]))

    def test_empty_avoid_zero_channel(self):
        rng = np.random.default_rng(3)
        obs = lidar_obs(rng, 4)
        out = reduce_lidar(obs, Subgoal(2, frozenset()))
        k = obs.ap.shape[1]
        assert np.array_equal(out[3 + k:], np.zeros(k))

    def test_fused_avoid_dominates_contributors(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            obs = lidar_obs(rng, 5)
            sub = random_subgoal(rng, 5)
            if not sub.avoid:
                continue
            k = obs.ap.shape[1]
            fused = reduce_lidar(obs, sub)[3 + k:]
            per = [np.min([obs.ap[i] for i in range(5) if (a >> i) & 1], axis=0)
                   for a in sub.avoid]
            assert np.array_equal(fused, np.max(per, axis=0))

    def test_monotone_inputs_give_monotone_fusion(self):
        rng = np.random.default_rng(5)
        k = 8
        for _ in range(30):
            # rows nondecreasing along a motion path of length 10
            path = np.sort(rng.uniform(0, 1, size=(10, 3, k)), axis=0)
            sub = Subgoal(1, frozenset({2, 4}))
            outs = [reduce_lidar(Observation("lidar", np.zeros(3), ap), sub)
                    for ap in path]
            for a, b in zip(outs, outs[1:]):
                assert np.all(b[3:] >= a[3:] - 1e-12)

    def test_mask_out_of_range(self):
        obs = lidar_obs(np.random.default_rng(6), 3)
        with pytest.raises(ValueError):
            reduce_lidar(obs, Subgoal(8, frozenset()))
        with pytest.raises(ValueError):
            reduce_lidar(obs, Subgoal(1, frozenset({9})))


def numpy_fields(sub):
    return Subgoal(np.int64(sub.reach),
                   frozenset(np.int64(a) for a in sub.avoid))


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMatchesReference:
    """reduce builds one plan per subgoal; its output must equal the
    per-call reductions in gen.py byte for byte."""

    def test_grid_random(self):
        rng = np.random.default_rng(20)
        empty = 0
        for _ in range(400):
            n_sub = int(rng.integers(1, 6))
            # view letters past the subgoal's propositions are in neither
            # its reach nor its avoid set
            n_view = n_sub + int(rng.integers(0, 3))
            g = int(rng.choice([3, 5, 7]))
            obs = grid_obs(rng.integers(-1, n_view, size=(g, g)))
            sub = random_subgoal(rng, n_sub)
            empty += not sub.avoid
            if rng.random() < 0.3:
                sub = numpy_fields(sub)
            want = reference_reduce_grid(obs, sub)
            assert_same_bytes(reduce_grid(obs, sub, n_view), want)
            assert_same_bytes(
                reduce(obs, sub, "reduced", small_alphabet(n_view)),
                want.ravel())
        assert empty >= 10

    def test_lidar_random(self):
        rng = np.random.default_rng(21)
        empty = 0
        for _ in range(400):
            n = int(rng.integers(1, 7))
            obs = lidar_obs(rng, n, k=int(rng.choice([4, 8, 16])))
            sub = random_subgoal(rng, n)
            empty += not sub.avoid
            if rng.random() < 0.3:
                sub = numpy_fields(sub)
            want = reference_reduce_lidar(obs, sub)
            assert_same_bytes(reduce_lidar(obs, sub), want)
            assert_same_bytes(reduce(obs, sub, "reduced", small_alphabet(n)),
                              want)
        assert empty >= 10

    def test_numpy_int_fields(self):
        rng = np.random.default_rng(22)
        ab = small_alphabet(4)
        for _ in range(50):
            sub = random_subgoal(rng, 4)
            gobs = grid_obs(rng.integers(-1, 4, size=(5, 5)))
            lobs = lidar_obs(rng, 4)
            for obs in (gobs, lobs):
                want = reduce(obs, sub, "reduced", ab)
                assert_same_bytes(
                    reduce(obs, numpy_fields(sub), "reduced", ab), want)
                assert_same_bytes(reduce(obs, sub, "reduced", ab), want)

    def test_letters_outside_the_subgoal_are_neutral(self):
        # subgoal over a and b; the view also holds c, d and letter 9
        obs = grid_obs([[0, 1, 2], [3, 9, -1]])
        sub = Subgoal(1, frozenset({2}))
        want = np.array([[V_REACH, V_AVOID, V_NEUTRAL],
                         [V_NEUTRAL, V_NEUTRAL, V_NEUTRAL]])
        assert_same_bytes(reduce_grid(obs, sub, 10), want)
        assert_same_bytes(reference_reduce_grid(obs, sub), want)
        # a letter past the alphabet has no table entry
        with pytest.raises(IndexError):
            reduce_grid(obs, sub, 9)

    @pytest.mark.parametrize("sub", [
        Subgoal(8, frozenset()), Subgoal(0, frozenset()),
        Subgoal(1, frozenset({9})), Subgoal(1, frozenset({2, 0})),
        Subgoal(np.int64(8), frozenset({np.int64(2)})),
    ], ids=["reach-high", "reach-empty", "avoid-high", "avoid-empty",
            "numpy-reach-high"])
    def test_invalid_subgoal_raises_on_every_call(self, sub):
        rng = np.random.default_rng(23)
        lobs = lidar_obs(rng, 3)
        gobs = grid_obs(rng.integers(-1, 3, size=(5, 5)))
        ab = small_alphabet(3)
        for _ in range(3):
            for obs in (lobs, gobs):
                for fusion in FUSIONS:
                    with pytest.raises(ValueError, match="out of range"):
                        reduce(obs, sub, fusion, ab)
            with pytest.raises(ValueError):
                reduce_grid(gobs, sub, 3)
            with pytest.raises(ValueError):
                reference_reduce_lidar(lobs, sub)

    def test_plan_is_per_proposition_count(self):
        # invalid over 3 propositions, valid over 4
        sub = Subgoal(8, frozenset({9}))
        narrow = lidar_obs(np.random.default_rng(24), 3)
        wide = lidar_obs(np.random.default_rng(24), 4)
        view = grid_obs(np.random.default_rng(24).integers(-1, 3, size=(5, 5)))
        for _ in range(2):
            with pytest.raises(ValueError):
                reduce(narrow, sub, "reduced", small_alphabet(3))
            assert_same_bytes(reduce(wide, sub, "reduced", small_alphabet(4)),
                              reference_reduce_lidar(wide, sub))
            # the same letters, under a three- and a four-letter alphabet
            with pytest.raises(ValueError):
                reduce_grid(view, sub, 3)
            assert_same_bytes(reduce_grid(view, sub, 4),
                              reference_reduce_grid(view, sub))

    def test_plan_built_once_per_subgoal(self):
        rng = np.random.default_rng(25)
        ab = small_alphabet(4)
        sub = Subgoal(5, frozenset({2, 8, 10}))
        reduce(lidar_obs(rng, 4), sub, "reduced", ab)
        before = reduction._lidar_mask.cache_info()
        for _ in range(5):
            reduce(lidar_obs(rng, 4), Subgoal(5, frozenset({2, 8, 10})),
                   "reduced", ab)
        after = reduction._lidar_mask.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 5

    def test_grid_plan_built_once_per_subgoal_and_size(self):
        rng = np.random.default_rng(26)
        view = lambda: grid_obs(rng.integers(-1, 4, size=(5, 5)))
        sub = Subgoal(5, frozenset({2, 8, 10}))
        reduce(view(), sub, "reduced", small_alphabet(4))
        before = reduction._grid_table.cache_info()
        for _ in range(5):
            reduce(view(), Subgoal(5, frozenset({2, 8, 10})), "reduced",
                   small_alphabet(4))
        after = reduction._grid_table.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 5
        # the same subgoal over five letters is another plan
        reduce(view(), sub, "reduced", small_alphabet(5))
        assert reduction._grid_table.cache_info().misses == after.misses + 1


class TestEquivariance:
    def test_grid_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            obs = grid_obs(rng.integers(-1, n, size=(5, 5)))
            sub = random_subgoal(rng, n)
            perm = rng.permutation(n)
            ab = small_alphabet(n)
            assert np.array_equal(
                reduce(permute_grid_obs(obs, perm), permute_subgoal(sub, perm),
                       "reduced", ab),
                reduce(obs, sub, "reduced", ab))

    def test_lidar_permutation(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            obs = lidar_obs(rng, n, k=8)
            sub = random_subgoal(rng, n)
            perm = rng.permutation(n)
            ab = small_alphabet(n)
            assert np.array_equal(
                reduce(permute_lidar_obs(obs, perm), permute_subgoal(sub, perm),
                       "reduced", ab),
                reduce(obs, sub, "reduced", ab))


class TestDispatch:
    def test_raw_mode_layout(self):
        rng = np.random.default_rng(9)
        obs = lidar_obs(rng, 3, k=4)
        sub = Subgoal(1, frozenset({2}))
        ab = small_alphabet(3)
        out = reduce(obs, sub, "raw", ab)
        assert out.shape == (3 + 12 + 3 + 8,)
        assert np.array_equal(out[:3], obs.not_ap)
        assert np.array_equal(out[3:15], obs.ap.ravel())
        assert np.array_equal(out[15:], encode_subgoal(sub, ab))

    def test_kind_mismatch_rejected(self):
        lobs = lidar_obs(np.random.default_rng(11), 3)
        gobs = grid_obs(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            reduce_grid(lobs, Subgoal(1, frozenset()), 3)
        with pytest.raises(ValueError):
            reduce_lidar(gobs, Subgoal(1, frozenset()))

    def test_outputs_are_flat_float(self):
        rng = np.random.default_rng(12)
        gobs = grid_obs(rng.integers(-1, 4, size=(7, 7)))
        lobs = lidar_obs(rng, 4)
        sub = Subgoal(1, frozenset({2}))
        for obs in (gobs, lobs):
            out = reduce(obs, sub, "reduced", small_alphabet(4))
            assert out.ndim == 1 and out.dtype == np.float64


class TestReducedDim:
    def test_constant_in_alphabet_size(self):
        dims = set()
        for n in (4, 6, 10):
            letters = tuple(chr(ord("a") + i) for i in range(n))
            cfg = EnvConfig(env="zonesim", letters=letters)
            dims.add(reduced_dim(cfg))
        assert dims == {3 + 32}
        grid_dims = {
            reduced_dim(EnvConfig(env="letterworld", grid_size=7,
                                  letters=tuple("abcd")[:n],
                                  copies_per_letter=1))
            for n in (2, 4)}
        assert grid_dims == {49}

    def test_raw_grows_with_alphabet(self):
        cfg4 = EnvConfig(env="zonesim")
        letters = ("blue", "green", "magenta", "yellow", "red", "cyan")
        cfg6 = EnvConfig(env="zonesim", letters=letters)
        d4 = reduced_dim(cfg4, "raw")
        d6 = reduced_dim(cfg6, "raw")
        assert d4 == 3 + 4 * 16 + 4 + 16
        assert d6 == 3 + 6 * 16 + 6 + 64
        assert d6 > d4

    def test_matches_actual_outputs(self):
        rng = np.random.default_rng(13)
        cfg = EnvConfig(env="zonesim")
        obs = lidar_obs(rng, 4, k=16)
        sub = Subgoal(1, frozenset({2}))
        from ltlnav.envs import alphabet_for
        ab = alphabet_for(cfg)
        assert reduce(obs, sub, "reduced", ab).shape == (reduced_dim(cfg),)
        raw = reduce(obs, sub, "raw", ab)
        assert raw.shape == (reduced_dim(cfg, "raw"),)
