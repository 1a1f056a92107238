import importlib.util
import random
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from steinhaus import (
    BitSeq,
    CeilingExceeded,
    LadderEnds,
    ladder_ends,
    level_sets,
    predicted_level,
)
from steinhaus import ends as ends_mod
from steinhaus import verify as verify_mod
from steinhaus.ends import _split_bound, _thresholds, ladder_ends_batch, mix_bound
from steinhaus.families import _fixture_rows
from steinhaus.symmetry import invert_i, rot_r

from conftest import rejection


@cache
def swept(n):
    """Levels 0..3, m-1 and m with every member, from the full sweep."""
    return level_sets(n, 3, 2, cap=1 << n)


def assert_same_ends(got: LadderEnds, sweep):
    for search, exhaustive in ((got.low, sweep.low), (got.high, sweep.high)):
        assert [(s.weight, s.count, s.members, s.truncated) for s in search] == \
            [(s.weight, s.count, s.members, s.truncated) for s in exhaustive]


def row_step_weights(values, n):
    """Triangle weight of each packed generator of length n, by vectorised row steps."""
    values = np.asarray(values, dtype=np.uint64)
    w = np.zeros(len(values), dtype=np.int64)
    for m in range(n, 0, -1):
        w += np.bitwise_count(values)
        values = (values ^ values >> np.uint64(1)) & np.uint64((1 << (m - 1)) - 1)
    return w


def mixed_max(k, l):
    """M(k, l) by brute force: the largest weight(x) - A[lo] - B[hi] over all
    generators of length k + l."""
    x = np.arange(1 << (k + l), dtype=np.uint64)
    lo, hi = x & np.uint64((1 << k) - 1), x >> np.uint64(k)
    return int((row_step_weights(x, k + l) - row_step_weights(lo, k)
                - row_step_weights(hi, l)).max())


def prefixes_passing(n, passes):
    """How many prefixes of lengths 1..n pass ``passes(k, A)`` with every
    shorter prefix of theirs, where A is the prefix's own triangle weight."""
    alive, total = np.ones(1, dtype=bool), 0
    for k in range(1, n + 1):
        values = np.arange(1 << k, dtype=np.uint64)
        alive = np.tile(alive, 2) & passes(k, row_step_weights(values, k))
        total += int(alive.sum())
    return total


class TestAgainstTheSweep:
    @pytest.mark.parametrize("n", range(1, 23))
    def test_default_split(self, n):
        assert_same_ends(ladder_ends(n, 3, 2, cap=1 << n), swept(n))

    @pytest.mark.parametrize("n", range(4, 23))
    def test_another_split_in_small_blocks(self, n, monkeypatch):
        # Looser bounds prune less but must find the same ends: M past 4 x 4
        # from the splits, and every open entry of T(x_k..x_{n-1}) counted as one.
        monkeypatch.setattr(ends_mod, "_EXACT_MIX", 4)
        monkeypatch.setattr(ends_mod, "_top_weight", lambda l: l * (l + 1) // 2)
        mix_bound.cache_clear()
        try:
            assert_same_ends(ladder_ends(n, 3, 2, cap=1 << n), swept(n))
        finally:
            mix_bound.cache_clear()

    @pytest.mark.parametrize("n", range(12, 17))
    def test_with_the_bound_in_place_of_the_table(self, n, monkeypatch):
        monkeypatch.setattr(ends_mod, "_EXACT_MIX", 4)
        mix_bound.cache_clear()
        try:
            assert mix_bound(n // 2, n - n // 2) > int(
                _fixture_rows("mixed_grid_max.txt")[n // 2 - 1][n - n // 2 - 1])
            assert_same_ends(ladder_ends(n, 3, 2, cap=1 << n), swept(n))
        finally:
            mix_bound.cache_clear()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_whole_ladders(self, n):
        top = n * (n + 1) // 2
        whole = level_sets(n, top, 0, cap=1 << n)
        assert len(whole.low) == whole.spectrum.m + 1
        assert_same_ends(ladder_ends(n, top, 0, cap=1 << n), whole)
        capped = ladder_ends(n, top, 0, cap=1)
        assert [(s.weight, s.count) for s in capped.low] == \
            [(s.weight, s.count) for s in whole.low]
        assert all(len(s.members) == 1 for s in capped.low)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_weight_slices(self, n):
        # the least, a middle and the greatest weight, one that no generator has,
        # and 2n - 3, the weight the bottom search starts from
        counts = level_sets(n, 0, 0).spectrum.counts
        seen = [w for w, c in enumerate(counts) if c]
        absent = [w for w, c in enumerate(counts) if not c][:1]
        weights = sorted({seen[0], seen[len(seen) // 2], seen[-1], *absent,
                          max(2 * n - 3, 0)})
        for low, high in ((0, 0), (3, 2)):
            sweep = level_sets(n, low, high, weights=weights, cap=1 << n)
            got = ladder_ends(n, low, high, weights=weights + weights[:1], cap=1 << n)
            assert_same_ends(got, sweep)
            assert {w: (s.weight, s.count, s.members, s.truncated)
                    for w, s in got.slices.items()} == \
                {w: (s.weight, s.count, s.members, s.truncated)
                 for w, s in sweep.slices.items()}

    def test_thresholds_step_by_doubling_to_the_floor(self):
        assert list(_thresholds(17, 0)) == [17, 16, 14, 10, 2, 0]
        assert list(_thresholds(-5, -10)) == [-5, -6, -8, -10]
        assert list(_thresholds(-10, -10)) == [-10]

    def test_level_counts_and_caps(self):
        got = ladder_ends(10, 1, 1, cap=2)
        assert [s.weight for s in got.low] == [0, 10]
        assert [s.weight for s in got.high] == [37]
        assert got.low[1].count == 3 and got.low[1].truncated and len(got.low[1].members) == 2
        assert ladder_ends(10, 0, 3).low == []
        assert ladder_ends(10, 2, 0).high == []

    def test_short_ladders_are_clamped(self):
        got = ladder_ends(2, 3, 5)
        assert [s.weight for s in got.low] == [0, 2]
        assert [s.weight for s in got.high] == [2, 0]

    # the search and the sweep check a request alike, up to their own size limits
    @pytest.mark.parametrize("entry, limit", [(ladder_ends, 64), (level_sets, 40)],
                             ids=["ladder_ends", "level_sets"])
    def test_bad_arguments(self, entry, limit):
        assert rejection(lambda: entry(10, -1, 2)) == \
            (ValueError, "level counts must be nonnegative")
        for weight in (-1, 56):
            assert rejection(lambda: entry(10, 3, 2, weights=[weight])) == \
                (ValueError, f"weights [{weight}] are not all possible for size 10")
        assert rejection(lambda: entry(10, 3, 2, cap=-1)) == \
            (ValueError, "member cap must be nonnegative")
        kind, message = rejection(lambda: entry(31, 3, 2))
        assert kind is CeilingExceeded and "enumeration ceiling" in message
        assert rejection(lambda: entry(limit + 1, 3, 2, force=True)) == \
            (CeilingExceeded, f"n={limit + 1} exceeds the engine limit of {limit}")

    def test_past_the_sweep_matches_the_predictions(self):
        got = ladder_ends(26, 3, 2)
        for token, piece in (("1", got.low[1]), ("2", got.low[2]), ("3", got.low[3]),
                             ("m", got.high[0]), ("m-1", got.high[1])):
            prediction = predicted_level(token, 26)
            assert (piece.weight, frozenset(piece.members)) == \
                (prediction.value, prediction.member_set), token


class TestSearch:
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_every_threshold_keeps_exactly_the_generators_past_it(self, n):
        # at every t, not only those ladder_ends starts from: below n - 1 the
        # bottom bound must still keep 0...0, whose open entries are all zero
        values = np.arange(1 << n, dtype=np.uint64)
        weights = row_step_weights(values, n)
        for t in range(n * (n + 1) // 2 + 1):
            for top in (False, True):
                d, a, _ = ends_mod._search([(n, t, top)])[0]
                past = values[weights >= t if top else weights <= t]
                assert sorted(d.tolist()) == past.tolist(), (t, top)
                assert (a == weights[d.astype(np.int64)]).all(), (t, top)

    @pytest.mark.parametrize("budget", [1, 40, 1 << 16])
    def test_one_frontier_for_every_threshold_and_size(self, budget, monkeypatch):
        # Both ends at every threshold and at sizes 0..10, shuffled into one
        # batch, each request alone, and with every frontier, a lone request's
        # too, split down to one prefix (budget 1) or now and then (budget 40).
        requests = [(n, t, top) for n in range(11) for t in range(-1, n * (n + 1) // 2 + 2)
                    for top in (False, True)]
        random.Random(budget).shuffle(requests)
        alone = [ends_mod._search([request])[0] for request in requests]
        monkeypatch.setattr(ends_mod, "_BATCH_PREFIXES", budget)
        split_alone = [ends_mod._search([request])[0] for request in requests]
        for (n, t, top), (d, a, kept), (d2, a2, kept2), (d1, a1, kept1) in zip(
                requests, ends_mod._search(requests), split_alone, alone):
            want = sorted(zip(d1.tolist(), a1.tolist()))
            assert sorted(zip(d.tolist(), a.tolist())) == want, (n, t, top)
            assert sorted(zip(d2.tolist(), a2.tolist())) == want, (n, t, top)
            assert kept == kept2 == kept1, (n, t, top)

    def test_a_deep_search_runs_in_bounded_memory(self):
        # Unsplit, the widest depth of this search weighs about 1.4 million
        # children and traces about 30 MB; split at _BATCH_PREFIXES, at most
        # one half waits per depth.
        tracemalloc.start()
        try:
            d, _, kept = ends_mod._search([(40, 128, False)])[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (kept, len(d)) == (2_448_875, 251)
        assert peak < 16 << 20, peak


class TestPastTheSweep:
    def test_top_levels_match_the_fixture_and_the_predictions(self):
        # rows: n, then weight, count and least member of level m and of m-1
        text = (Path(__file__).parent / "fixtures" / "ladder_top_31_64.txt").read_text()
        rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
        assert [int(row[0]) for row in rows] == list(range(31, 65))
        for n, *levels in rows:
            n = int(n)
            want = [(int(w), int(c), least) for w, c, least in (levels[:3], levels[3:])]
            got = ladder_ends(n, 0, 2, cap=1, force=True)
            assert [(s.weight, s.count, str(s.members[0])) for s in got.high] == want, n
            for token, row in zip(("m", "m-1"), want):
                prediction = predicted_level(token, n)
                least = min(prediction.member_set, key=lambda y: y.bits)
                assert (prediction.value, len(prediction.member_set), str(least)) == row, \
                    (n, token)


class TestCandidates:
    @pytest.mark.parametrize("n", [16, 17])
    def test_every_pair_that_passes_is_weighed_once(self, n):
        # One round at each end: the first thresholds hold enough levels here.
        # A prefix of length k has l = n - k entries of x left, so a nonzero
        # one (A > 0) has a one in each of l diagonals to come; W_m(l) is
        # Harborth's ceil(l(l+1)/3).
        top = -(-n * n // 3)
        expected = (
            prefixes_passing(n, lambda k, a: a + (n - k) * (a > 0) <= 2 * n - 3),
            prefixes_passing(n, lambda k, a: a + -(-(n - k) * (n - k + 1) // 3)
                             + mix_bound(k, n - k) >= top))
        assert ladder_ends(n, 3, 2).weighed == expected


def harborth(n):
    return -(-n * (n + 1) // 3)


class TestTopWeights:
    def test_each_comes_from_a_top_search_and_is_harborths(self, monkeypatch):
        requests = []
        search = ends_mod._search

        def recorded(batch):
            requests.extend(batch)
            return search(batch)

        monkeypatch.setattr(ends_mod, "_search", recorded)
        got = ladder_ends_batch([(l, 0, 1, []) for l in range(1, 25)])
        assert [e.high[0].weight for e in got] == [harborth(l) for l in range(1, 25)]
        # one request per size asked for, none for a size below it
        assert sorted(n for n, _, _ in requests) == list(range(1, 25))
        del requests[:]
        assert ladder_ends(24, 0, 1).high[0].weight == harborth(24)
        assert [n for n, _, _ in requests] == [24]

    def test_a_result_does_not_depend_on_earlier_searches(self):
        spec = importlib.util.find_spec("steinhaus.ends")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        ladder_ends(30, 0, 1)
        assert summary(fresh.ladder_ends(24, 3, 2)) == summary(ladder_ends(24, 3, 2))

    @pytest.mark.parametrize("change", [-1, 1], ids=["one-too-low", "one-too-high"])
    @pytest.mark.parametrize("l0", [1, 7, 24])
    def test_a_wrong_closed_form_raises(self, l0, change, monkeypatch):
        # The top search at l0 bounds its open triangles at sizes below l0
        # only, so it finds the true W_m, and the check against the wrong
        # value raises.
        monkeypatch.setattr(ends_mod, "_harborth", lambda n: harborth(n) + change * (n == l0))
        with pytest.raises(ValueError, match=f"ladder search at n={l0}: the greatest weight "
                                             f"is {harborth(l0)}, not Harborth's "
                                             f"{harborth(l0) + change}"):
            ladder_ends(l0, 0, 1)


def verify_requests(sizes):
    """The ladder ends ``verify_all`` asks for: levels 0..3, m and m-1, and
    the exact weights its checks read."""
    return [(n, 3, 2, [c.weight(n) for c in verify_mod._CHECKS if c.weight and c.applies(n)])
            for n in sizes]


def summary(ends: LadderEnds):
    pieces = [*ends.low, *ends.high, *ends.slices.values()]
    return ([(s.weight, s.count, s.members, s.truncated) for s in pieces],
            sorted(ends.slices), ends.weighed)


class TestBatch:
    @pytest.mark.parametrize("cap", [1, 1 << 24], ids=["cap-1", "uncapped"])
    def test_one_call_for_every_size_matches_one_call_per_size(self, cap):
        requests = verify_requests(range(1, 25))
        alone = [ladder_ends(n, low, high, weights=weights, cap=cap)
                 for n, low, high, weights in requests]
        assert [summary(e) for e in ladder_ends_batch(requests, cap=cap)] == \
            [summary(e) for e in alone]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_order_and_splits_change_nothing(self, seed, monkeypatch):
        requests = verify_requests(range(1, 25)) + [(9, 45, 0, []), (3, 0, 6, [5])]
        alone = [summary(ladder_ends(n, low, high, weights=weights))
                 for n, low, high, weights in requests]
        order = list(range(len(requests)))
        random.Random(seed).shuffle(order)
        monkeypatch.setattr(ends_mod, "_BATCH_PREFIXES", 1)
        got = ladder_ends_batch([requests[i] for i in order])
        assert [summary(got[order.index(i)]) for i in range(len(requests))] == alone

    def test_every_end_joins_the_first_wave(self, monkeypatch):
        waves = []
        search = ends_mod._search

        def recorded(requests):
            waves.append(requests)
            return search(requests)

        monkeypatch.setattr(ends_mod, "_search", recorded)
        requests = verify_requests(range(4, 25))
        first = ladder_ends_batch(requests)
        assert sorted((n, top) for n, _, top in waves[0]) == \
            sorted((n, top) for n in range(4, 25) for top in (False, True))
        tops = [(n, t) for wave in waves for n, t, top in wave if top]
        assert sorted({n for n, _ in tops}) == list(range(4, 25))
        for n in range(4, 25):  # each threshold once, in order
            ts = [t for m, t in tops if m == n]
            assert ts == _thresholds(-(-n * n // 3), 0)[:len(ts)], n
        first_waves = waves[:]
        del waves[:]
        second = ladder_ends_batch(requests)
        assert waves == first_waves
        assert [summary(e) for e in second] == [summary(e) for e in first]

    def test_sizes_are_checked_before_any_search(self, monkeypatch):
        def no_search(requests):
            raise AssertionError("searched before every size was checked")

        monkeypatch.setattr(ends_mod, "_search", no_search)
        assert rejection(lambda: ladder_ends_batch([(10, 3, 2, []), (65, 3, 2, [])],
                                                   force=True)) == \
            (CeilingExceeded, "n=65 exceeds the engine limit of 64")
        assert ladder_ends_batch([]) == []


class TestMixedGridBound:
    def test_table_is_brute_force_to_eight(self):
        for k in range(1, 9):
            for l in range(1, 9):
                assert mix_bound(k, l) == mixed_max(k, l), (k, l)

    def test_table_is_symmetric(self):
        rows = _fixture_rows("mixed_grid_max.txt")
        assert len(rows) == 12 and {len(row) for row in rows} == {12}
        for k in range(1, 13):
            for l in range(1, 13):
                assert mix_bound(k, l) == mix_bound(l, k) == int(rows[k - 1][l - 1])

    def test_splits_bound_the_exact_values(self):
        for k in range(1, 13):
            for l in range(1, 13):
                if k + l > 2:
                    assert _split_bound(k, l) >= mix_bound(k, l), (k, l)

    def test_bound_covers_every_split_of_the_engine(self):
        for n in range(2, ends_mod.SEARCH_LIMIT + 1):
            for k in range(n + 1):
                bound = mix_bound(k, n - k)
                assert 0 <= bound <= k * (n - k)
        assert mix_bound(0, 7) == mix_bound(7, 0) == 0
        assert mix_bound(20, 20) == _split_bound(20, 20)


def corrupt_search(monkeypatch, change):
    """Wrap the search so that ``change(d, a)`` rewrites the last diagonals and
    weights it returns for the bottom end at n = 16: the self-check's input."""
    search = ends_mod._search

    def corrupted(requests):
        out = search(requests)
        return [(*change(d, a), kept) if (n, top) == (16, False) else (d, a, kept)
                for (n, _, top), (d, a, kept) in zip(requests, out)]
    monkeypatch.setattr(ends_mod, "_search", corrupted)


def drop_from_level_2(monkeypatch, images):
    """Corrupt the search at n = 16 so that its level 2, one orbit of six,
    loses its least member y and ``images(y)``."""
    def change(d, a):
        level = np.unique(a)[2]
        y = BitSeq(16, int(d[a == level].min()))
        keep = ~np.isin(d, [z.bits for z in images(y)])
        return d[keep], a[keep]
    corrupt_search(monkeypatch, change)


class TestSelfChecks:
    def test_a_misweighed_member_raises(self, monkeypatch):
        # the zero word reported at weight 1 makes level 0 a level of weight 1
        corrupt_search(monkeypatch, lambda d, a: (d, np.where(d == 0, 1, a)))
        with pytest.raises(ValueError, match="ladder search at n=16: 0{16} has weight 0, not 1"):
            ladder_ends(16, 3, 2)

    def test_a_level_not_closed_under_the_symmetries_raises(self, monkeypatch):
        for images in (lambda y: {y, invert_i(y)},  # closed under invert_i, missing a rot_r image
                       lambda y: {y, rot_r(y), rot_r(rot_r(y))}):  # the reverse
            with monkeypatch.context() as m:
                drop_from_level_2(m, images)
                with pytest.raises(ValueError, match="level of weight 23 is not closed under "
                                                     "the symmetries of"):
                    ladder_ends(16, 3, 2)

    def test_capped_levels_skip_only_the_closure(self, monkeypatch):
        with monkeypatch.context() as m:
            drop_from_level_2(m, lambda y: {y, invert_i(y)})
            got = ladder_ends(16, 3, 2, cap=1)
        assert got.low[2].truncated and got.low[2].count == 4
        # each member of level 2 reported at one more than its weight
        corrupt_search(monkeypatch, lambda d, a: (d, np.where(a == np.unique(a)[2], a + 1, a)))
        with pytest.raises(ValueError, match="has weight 23, not 24"):
            ladder_ends(16, 3, 2, cap=1)
