"""Tests: the Table-I queries on Spangle match dense-numpy references
and the baseline systems' answers."""

import numpy as np
import pytest

from repro.baselines import RasterFramesSystem, SciDBSystem, SciSparkSystem
from repro.bitmask import Bitmask
from repro.core import ArrayRDD, ChunkMode, SpangleDataset
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.data import sdss_like
from repro.data.raster import sdss_stack
from repro.engine import ClusterContext
from repro.errors import ArrayError
from repro.queries import SpangleRasterQueries, load_spangle_dataset
from repro.queries.ssdb import _merge_windows, _window_partials
from tests._reference.windows import reference_window_counts


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


@pytest.fixture(scope="module")
def bands():
    return sdss_like(4, shape=(96, 96), objects_per_image=30, seed=0)


@pytest.fixture()
def queries(ctx, bands):
    ds = load_spangle_dataset(ctx, bands, chunk_shape=(32, 32, 1))
    return SpangleRasterQueries(ds)


@pytest.fixture(scope="module")
def cube(bands):
    return sdss_stack(bands["u"])


# window 8 tiles the 32-cell chunks (aligned path); window 12 does not,
# so windows straddle chunks and partials merge on the driver; the
# boxes' corners sit off the window grid
WINDOW_CASES = [
    pytest.param(12, None, id="w12"),
    pytest.param(8, ((5, 3, 0), (70, 90, 3)), id="w8-offgrid-box"),
    pytest.param(12, ((5, 3, 1), (70, 90, 2)), id="w12-offgrid-box"),
]


@pytest.fixture(params=["serial", "thread"])
def backend_queries(request, bands):
    context = ClusterContext(num_executors=4, default_parallelism=4,
                             use_threads=request.param == "thread")
    ds = load_spangle_dataset(context, bands, chunk_shape=(32, 32, 1))
    yield SpangleRasterQueries(ds)
    context.shutdown()


def in_box(valid, box):
    if box is None:
        return valid
    (x0, y0, i0), (x1, y1, i1) = box
    sel = np.zeros_like(valid)
    sel[x0:x1 + 1, y0:y1 + 1, i0:i1 + 1] = True
    return valid & sel


@pytest.fixture()
def null_corner_queries(ctx, bands):
    """Every band is null sky in x, y >= 64, so a box there is empty."""
    cleared = {}
    for band, scenes in bands.items():
        cleared[band] = [scene.copy() for scene in scenes]
        for scene in cleared[band]:
            scene[64:, 64:] = np.nan
    ds = load_spangle_dataset(ctx, cleared, chunk_shape=(32, 32, 1))
    return SpangleRasterQueries(ds)


NULL_BOX = ((64, 64, 0), (95, 95, 3))


class TestQ1:
    def test_full(self, queries, cube):
        values, valid = cube
        assert queries.q1_aggregation("u") == pytest.approx(
            values[valid].mean())

    def test_range(self, queries, cube):
        values, valid = cube
        box = ((8, 8, 0), (60, 72, 3))
        sel = np.zeros_like(valid)
        sel[8:61, 8:73, :] = True
        sel &= valid
        assert queries.q1_aggregation("u", box) == pytest.approx(
            values[sel].mean())


class TestQ2:
    def test_windows_match_reference(self, queries, cube):
        values, valid = cube
        result = queries.q2_regrid("u", 8)
        counts = reference_window_counts(valid, 8)
        assert set(result) == set(counts)
        for key in list(result)[:20]:
            img, wr, wc = key
            window_vals = values[wr * 8:(wr + 1) * 8,
                                 wc * 8:(wc + 1) * 8, img]
            window_valid = valid[wr * 8:(wr + 1) * 8,
                                 wc * 8:(wc + 1) * 8, img]
            assert result[key] == pytest.approx(
                window_vals[window_valid].mean())

    @pytest.mark.parametrize("window,box", WINDOW_CASES)
    def test_unaligned_windows_match_reference(self, backend_queries,
                                               cube, window, box):
        values, valid = cube
        sel = in_box(valid, box)
        result = backend_queries.q2_regrid("u", window, box)
        assert set(result) == set(reference_window_counts(sel, window))
        for (img, wr, wc), mean in result.items():
            window_cells = (slice(wr * window, (wr + 1) * window),
                            slice(wc * window, (wc + 1) * window), img)
            assert mean == pytest.approx(
                values[window_cells][sel[window_cells]].mean())

    def test_empty_box(self, null_corner_queries):
        assert null_corner_queries.q2_regrid("u", 8, NULL_BOX) == {}

    def test_window_validation(self, queries):
        with pytest.raises(ArrayError):
            queries.q2_regrid("u", 0)


class TestQ3Q4:
    def test_q3(self, queries, cube):
        values, valid = cube
        mask = valid & (np.where(valid, values, 0) > 1.0)
        got = queries.q3_conditional_aggregation(
            "u", lambda xs: xs > 1.0)
        assert got == pytest.approx(values[mask].mean())

    def test_q4(self, queries, cube):
        values, valid = cube
        inner = valid & (np.where(valid, values, 0) > 0.5)
        final = inner & (np.where(valid, values, 0) > 2.0)
        got = queries.q4_polygons("u", lambda xs: xs > 0.5,
                                  lambda xs: xs > 2.0)
        assert got == int(final.sum())

    def test_q3_with_range(self, queries, cube):
        values, valid = cube
        box = ((0, 0, 0), (47, 47, 3))
        sel = np.zeros_like(valid)
        sel[:48, :48, :] = True
        mask = valid & sel & (np.where(valid, values, 0) > 1.0)
        got = queries.q3_conditional_aggregation(
            "u", lambda xs: xs > 1.0, box=box)
        assert got == pytest.approx(values[mask].mean())


class TestQ5:
    def test_density(self, queries, cube):
        _values, valid = cube
        counts = reference_window_counts(valid, 8)
        expected = sum(1 for n in counts.values() if n > 5)
        assert queries.q5_density("u", 8, 5) == expected

    def test_density_zero_threshold(self, queries, cube):
        _values, valid = cube
        counts = reference_window_counts(valid, 8)
        assert queries.q5_density("u", 8, 0) == len(counts)

    @pytest.mark.parametrize("window,box", WINDOW_CASES)
    @pytest.mark.parametrize("min_count", [0, 5])
    def test_unaligned_windows_match_reference(self, backend_queries,
                                               cube, window, box,
                                               min_count):
        _values, valid = cube
        counts = reference_window_counts(in_box(valid, box), window)
        expected = sum(1 for n in counts.values() if n > min_count)
        assert backend_queries.q5_density("u", window, min_count,
                                          box) == expected

    def test_empty_box(self, null_corner_queries):
        assert null_corner_queries.q5_density("u", 8, 0, NULL_BOX) == 0


class TestCrossSystemAgreement:
    """Spangle and the three baselines answer Table-I queries identically."""

    def test_q1_all_systems(self, ctx, bands, queries, cube):
        values, valid = cube
        expected = values[valid].mean()
        scenes = bands["u"]

        scispark = SciSparkSystem(ctx)
        assert scispark.aggregate_mean(
            scispark.load_scenes(scenes, (32, 32))) \
            == pytest.approx(expected)

        rasterframes = RasterFramesSystem(ctx)
        assert rasterframes.aggregate_mean(
            rasterframes.load_scenes(scenes, (32, 32))) \
            == pytest.approx(expected)

        with SciDBSystem(ctx) as db:
            db.store_scenes("img", scenes, (32, 32))
            assert db.aggregate_mean("img") == pytest.approx(expected)

        assert queries.q1_aggregation("u") == pytest.approx(expected)

    def test_q5_all_systems(self, ctx, bands, queries, cube):
        _values, valid = cube
        scenes = bands["u"]
        spangle = queries.q5_density("u", 8, 5)

        scispark = SciSparkSystem(ctx)
        a = scispark.density_windows(
            scispark.load_scenes(scenes, (32, 32)), 8, 5)

        rasterframes = RasterFramesSystem(ctx)
        b = rasterframes.density_windows(
            rasterframes.load_scenes(scenes, (32, 32)), 8, 5)

        with SciDBSystem(ctx) as db:
            db.store_scenes("img", scenes, (32, 32))
            c = db.density_windows("img", 8, 5)

        assert spangle == a == b == c


class TestMaskRDDPathsAgree:
    def test_q5_with_and_without_maskrdd(self, ctx, bands):
        lazy = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=True))
        eager = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=False))
        assert lazy.q5_density("u", 8, 5) == eager.q5_density("u", 8, 5)

    def test_q4_with_and_without_maskrdd(self, ctx, bands):
        lazy = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=True))
        eager = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=False))
        args = ("u", lambda xs: xs > 0.5, lambda xs: xs > 2.0)
        assert lazy.q4_polygons(*args) == eager.q4_polygons(*args)


# ----------------------------------------------------------------------
# window partials against a dense-numpy oracle
# ----------------------------------------------------------------------

# ragged against (16, 16, 2) chunks in every dimension
ORACLE_SHAPE = (45, 38, 3)
ORACLE_CHUNK = (16, 16, 2)
MODES = [pytest.param(mode, id=mode.name.lower()) for mode in ChunkMode]


def oracle_cube(seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    values = rng.normal(5.0, 2.0, ORACLE_SHAPE)
    return values, rng.random(ORACLE_SHAPE) < density


def window_oracle(values, valid, window, starts=(0, 0, 0)):
    """``{(image, wr, wc): (count, mean)}`` by slicing the dense cube
    window by window over global (floor-divided) coordinates."""
    sx, sy, st = starts
    nx, ny, nt = valid.shape
    out = {}
    for wr in range(sx // window, (sx + nx - 1) // window + 1):
        xs = slice(max(wr * window - sx, 0), (wr + 1) * window - sx)
        for wc in range(sy // window, (sy + ny - 1) // window + 1):
            ys = slice(max(wc * window - sy, 0), (wc + 1) * window - sy)
            for t in range(nt):
                cells = valid[xs, ys, t]
                if cells.any():
                    out[(st + t, wr, wc)] = (
                        int(cells.sum()), values[xs, ys, t][cells].mean())
    return out


def check_windows(dataset, array, expected, window):
    """Q2 means (rtol 1e-12), merged counts and Q5 (exact) vs oracle."""
    queries = SpangleRasterQueries(dataset)
    got = queries.q2_regrid("u", window)
    assert set(got) == set(expected)
    keys = sorted(expected)
    np.testing.assert_allclose([got[k] for k in keys],
                               [expected[k][1] for k in keys], rtol=1e-12)
    merged_keys, _sums, counts = _merge_windows(
        _window_partials(array, window).collect(), array.meta, window)
    assert dict(zip(map(tuple, merged_keys.tolist()), counts.tolist())) \
        == {key: count for key, (count, _mean) in expected.items()}
    for min_count in (0, 3, 10):
        assert queries.q5_density("u", window, min_count) == sum(
            count > min_count for count, _mean in expected.values())


class TestWindowOracle:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", [5, 8, 16])
    def test_forced_modes(self, ctx, mode, window):
        values, valid = oracle_cube()
        array = ArrayRDD.from_numpy(ctx, values, ORACLE_CHUNK, valid=valid,
                                    mode=mode)
        assert {c.mode for _id, c in array.rdd.collect()} == {mode}
        expected = window_oracle(values, valid, window)
        assert {key: count for key, (count, _mean) in expected.items()} \
            == reference_window_counts(valid, window)
        check_windows(SpangleDataset({"u": array}), array, expected,
                      window)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("starts", [(-7, -13, -2), (3, -5, 4)])
    def test_negative_starts(self, ctx, mode, starts):
        values, valid = oracle_cube(seed=1)
        array = ArrayRDD.from_numpy(ctx, values, ORACLE_CHUNK, valid=valid,
                                    mode=mode, starts=starts)
        check_windows(SpangleDataset({"u": array}), array,
                      window_oracle(values, valid, 6, starts), 6)

    @pytest.mark.parametrize("mode", MODES)
    def test_after_mask_rdd_filter(self, ctx, mode):
        values, valid = oracle_cube(seed=2, density=0.9)
        array = ArrayRDD.from_numpy(ctx, values, ORACLE_CHUNK, valid=valid,
                                    mode=mode)
        dataset = SpangleDataset({"u": array}).filter("u",
                                                      lambda xs: xs > 5.0)
        expected = window_oracle(values, valid & (values > 5.0), 5)
        check_windows(dataset, dataset.evaluate("u"), expected, 5)

    def test_dense_payload_stale_under_cleared_bits(self, ctx):
        """A DENSE payload keeps its values under bits a filter cleared;
        only the valid cells may reach the window sums."""
        values, valid = oracle_cube(seed=3, density=0.9)
        keep = valid & (values > 5.0)
        meta = ArrayMetadata(ORACLE_SHAPE, ORACLE_CHUNK,
                             dim_names=("x", "y", "image"))
        source = ArrayRDD.from_numpy(ctx, values, ORACLE_CHUNK, valid=valid,
                                     mode=ChunkMode.DENSE)
        cleared = dict(SpangleDataset({"u": source}).filter(
            "u", lambda xs: xs > 5.0).mask.rdd.collect())
        records = []
        for chunk_id, chunk in source.rdd.collect():
            stale = Chunk(ChunkMode.DENSE, chunk.payload,
                          chunk.mask & cleared.get(
                              chunk_id, Bitmask.zeros(chunk.num_cells)),
                          chunk.num_cells)
            assert stale.payload[~stale.valid_bools()].any()
            records.append((chunk_id, stale))
        array = ArrayRDD.from_chunks(ctx, records, meta)
        check_windows(SpangleDataset({"u": array}), array,
                      window_oracle(values, keep, 5), 5)

    def test_window_ids_overflow_raises(self, ctx):
        huge = ArrayMetadata((2 ** 31, 2 ** 31, 2), (128, 128, 1))
        with pytest.raises(ArrayError, match=r"2\*\*63"):
            _window_partials(ArrayRDD.from_chunks(ctx, [], huge), 1)
        below = ArrayMetadata((2 ** 31, 2 ** 31, 1), (128, 128, 1))
        array = ArrayRDD.from_chunks(ctx, [], below)
        assert _window_partials(array, 1).collect() == []


def _q2_on(backend_kwargs, bands):
    with ClusterContext(num_executors=2, default_parallelism=3,
                        **backend_kwargs) as context:
        ds = load_spangle_dataset(context, bands, chunk_shape=(32, 32, 1))
        return SpangleRasterQueries(ds).q2_regrid("u", 12)


def test_q2_regrid_windows_across_backends(bands):
    serial = _q2_on({}, bands)
    assert serial
    assert _q2_on({"use_threads": True}, bands) == serial
    assert _q2_on({"backend": "process"}, bands) == serial
