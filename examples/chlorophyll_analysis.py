"""Ocean chlorophyll analysis — the paper's motivating raster workload.

Generates a SeaWiFS-like (lat, lon, time) chlorophyll grid (two thirds
of cells are land/no-retrieval nulls), writes it to the SNF container
format, loads it back as a SpangleDataset, and runs the analysis the
paper sketches in Section II-B: focus on cells where the concentration
exceeds a threshold, then summarize by region and by time step.

Run:  python examples/chlorophyll_analysis.py
"""

import tempfile
from pathlib import Path

from repro import ClusterContext
from repro.core.overlap import mean_stencil, stencil
from repro.data import chl_like
from repro.io import write_snf
from repro.io.snf import load_snf_as_dataset

THRESHOLD = 1.2  # mg/m^3 — "scientists only focus on chlorophyll
                 # where values are greater than a specific threshold"


def main():
    ctx = ClusterContext(num_executors=4)

    # ---- generate and persist a dataset ------------------------------
    values, valid = chl_like(shape=(180, 270, 4), seed=11)
    workdir = Path(tempfile.mkdtemp(prefix="chl-"))
    path = workdir / "seawifs_like.snf"
    write_snf(path, {"lat": 180, "lon": 270, "time": 4},
              {"chlorophyll": values}, valid)
    print(f"wrote {path} ({path.stat().st_size / 1024:.0f} KiB)")

    # ---- ingest -------------------------------------------------------
    dataset = load_snf_as_dataset(ctx, path, chunk_shape=(64, 64, 1))
    chl = dataset.attribute("chlorophyll")
    print(f"loaded: {chl.meta.describe()}")
    print(f"  retrievals : {chl.count_valid():,} "
          f"({chl.count_valid() / chl.meta.num_cells:.0%} of cells)")
    print(f"  global mean: {chl.aggregate('avg'):.3f} mg/m^3")

    # ---- threshold focus (Filter translates cells to null) ------------
    blooms = dataset.filter("chlorophyll", lambda xs: xs > THRESHOLD)
    bloom_cells = blooms.evaluate("chlorophyll")
    print(f"\nbloom cells (> {THRESHOLD}): {bloom_cells.count_valid():,}")
    print(f"  bloom mean : {bloom_cells.aggregate('avg'):.3f}")
    print(f"  bloom max  : {bloom_cells.aggregate('max'):.3f}")

    # ---- summarize over time (Aggregator with a new schema) -----------
    by_time = chl.aggregate_by(["time"], "avg")
    series, _valid = by_time.collect_dense()
    print("\n8-day mean concentration per time step:")
    for step, mean in enumerate(series):
        print(f"  t={step}: {mean:.3f}")

    # ---- regional structure (aggregate over latitude bands) -----------
    by_lat = chl.aggregate_by(["lat"], "avg")
    lat_values, lat_valid = by_lat.collect_dense()
    north = lat_values[:90][lat_valid[:90]].mean()
    south = lat_values[90:][lat_valid[90:]].mean()
    print(f"\nmean by hemisphere: north={north:.3f} south={south:.3f}")

    # ---- smoothing with overlap (no whole-chunk shuffles) --------------
    smoothed = stencil(chl, mean_stencil(1), depth=1)
    print(f"\n3x3x3-smoothed field: {smoothed.count_valid():,} cells, "
          f"mean {smoothed.aggregate('avg'):.3f}")

    before = ctx.metrics.snapshot()
    stencil(chl, mean_stencil(1), depth=1).count_valid()
    halo_bytes = (ctx.metrics.snapshot() - before).shuffle_bytes
    print(f"  halo exchange moved {halo_bytes / 1024:.0f} KiB "
          f"(the array itself holds "
          f"{chl.memory_bytes() / 1024:.0f} KiB)")


if __name__ == "__main__":
    main()
