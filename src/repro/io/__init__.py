"""File formats Spangle ingests (Section III-A mentions CSV and NetCDF).

- :mod:`repro.io.csv` — cell records as text: one line per valid cell,
  coordinates then attribute values.
- :mod:`repro.io.snf` — the *Simple NetCDF-like Format*: a binary
  container with a JSON header describing dimensions and attributes,
  followed by raw little-endian arrays. Stands in for NetCDF, which is
  not available offline.
- :mod:`repro.io.store` — the ChunkStore: ``save_array`` writes an
  ArrayRDD as one file of packed chunk-codec buffers per partition plus
  a manifest, and ``load_array`` maps them back, byte-identically.
"""

from repro.io.csv import read_csv_cells, write_csv_cells
from repro.io.snf import read_snf, write_snf

__all__ = [
    "read_csv_cells",
    "read_snf",
    "write_csv_cells",
    "write_snf",
]
