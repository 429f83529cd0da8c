"""The bundle cache: band, basis and domain bundles as npz files on disk,
and write_file, the one writer of every file semitb writes.

A bundle is keyed by cli.config_hash, which includes CACHE_VERSION.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import zipfile

import numpy as np

from . import bloch, wannier
from .errors import Error
from .operators import half_stack_shape

log = logging.getLogger(__name__)

CACHE_VERSION = 12


class BundleCache:
    """Band, basis and domain bundles on disk, keyed by configuration hash.

    A bundle is one npz holding version = CACHE_VERSION and its arrays by
    name: every field of a BandData or WannierBasis, or the block
    eigenpairs of a PeriodicDomain; a member of any other name is not
    read.  A file of any other version, one that cannot be read (a torn
    write) or a domain stack of other shapes than the configuration's, or
    not float64, is rebuilt, never served.
    """

    def __init__(self, cache_dir: str):
        self.dir = cache_dir

    def band_path(self, key: str) -> str:
        return os.path.join(self.dir, f"bands_{key}.npz")

    def basis_path(self, key: str) -> str:
        return os.path.join(self.dir, f"basis_{key}.npz")

    def domain_path(self, key: str) -> str:
        return os.path.join(self.dir, f"domain_{key}.npz")

    def _load(self, path, shapes):
        """{name: array} for each name of shapes, or None when the bundle is
        missing or unusable; a name mapped to a shape must be a float64
        array of it."""
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as z:
                version = int(z["version"])
                if version != CACHE_VERSION:
                    raise Error(f"bundle version {version} != {CACHE_VERSION}")
                stored = {name: z[name] for name in shapes}
            for name, shape in shapes.items():
                got = (stored[name].shape, stored[name].dtype)
                if shape is not None and got != (shape, np.float64):
                    raise Error(f"{name} has shape {got[0]} and dtype {got[1]}, "
                                f"not {shape} and float64")
        except (Error, OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            log.warning("cache bundle %s unusable (%s); rebuilding", path, exc)
            return None
        return stored

    def _load_record(self, path, cls):
        stored = self._load(path, {f.name: None for f in dataclasses.fields(cls)})
        if stored is None:
            return None
        # a scalar field comes back as a 0-d array; item() restores the
        # Python type it was saved from
        return cls(**{name: v.item() if v.ndim == 0 else v
                      for name, v in stored.items()})

    def _store(self, path, arrays: dict) -> None:
        write_npz(path, version=np.int64(CACHE_VERSION), **arrays)

    def _store_record(self, path, obj) -> None:
        self._store(path, {f.name: getattr(obj, f.name)
                           for f in dataclasses.fields(obj)})

    def load_bands(self, key: str):
        return self._load_record(self.band_path(key), bloch.BandData)

    def store_bands(self, key: str, bd) -> None:
        self._store_record(self.band_path(key), bd)

    def load_basis(self, key: str):
        return self._load_record(self.basis_path(key), wannier.WannierBasis)

    def store_basis(self, key: str, wb) -> None:
        self._store_record(self.basis_path(key), wb)

    def load_domain(self, key: str, cells: int, points_per_cell: int):
        """(block_evals, block_evecs) of a domain of that grid, or None."""
        shape = half_stack_shape(cells, points_per_cell)
        stored = self._load(self.domain_path(key),
                            {"block_evals": shape, "block_evecs": shape + shape[-1:]})
        if stored is None:
            return None
        return stored["block_evals"], stored["block_evecs"]

    def store_domain(self, key: str, dom) -> None:
        self._store(self.domain_path(key), {"block_evals": dom.block_evals,
                                            "block_evecs": dom.block_evecs})


def write_file(path: str, write) -> None:
    """Write path whole, its directory made first: write(fh) fills a
    temporary file beside it, opened "wb", which is renamed over path.  A
    write cut short leaves the old file (or none) and no temporary file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_npz(path: str, **arrays) -> None:
    """Write arrays to path as np.savez does, one uncompressed .npy member
    each, through write_file.

    Each array goes to its zip member from its own buffer: np.savez copies
    every array to a bytes object first, as large as the array.
    """
    def write(fh):
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            for name, value in arrays.items():
                a = np.asarray(value, order="C")
                with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(
                        member, np.lib.format.header_data_from_array_1_0(a))
                    member.write(memoryview(a))

    write_file(path, write)
