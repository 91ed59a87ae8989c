"""Small instances of the two containers shared by the file-format tests: a
dataset and a checkpoint, each with its writer, its reader and its content in
a form that compares with ``==``."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from cropyield import fileio
from cropyield import synthdata as sd


def dataset_content(ds):
    return ds.band_spec.source, [(s.plot_id, s.season_tag, s.y, s.x.shape, s.x.tobytes())
                                 for s in ds.samples]


def checkpoint_content(tensors):
    return sorted((name, np.shape(a), np.asarray(a, dtype=np.float64).tobytes())
                  for name, a in tensors.items())


@dataclass
class Container:
    name: str
    write: Callable  # path -> None
    read: Callable  # path -> content
    expected: object  # the content of what ``write`` writes


@pytest.fixture(scope="session")
def containers():
    rng = np.random.default_rng(11)
    ds = sd.Dataset(sd.BandSpec("S1"), [
        sd.PlotSample(i, tag, rng.uniform(size=(2, 3, 2, 2)), float(rng.uniform(500.0, 3000.0)))
        for i, tag in enumerate(["oct_mar", "sep_feb", "may_sep"])
    ])
    # one tensor of each rank the models save, the 0-d head bias included
    tensors = {"convlstm/w_fi": rng.standard_normal((4, 3, 3, 3)), "head/b": np.array(0.25),
               "mask": np.array([1.0, 0.0, 1.0])}
    return [
        Container("dataset", lambda p: sd.save_dataset(ds, p),
                  lambda p: dataset_content(sd.load_dataset(p)), dataset_content(ds)),
        Container("checkpoint", lambda p: fileio.save_checkpoint(p, tensors),
                  lambda p: checkpoint_content(fileio.load_checkpoint(p)),
                  checkpoint_content(tensors)),
    ]
