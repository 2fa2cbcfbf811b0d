# Failing fixture for no-pickle-boundary: pickle at the wire boundary,
# through the front door and through numpy's side doors.
# lint-fixture-module: repro.cluster.fixture_pickle_bad
import pickle
from concurrent.futures import ProcessPoolExecutor  # pickles args+results
from pickle import loads

import numpy as np


def encode_shard(payload):
    return pickle.dumps(payload)


def decode_shard(data):
    return loads(data)


def load_columns(path):
    return np.load(path, allow_pickle=True)


def load_columns_if(path, trusted):
    return np.load(path, allow_pickle=trusted)


def spill_columns(columns, path):
    columns.dump(path)


def encode_columns(columns):
    return columns.astype("<i4").dumps()


def decode_columns(data):
    return np.loads(data)
