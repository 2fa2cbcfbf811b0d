# Passing fixture for no-pickle-boundary: a JSON control object and
# raw little-endian columns at the boundary, exactly like
# repro.cluster.protocol.
# lint-fixture-module: repro.cluster.fixture_pickle_good
import json
from concurrent.futures import TimeoutError as FutureTimeout  # no pool

import numpy as np


def encode_shard(payload):
    return json.dumps(payload).encode("utf-8")


def encode_columns(labels):
    return labels.astype("<i4").tobytes()


def decode_columns(tail):
    return np.frombuffer(tail, dtype="<i4")


def load_columns(path):
    return np.load(path, allow_pickle=False)
