# module: repro.service.badparser
"""Known-bad: a fifth hand-rolled byte parser."""
import struct  # expect: COD001
from struct import unpack_from  # expect: COD001

import numpy as np

_U32 = struct.Struct("<I")  # expect: COD001


def read_length(data, offset):
    return _U32.unpack_from(data, offset)[0]


def read_count(data):
    return struct.unpack("<q", data[:8])[0]  # expect: COD001


def read_values(data, count):
    # No check that count * 8 bytes remain, or that count >= 0.
    return np.frombuffer(data, dtype="<f8", count=count)  # expect: COD001


def read_pair(data):
    return unpack_from("<II", data, 0)
