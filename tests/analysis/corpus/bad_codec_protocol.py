# module: repro.service.protocol
"""Known-bad: the stream framer reading a frame's tail by itself.

``struct`` is this module's to use (the length prefix frames a socket
stream); the float64 tail behind the header is a buffer, and buffers
are read through ``codec.Reader``.
"""
import struct

import numpy as np

_LENGTH = struct.Struct(">I")


def frame_length(prefix):
    return _LENGTH.unpack(prefix)[0]


def read_tail(body, header_end):
    # No check that the tail is a whole number of float64s.
    return np.frombuffer(body, "<f8", offset=header_end)  # expect: COD001
