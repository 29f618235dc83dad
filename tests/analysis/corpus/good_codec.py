# module: repro.service.goodparser
"""Known-good: framing through the shared bounds-checked codec."""
from repro.core.codec import Reader, Writer
from repro.errors import SerializationError


def encode(values):
    w = Writer()
    w.header(b"DEMO", 1)
    w.f64_array(values)
    return w.getvalue()


def decode(data):
    with Reader(data, SerializationError, "demo blob") as r:
        r.header(b"DEMO", 1)
        values = r.f64_array()
        r.finish()
    return values


class Layout:
    # An attribute that merely shares the name is not the module.
    def __init__(self, struct):
        self.struct = struct
