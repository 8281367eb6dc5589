"""Unit conventions.

Internally the library uses **nanoseconds** for time and **GHz** (1/ns) for
frequency. Device calibration data is typically quoted in kHz and us;
multiply by the constants here to convert, e.g. ``50.0 * KHZ``.

The phase accumulated by an always-on coupling of ordinary frequency ``nu``
over duration ``tau`` is ``theta = 2 pi nu tau`` (paper Sec. II A).
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# Conversions into internal units (ns, GHz).
KHZ = 1e-6  # 1 kHz in GHz
MHZ = 1e-3  # 1 MHz in GHz
US = 1e3  # 1 us in ns
