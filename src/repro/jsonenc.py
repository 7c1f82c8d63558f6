"""One compact JSON encoder for everything the program writes.

``compact_json(obj)`` is ``json.dumps(obj, separators=(",", ":"))``,
byte for byte, for every value the program encodes: wire frames, row
digests, WAL records and checkpoints. ``json.dumps`` (like
``JSONEncoder.encode``) builds a new C encoder, a markers dict and a
closure on every call, which costs more than encoding a short row; here
the C encoder is built once, at import.

It keeps ``JSONEncoder(separators=(",", ":"))``'s settings: ASCII-only
output, NaN and ±inf written as ``NaN`` / ``Infinity`` / ``-Infinity``,
keys in insertion order, and ``TypeError`` for a value or key JSON
cannot hold. It leaves out the circular-reference check: its markers
dict would have to be fresh per call, and a shared one keeps the
containers of a call that raised, so a later encode of them would
report a false cycle. Every payload here is a tree built for the call;
a cyclic one raises ``RecursionError`` rather than ``ValueError``.

Without the C accelerator (``c_make_encoder is None``) the same
settings' pure-Python ``encode`` serves, with the same output.

This module imports nothing from ``repro``, so every layer, storage
included, can use it without an import cycle.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

_SETTINGS = json.JSONEncoder(separators=(",", ":"), check_circular=False)

if c_make_encoder is None:
    compact_json = _SETTINGS.encode
else:
    _encode = c_make_encoder(
        None,  # markers: no circular check (see the module docstring)
        _SETTINGS.default,
        encode_basestring_ascii,
        _SETTINGS.indent,
        _SETTINGS.key_separator,
        _SETTINGS.item_separator,
        _SETTINGS.sort_keys,
        _SETTINGS.skipkeys,
        _SETTINGS.allow_nan,
    )

    def compact_json(obj: Any) -> str:
        """``json.dumps(obj, separators=(",", ":"))``, through the one
        prebuilt C encoder."""
        return "".join(_encode(obj, 0))
