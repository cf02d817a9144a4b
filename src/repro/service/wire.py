"""Bit rows on the wire: the packed form and the JSON 0/1-list form.

The two read verbs (``query``, ``query_batch``) carry their query rows
in one of two forms (``docs/SERVING.md``):

* **packed** — ``{"packed": <base64>, "d": <bits per row>}``: the base64
  of the rows' little-endian ``uint64`` words, concatenated row by row,
  in the layout of :mod:`repro.hamming.packing` (bit ``j`` of a row is
  bit ``j % 64`` of word ``j // 64``; padding bits past ``d`` are zero).
  One ``np.frombuffer`` turns it back into the ``(m, W)`` words the
  engine runs on, and a router can forward the string unchanged.
* **lists** — ``"bits"`` (one row) or ``"queries"`` (a list of rows) of
  JSON integers 0/1, for hand-written clients.

:class:`~repro.service.client.ServiceClient` always sends the packed
form (:func:`encode_packed`).  The shard server and the router validate
with the same decoder, :func:`read_query_rows`; writes (``insert``)
stay in list form and go through :func:`bit_rows_from_json`.  Every
refusal is a ``ValueError`` naming what is wrong, answered per request.
"""

from __future__ import annotations

import base64
import binascii
from typing import Dict, Mapping

import numpy as np

from repro.hamming.packing import pack_bits, packed_words, validate_packed

__all__ = [
    "ROW_FORMS",
    "bit_rows_from_json",
    "encode_packed",
    "read_query_rows",
]

#: The row forms each verb accepts — reported by the ``info`` verb.
ROW_FORMS: Dict[str, list] = {
    "query": ["packed", "bits"],
    "query_batch": ["packed", "queries"],
    "insert": ["points"],
}

_LIST_FIELD = {"query": "bits", "query_batch": "queries"}


def encode_packed(words: np.ndarray, d: int) -> Dict[str, object]:
    """The packed wire fields for ``(m, W)`` words of ``d``-bit rows."""
    raw = words.astype("<u8", copy=False).tobytes()
    return {"packed": base64.b64encode(raw).decode("ascii"), "d": d}


def _decode_packed(text, d_field, d: int) -> np.ndarray:
    """``(m, W)`` uint64 words from the packed fields, fully validated."""
    if not isinstance(text, str):
        raise ValueError("'packed' must be a base64 string")
    if type(d_field) is not int:
        raise ValueError("'packed' needs an integer 'd' (bits per row)")
    if d_field != d:
        raise ValueError(
            f"packed rows have d={d_field} bits, index dimension is {d}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ValueError(f"'packed' is not valid base64 ({exc})") from None
    row_bytes = 8 * packed_words(d)
    if not raw:
        raise ValueError("'packed' holds no rows (empty batch)")
    if len(raw) % row_bytes:
        raise ValueError(
            f"'packed' holds {len(raw)} bytes, not a multiple of the "
            f"{row_bytes} bytes of one d={d} row"
        )
    words = np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)
    return validate_packed(words.reshape(-1, row_bytes // 8), d)


def bit_rows_from_json(rows, d: int, what: str) -> np.ndarray:
    """An ``(m, d)`` uint8 array from a JSON list of 0/1 rows.

    Only JSON integers 0 and 1 are bits: a float (``1.7``), a string
    (``"1"``) or a bool (``true``) is refused, never coerced.
    """
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{what} needs a non-empty list of bit rows")
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"{what}: a bit row must be a list, got {type(row).__name__}")
        if len(row) != d:
            raise ValueError(
                f"{what}: a bit row has {len(row)} bits, index dimension is {d}"
            )
        kinds = set(map(type, row))
        if not kinds <= {int}:
            bad = sorted(k.__name__ for k in kinds - {int})
            raise ValueError(
                f"{what}: bits must be JSON integers 0/1, got {', '.join(bad)}"
            )
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what}: bits must be 0 or 1") from None
    if arr.min() < 0 or arr.max() > 1:
        raise ValueError(f"{what}: bits must be 0 or 1")
    return arr.astype(np.uint8)


def read_query_rows(request: Mapping, d: int) -> np.ndarray:
    """The query rows of a ``query``/``query_batch`` request, validated
    against dimension ``d``, as ``(m, W)`` uint64 words (``m == 1`` for
    ``query``)."""
    op = request.get("op")
    field = _LIST_FIELD[op]
    if "packed" in request:
        if "bits" in request or "queries" in request:
            raise ValueError(f"'{op}' carries both 'packed' and a bit list; send one")
        words = _decode_packed(request["packed"], request.get("d"), d)
        if op == "query" and len(words) != 1:
            raise ValueError(f"'query' takes one row, 'packed' holds {len(words)}")
        return words
    rows = request.get(field)
    if rows is None:
        raise ValueError(
            f"'{op}' needs 'packed' rows (with 'd') or a '{field}' list of 0/1 bits"
        )
    if op == "query":
        rows = [rows]
    return pack_bits(bit_rows_from_json(rows, d, f"'{op}'"), d)
