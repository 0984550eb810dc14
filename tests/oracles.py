"""Independent reference implementations used to check the package.

Everything here is written from first principles against published
definitions and never calls into the package, so package bugs cannot
hide behind shared code. The codec oracle reads the package's message
table as data.
"""

import struct
from collections import deque
from math import dist, inf, isfinite

# --- table-driven CRC-16/X.25 oracle ---------------------------------------
# Reflected polynomial of 0x1021. Table entries derived per byte with the
# shift-and-conditional-xor recipe; check value for b"123456789" is 0x906E.

_POLY_REFLECTED = 0x8408


def _table_entry(byte: int) -> int:
    register = byte
    for _ in range(8):
        if register & 1:
            register = (register >> 1) ^ _POLY_REFLECTED
        else:
            register >>= 1
    return register


_TABLE = [_table_entry(i) for i in range(256)]


def crc16_x25_oracle(data: bytes) -> int:
    value = 0xFFFF
    for byte in data:
        value = _TABLE[(value ^ byte) & 0xFF] ^ (value >> 8)
    return value ^ 0xFFFF


def crc16_no_xorout_oracle(data: bytes) -> int:
    """Same register without the final inversion (check value 0x6F91)."""
    value = 0xFFFF
    for byte in data:
        value = _TABLE[(value ^ byte) & 0xFF] ^ (value >> 8)
    return value


# --- bit-level reference framer ---------------------------------------------
# Assembles the unsigned SYSTEM_STATE_UPDATE frame byte by byte, without
# the package codec. msg_id 42004, one-byte payload.


def reference_state_update_frame(
    state_code: int, seq: int, sys_id: int, comp_id: int, crc_extra: int
) -> bytes:
    payload = bytes([state_code])  # single byte survives truncation
    header = bytes(
        [
            0xFD,
            len(payload),
            0x00,  # incompat_flags: unsigned
            0x00,  # compat_flags
            seq & 0xFF,
            sys_id,
            comp_id,
            42004 & 0xFF,
            (42004 >> 8) & 0xFF,
            (42004 >> 16) & 0xFF,
        ]
    )
    crc = crc16_x25_oracle(header[1:] + payload + bytes([crc_extra]))
    return header + payload + bytes([crc & 0xFF, (crc >> 8) & 0xFF])


# --- sorted-list reservation-queue oracle -----------------------------------


class OracleQueue:
    """Reservations kept as a plain list, fully re-sorted on every query."""

    def __init__(self):
        self.items = []  # (ap_sys_id, priority, requested_at)

    def _sorted(self):
        return sorted(self.items, key=lambda r: (-r[1], r[2], r[0]))

    def enqueue(self, ap_sys_id, priority, requested_at):
        assert all(item[0] != ap_sys_id for item in self.items)
        self.items.append((ap_sys_id, priority, requested_at))
        return [item[0] for item in self._sorted()].index(ap_sys_id)

    def cancel(self, ap_sys_id):
        for item in self.items:
            if item[0] == ap_sys_id:
                self.items.remove(item)
                return True
        return False

    def pop_next(self):
        head = self._sorted()[0]
        self.items.remove(head)
        return head

    def position_of(self, ap_sys_id):
        order = [item[0] for item in self._sorted()]
        return order.index(ap_sys_id) if ap_sys_id in order else None

    def ordered_ids(self):
        return [item[0] for item in self._sorted()]


# --- graph oracles ------------------------------------------------------------


def edges_within_range(nodes: dict, safe_range_m: float) -> dict:
    ids = sorted(nodes)
    return {
        u: [v for v in ids if v != u and dist(nodes[u], nodes[v]) <= safe_range_m]
        for u in ids
    }


def bfs_hops(nodes: dict, safe_range_m: float, src: int) -> dict:
    """Hop counts from src to every reachable node, by plain BFS."""
    adjacency = edges_within_range(nodes, safe_range_m)
    hops = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def enumerate_min_hop_paths(nodes: dict, safe_range_m: float, src: int, dst: int):
    """All minimum-hop paths src..dst (exhaustive; small graphs only)."""
    adjacency = edges_within_range(nodes, safe_range_m)
    hops = bfs_hops(nodes, safe_range_m, src)
    if dst not in hops:
        return []
    paths = []

    def extend(path):
        here = path[-1]
        if here == dst:
            paths.append(list(path))
            return
        for v in adjacency[here]:
            # Only steps that stay on some minimum-hop path.
            remaining = bfs_hops(nodes, safe_range_m, v).get(dst)
            if remaining is not None and remaining == hops[dst] - len(path):
                path.append(v)
                extend(path)
                path.pop()

    extend([src])
    return paths


def min_hop_length(nodes: dict, path) -> float:
    if len(path) < 2:
        return inf
    return min(dist(nodes[a], nodes[b]) for a, b in zip(path, path[1:]))


# --- per-field message codec oracle -------------------------------------------
# The message codec as a plain loop over a message table's field rows
# (attr, ctype, seed_name, lo, hi, scale, enum): each value is checked
# against its C type's range, narrowed by lo/hi or by its enum's codes,
# then packed or unpacked one field at a time. The rows are data; the
# only package name used is the decode error class, so that failures
# compare by class.

_CTYPE_RANGES = {
    "uint8_t": ("B", 0, 0xFF),
    "uint16_t": ("H", 0, 0xFFFF),
    "int32_t": ("i", -(2**31), 2**31 - 1),
}


def _field_codec(field):
    """(allowed wire values, enum members by code) of one field row."""
    _, lo, hi = _CTYPE_RANGES[field.ctype]
    lo = lo if field.lo is None else field.lo
    hi = hi if field.hi is None else field.hi
    if field.enum is not None:
        members = {int(m): m for m in field.enum}
        return members, members
    return range(lo, hi + 1), None


def _struct_of(fields):
    return struct.Struct("<" + "".join(_CTYPE_RANGES[f.ctype][0] for f in fields))


def reference_pack(fields, msg) -> bytes:
    """Pack msg's fields in wire order; ValueError for a value off the wire.

    A scaled value that is not finite after scaling (infinity, NaN, an int
    too large for a float, or a product that overflows) is out of range
    like any other."""
    values = []
    for field in fields:
        allowed, _ = _field_codec(field)
        value = getattr(msg, field.attr)
        if field.scale is None:
            raw = int(value)
        else:
            try:
                scaled = float(value) * field.scale
            except OverflowError:  # an int too large for a float
                scaled = inf
            raw = round(scaled) if isfinite(scaled) else None
        if raw is None or raw not in allowed:
            raise ValueError(f"{field.attr} out of range: {value!r}")
        values.append(raw)
    return _struct_of(fields).pack(*values)


def reference_unpack(fields, cls, payload: bytes):
    """Zero-pad a truncated payload, unpack it field by field and build cls."""
    from autoserve.wire import MalformedPayload

    layout = _struct_of(fields)
    if len(payload) < layout.size:
        payload += bytes(layout.size - len(payload))
    kwargs = {}
    for field, raw in zip(fields, layout.unpack_from(payload)):
        allowed, members = _field_codec(field)
        if raw not in allowed:
            raise MalformedPayload(f"{field.attr} field out of range: {raw}")
        if members is not None:
            raw = members[raw]
        elif field.scale is not None:
            raw = raw / field.scale
        kwargs[field.attr] = raw
    return cls(**kwargs)
