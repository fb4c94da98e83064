"""The served engine: wire protocol, reader-routed executor server, client.

``repro.server`` turns the embedded engine into a network service:

* :mod:`repro.server.protocol` -- the length-prefixed binary frame
  format and its partial-frame-safe decoder;
* :mod:`repro.server.core` -- :class:`EngineServer`: per-connection
  readers route batches of requests to shard-affine executor workers,
  with admission control at the door;
* :mod:`repro.server.client` -- :class:`EngineClient`, the pooled,
  pipelining client mirroring the embedded data-plane API.
"""

from repro.server.client import (
    CallResult,
    ClientConnection,
    ConnectionLost,
    EngineClient,
    RangeDeleteSummary,
    ServerError,
)
from repro.server.core import (
    AdmissionConfig,
    EngineServer,
    ServerConfig,
    wait_until_listening,
)
from repro.server.protocol import (
    ErrCode,
    Frame,
    FrameDecoder,
    Op,
    PROTOCOL_VERSION,
    ProtocolError,
    Resp,
    decode_value,
    encode_frame,
    encode_value,
    error_payload,
)

__all__ = [
    "AdmissionConfig",
    "CallResult",
    "ClientConnection",
    "ConnectionLost",
    "EngineClient",
    "EngineServer",
    "ErrCode",
    "Frame",
    "FrameDecoder",
    "Op",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RangeDeleteSummary",
    "Resp",
    "ServerConfig",
    "ServerError",
    "decode_value",
    "encode_frame",
    "encode_value",
    "error_payload",
    "wait_until_listening",
]
