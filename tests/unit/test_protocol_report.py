"""Unit tests for the inter-enclave protocol encoding and text reports."""

import pytest

from repro.core import protocol
from repro.errors import (
    GpuUnavailable,
    OutOfDeviceMemory,
    ProtocolError,
    RequestRejected,
    UnknownOperation,
)
from repro.evalkit.report import fmt_bytes, fmt_pct, render_series, render_table
from repro.gpu.module import DevPtr


class TestProtocolMessages:
    def test_roundtrip(self):
        payload = {"op": "malloc", "nbytes": 4096}
        assert protocol.decode_message(
            protocol.encode_message(payload)) == payload

    def test_deterministic_encoding(self):
        a = protocol.encode_message({"b": 1, "a": 2})
        b = protocol.encode_message({"a": 2, "b": 1})
        assert a == b  # sort_keys — required for stable AEAD inputs

    def test_malformed_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"\xFF\xFE not json")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[1,2,3]")

    def test_unserializable_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"x": object()})

    def test_check_request_known_ops(self):
        assert protocol.check_request({"op": "malloc"}) == "malloc"

    def test_check_request_unknown_op(self):
        with pytest.raises(ProtocolError):
            protocol.check_request({"op": "rm -rf"})

    def test_check_request_missing_op(self):
        with pytest.raises(ProtocolError):
            protocol.check_request({})

    def test_all_ops_covers_every_op_constant(self):
        ops = {value for name, value in vars(protocol).items()
               if name.startswith("OP_")}
        assert ops == set(protocol.ALL_OPS)


class TestErrorReplies:
    """Authenticated-but-invalid requests get structured error replies."""

    def test_unknown_op_code(self):
        reply = protocol.error_reply(UnknownOperation("op 'rm -rf'"))
        assert reply["ok"] is False
        assert reply["code"] == protocol.ERR_UNKNOWN_OP
        assert "UnknownOperation" in reply["error"]

    def test_code_mapping(self):
        assert protocol.error_code_for(
            ProtocolError("bad")) == protocol.ERR_PROTOCOL
        assert protocol.error_code_for(
            OutOfDeviceMemory("oom")) == protocol.ERR_RESOURCES
        assert protocol.error_code_for(
            GpuUnavailable("down")) == protocol.ERR_UNAVAILABLE
        assert protocol.error_code_for(
            RuntimeError("anything")) == protocol.ERR_DRIVER

    def test_unknown_op_rejected_at_dispatch_end_to_end(self):
        """An op outside ALL_OPS travels the full sealed path and comes
        back as a structured error reply; the session stays live."""
        from repro.system import Machine, MachineConfig
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        api = machine.secure_session(service, "prober")
        api.cuCtxCreate()
        with pytest.raises(RequestRejected) as excinfo:
            api._request({"op": "rm -rf"})  # noqa: SLF001
        assert excinfo.value.code == protocol.ERR_UNKNOWN_OP
        # The service survived and the session still serves requests.
        buf = api.cuMemAlloc(4096)
        api.cuMemcpyHtoD(buf, b"still alive!")
        assert api.cuMemcpyDtoH(buf, 12) == b"still alive!"
        api.cuCtxDestroy()

    def test_missing_op_rejected_at_dispatch(self):
        from repro.system import Machine, MachineConfig
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        api = machine.secure_session(service, "prober")
        api.cuCtxCreate()
        with pytest.raises(RequestRejected) as excinfo:
            api._request({"nbytes": 4096})  # noqa: SLF001
        assert excinfo.value.code == protocol.ERR_UNKNOWN_OP
        api.cuCtxDestroy()


class TestParamCoding:
    def test_roundtrip(self):
        params = [DevPtr(0x1000), 7, 2.5]
        encoded = protocol.encode_params(params)
        assert protocol.decode_params(encoded) == params

    def test_json_safe(self):
        encoded = protocol.encode_params([DevPtr(1), 2, 3.0])
        assert protocol.decode_message(protocol.encode_message(
            {"params": encoded}))["params"] == encoded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_params([{"t": "alien", "v": 0}])

    def test_unsupported_value_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_params([b"bytes"])

    def test_nonce_channels_distinct(self):
        from repro.crypto import session
        channels = {session.CH_BULK_H2D, session.CH_BULK_D2H,
                    session.CH_REQUEST, session.CH_REPLY}
        assert len(channels) == 4


class TestReportRendering:
    def test_render_table_alignment(self):
        text = render_table("T", ["col", "x"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert "bb" in lines[-1]

    def test_render_series_contains_values(self):
        text = render_series("F", ["p1"], {"Gdev": [1.5], "HIX": [3.0]})
        assert "1.500" in text and "3.000" in text
        assert "#" in text  # bar chart present

    def test_fmt_bytes(self):
        assert fmt_bytes(32 * 1024 * 1024) == "32.00MB"
        assert fmt_bytes(1536) == "1.50KB"
        assert fmt_bytes(100) == "100B"

    def test_fmt_pct(self):
        assert fmt_pct(1.265) == "+26.5%"
        assert fmt_pct(0.9) == "-10.0%"
