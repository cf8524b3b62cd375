"""Tests for WQE binary encoding/decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.rdma.wqe import (
    MAX_SGE,
    OFF_FLAGS,
    OFF_OPCODE,
    OFF_REMOTE_ADDR,
    WQE_SIZE,
    Opcode,
    Sge,
    WQEFlags,
    WorkRequest,
    decode_wqe,
    encode_wqe,
    sge_offset,
)


class TestEncodeDecode:
    def test_roundtrip_write(self):
        wr = WorkRequest(Opcode.WRITE, [Sge(0x1000, 256)], wr_id=42,
                         remote_addr=0x2000, rkey=0xABCD, signaled=True)
        decoded = decode_wqe(encode_wqe(wr, owned=True))
        assert decoded.opcode is Opcode.WRITE
        assert decoded.owned and decoded.signaled and not decoded.fence
        assert decoded.wr_id == 42
        assert decoded.remote_addr == 0x2000
        assert decoded.rkey == 0xABCD
        assert decoded.sg_list == (Sge(0x1000, 256),)

    def test_roundtrip_cas(self):
        wr = WorkRequest(Opcode.CAS, [Sge(8, 8)], compare=7, swap=99,
                         remote_addr=64, rkey=1)
        decoded = decode_wqe(encode_wqe(wr, owned=False))
        assert decoded.compare == 7
        assert decoded.swap == 99
        assert not decoded.owned

    def test_roundtrip_wait(self):
        wr = WorkRequest(Opcode.WAIT, wait_cq=5, wait_count=17,
                         signaled=False)
        decoded = decode_wqe(encode_wqe(wr, owned=True))
        assert decoded.wait_cq == 5
        assert decoded.wait_count == 17
        assert not decoded.signaled

    def test_descriptor_size(self):
        wr = WorkRequest(Opcode.NOP)
        assert len(encode_wqe(wr, owned=True)) == WQE_SIZE

    def test_too_many_sges(self):
        wr = WorkRequest(Opcode.SEND, [Sge(0, 1)] * (MAX_SGE + 1))
        with pytest.raises(ValueError):
            encode_wqe(wr, owned=True)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            decode_wqe(b"\0" * (WQE_SIZE - 1))

    def test_fence_flag(self):
        wr = WorkRequest(Opcode.SEND, fence=True)
        assert decode_wqe(encode_wqe(wr, owned=True)).fence

    @given(
        opcode=st.sampled_from(list(Opcode)),
        owned=st.booleans(),
        signaled=st.booleans(),
        wr_id=st.integers(min_value=0, max_value=2 ** 32 - 1),
        remote_addr=st.integers(min_value=0, max_value=2 ** 63),
        rkey=st.integers(min_value=0, max_value=2 ** 32 - 1),
        imm=st.integers(min_value=0, max_value=2 ** 32 - 1),
        sges=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2 ** 48),
                      st.integers(min_value=0, max_value=2 ** 31)),
            max_size=MAX_SGE),
    )
    def test_roundtrip_property(self, opcode, owned, signaled, wr_id,
                                remote_addr, rkey, imm, sges):
        wr = WorkRequest(opcode, [Sge(a, l) for a, l in sges], wr_id=wr_id,
                         remote_addr=remote_addr, rkey=rkey, imm=imm,
                         signaled=signaled)
        decoded = decode_wqe(encode_wqe(wr, owned=owned))
        assert decoded.opcode is opcode
        assert decoded.owned == owned
        assert decoded.signaled == signaled
        assert decoded.wr_id == wr_id
        assert decoded.remote_addr == remote_addr
        assert decoded.rkey == rkey
        assert decoded.imm == imm
        assert decoded.sg_list == tuple(Sge(a, l) for a, l in sges)
        assert decoded.total_length == sum(l for _a, l in sges)


class TestFieldOffsets:
    def test_ownership_bit_in_place(self):
        """Flipping the OWNED bit at OFF_FLAGS must change decode output —
        this is what remote manipulation relies on."""
        raw = bytearray(encode_wqe(WorkRequest(Opcode.WRITE), owned=False))
        assert not decode_wqe(bytes(raw)).owned
        raw[OFF_FLAGS] |= WQEFlags.OWNED
        assert decode_wqe(bytes(raw)).owned

    def test_opcode_byte_in_place(self):
        """Patching the opcode byte turns a NOP into a CAS (gCAS's
        selective-execution trick in reverse)."""
        raw = bytearray(encode_wqe(WorkRequest(Opcode.NOP), owned=True))
        raw[OFF_OPCODE] = int(Opcode.CAS)
        assert decode_wqe(bytes(raw)).opcode is Opcode.CAS

    def test_remote_addr_in_place(self):
        raw = bytearray(encode_wqe(WorkRequest(Opcode.WRITE), owned=True))
        raw[OFF_REMOTE_ADDR:OFF_REMOTE_ADDR + 8] = (0xDEAD).to_bytes(8, "little")
        assert decode_wqe(bytes(raw)).remote_addr == 0xDEAD

    def test_sge_offsets(self):
        assert sge_offset(0, "addr") < sge_offset(0, "length") \
            < sge_offset(1, "addr")
        with pytest.raises(ValueError):
            sge_offset(MAX_SGE)
        with pytest.raises(ValueError):
            sge_offset(0, "bogus")

    def test_negative_sge_rejected(self):
        with pytest.raises(ValueError):
            Sge(-1, 0)
        with pytest.raises(ValueError):
            Sge(0, -1)
