"""Fixture tests for the WQ (WQE-ownership) rule family."""

from textwrap import dedent

from repro.analysis import lint_source


def codes(source: str, module: str = "repro/core/fixture.py"):
    return [v.code for v in lint_source(dedent(source), module=module)]


class TestOwnershipGrant:
    def test_raw_grant_outside_driver(self):
        assert "WQ01" in codes("""
            def activate(qp, index):
                qp.sq.grant(index)
            """)

    def test_grant_inside_driver_allowed(self):
        assert codes("""
            def grant(self, index):
                self.grant(index)
            """, module="repro/rdma/driver.py") == []

    def test_grant_send_wrapper_in_verbs_allowed(self):
        assert codes("""
            def grant_send(self, index):
                self.sq.grant(index)
                self.nic.doorbell(self)
            """, module="repro/rdma/verbs.py") == []

    def test_verbs_grant_send_call_is_clean_anywhere(self):
        # The sanctioned route — QueuePair.grant_send — is not flagged.
        assert codes("""
            def activate(qp, index):
                qp.grant_send(index)
            """) == []


class TestDescriptorPoke:
    def test_memory_write_at_slot_address(self):
        assert "WQ02" in codes("""
            def poke(memory, wq):
                memory.write(wq.slot_address(0), b"\\x01")
            """)

    def test_dma_write_at_field_address(self):
        assert "WQ02" in codes("""
            def poke(cache, wq):
                cache.dma_write(wq.field_address(0, 1), b"\\x01")
            """)

    def test_in_place_modify_at_field_address(self):
        assert "WQ02" in codes("""
            def poke(memory, wq, change):
                memory.modify(wq.field_address(0, 1), 1, change)
            """)

    def test_pattern_write_at_slot_address(self):
        assert "WQ02" in codes("""
            def stamp(memory, wq, block):
                memory.write_pattern(wq.slot_address(0), block, 64)
            """)

    def test_poke_from_nic_allowed(self):
        assert codes("""
            def writeback(self, wq):
                self.memory.write(wq.slot_address(0), b"\\x00")
            """, module="repro/rdma/nic.py") == []

    def test_address_computation_alone_is_clean(self):
        # Computing descriptor addresses (SGE targets for metadata SENDs)
        # is legal anywhere — only the write is restricted.
        assert codes("""
            def target(wq, index):
                return wq.field_address(index, 1)
            """) == []

    def test_owned_flag_outside_rdma(self):
        assert "WQ02" in codes("""
            from repro.rdma.wqe import WQEFlags

            def arm(flags):
                return flags | WQEFlags.OWNED
            """)

    def test_owned_flag_inside_rdma_allowed(self):
        assert codes("""
            from .wqe import WQEFlags

            def arm(flags):
                return flags | WQEFlags.OWNED
            """, module="repro/rdma/driver.py") == []

    def test_unrelated_write_is_clean(self):
        assert codes("""
            def store(memory, region, data):
                memory.write(region.address, data)
            """) == []


class TestNICConsumerAPI:
    def test_peek_head_outside_rdma(self):
        assert "WQ03" in codes("""
            def drain(wq):
                return wq.peek_head()
            """)

    def test_advance_head_outside_rdma(self):
        assert "WQ03" in codes("""
            def drain(wq):
                wq.advance_head()
            """)

    def test_wake_written_outside_rdma(self):
        assert "WQ03" in codes("""
            def wake(nic):
                nic.wake_written([(0, 160)])
            """)

    def test_consumer_calls_inside_rdma_allowed(self):
        assert codes("""
            def service(self, qp):
                wqe = qp.sq.peek_head()
                if wqe is not None:
                    qp.sq.advance_head()
                self.wake_written([(0, 160)])
            """, module="repro/rdma/nic.py") == []

    def test_verbs_surface_is_clean(self):
        assert codes("""
            def submit(qp, wr):
                index = qp.post_send(wr, owned=False)
                qp.grant_send(index)
            """) == []
