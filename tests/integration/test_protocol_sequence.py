"""The Section 4.4.3 communication example, observed on the wire.

The paper walks through a secure ``cuMemcpyHtoD``: encrypted request
metadata through the message queue, ciphertext into shared memory, a
direct DMA from shared memory to GPU memory, then an in-GPU decryption
kernel.  This test instruments the GPU command stream and the queues to
confirm exactly that sequence happens.
"""

import pytest

from repro.gpu.commands import CommandOpcode, decode_commands
from repro.system import Machine, MachineConfig


@pytest.fixture
def env():
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    app = machine.secure_session(service, "observer").cuCtxCreate()
    return machine, service, app


def _observe_commands(service):
    """Wrap the GPU enclave's submit path to log decoded opcodes."""
    log = []
    original = service.driver.channel.submit

    def observing_submit(commands):
        for raw in commands:
            for command in decode_commands(raw):
                log.append(command)
        return original(commands)

    service.driver.channel.submit = observing_submit
    return log


class TestMemcpyHtoDSequence:
    def test_single_copy_sequence(self, env):
        machine, service, app = env
        buf = app.cuMemAlloc(4096)
        log = _observe_commands(service)
        queue_sends_before = app._end.to_service.sent  # noqa: SLF001
        app.cuMemcpyHtoD(buf, b"\x42" * 4096)

        opcodes = [c.opcode for c in log]
        # Staging map, DMA from shared memory, decrypt kernel, unmap.
        dma_index = opcodes.index(CommandOpcode.MEMCPY_H2D)
        launch_index = opcodes.index(CommandOpcode.LAUNCH)
        assert dma_index < launch_index, "decrypt must follow the DMA"
        # The DMA's host address is the shared region's bulk area.
        from repro.core.channel import BULK_OFFSET
        dma = log[dma_index]
        region = app._end.region  # noqa: SLF001
        assert dma.args[0] == region.paddr + BULK_OFFSET
        # Exactly one request notification crossed the queue.
        assert app._end.to_service.sent == queue_sends_before + 1  # noqa: SLF001

    def test_memcpy_dtoh_sequence(self, env):
        machine, service, app = env
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"\x17" * 4096)
        log = _observe_commands(service)
        app.cuMemcpyDtoH(buf, 4096)

        opcodes = [c.opcode for c in log]
        launch_index = opcodes.index(CommandOpcode.LAUNCH)   # encrypt kernel
        dma_index = opcodes.index(CommandOpcode.MEMCPY_D2H)
        assert launch_index < dma_index, "encrypt must precede the DMA out"

    def test_user_data_never_in_commands(self, env):
        """Command packets carry addresses, never payload plaintext."""
        machine, service, app = env
        secret = bytes(range(64)) * 64
        buf = app.cuMemAlloc(len(secret))
        log = _observe_commands(service)
        app.cuMemcpyHtoD(buf, secret)
        for command in log:
            assert secret[:32] not in command.blob

    def test_cleanse_on_free_sequence(self, env):
        machine, service, app = env
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"\x99" * 4096)
        log = _observe_commands(service)
        app.cuMemFree(buf)
        opcodes = [c.opcode for c in log]
        cleanse_index = opcodes.index(CommandOpcode.MEM_CLEANSE)
        unmap_index = opcodes.index(CommandOpcode.UNMAP)
        assert cleanse_index < unmap_index, "scrub before unmapping"
