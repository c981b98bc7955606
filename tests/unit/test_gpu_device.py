"""Unit tests for the simulated GPU device itself."""


import numpy as np
import pytest

from repro.crypto.blob import seal_blob
from repro.crypto.nonce import NonceSequence
from repro.crypto.suite import make_suite
from repro.gpu import regs
from repro.gpu.bios import bios_hash, build_bios_image, is_valid_rom, tamper_bios
from repro.gpu.commands import CommandOpcode, encode_command
from repro.gpu.context import GpuPageTable
from repro.gpu.device import BULK_H2D_CHANNEL, DEVICE_GTX580, SimGpu
from repro.gpu.module import CubinImage, DevPtr, pack_params
from repro.errors import PageFault
from repro.pcie.device import Bdf

VRAM = 16 << 20


@pytest.fixture
def gpu():
    device = SimGpu(Bdf(1, 0, 0), VRAM)
    return device


def _exec(gpu, *commands):
    batch = b"".join(commands)
    gpu._fifo[:len(batch)] = batch  # noqa: SLF001 - direct FIFO poke
    gpu._execute_batch(len(batch))  # noqa: SLF001
    fault = gpu.pop_fault()
    assert fault is None, fault


class TestGpuPageTable:
    def test_translate(self):
        pt = GpuPageTable()
        pt.map_range(0x10000, 0x4000, 8192)
        assert pt.translate(0x10004) == 0x4004
        assert pt.translate(0x11000) == 0x5000

    def test_unmapped_faults(self):
        with pytest.raises(PageFault):
            GpuPageTable().translate(0x1000)

    def test_unmap(self):
        pt = GpuPageTable()
        pt.map_range(0x10000, 0x4000, 4096)
        pt.unmap_range(0x10000, 4096)
        with pytest.raises(PageFault):
            pt.translate(0x10000)

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            GpuPageTable().map_range(1, 0, 4096)


class TestDeviceBasics:
    def test_vram_size_registers(self, gpu):
        low = int.from_bytes(gpu.bar_read(0, regs.REG_VRAM_SIZE, 4), "little")
        high = int.from_bytes(gpu.bar_read(0, regs.REG_VRAM_SIZE_HI, 4),
                              "little")
        assert (high << 32) | low == VRAM

    def test_id_register(self, gpu):
        value = int.from_bytes(gpu.bar_read(0, regs.REG_ID, 4), "little")
        assert value & 0xFFFF == DEVICE_GTX580

    def test_ctx_create_destroy(self, gpu):
        _exec(gpu, encode_command(CommandOpcode.CTX_CREATE, 5))
        assert 5 in gpu.contexts
        _exec(gpu, encode_command(CommandOpcode.CTX_DESTROY, 5))
        assert 5 not in gpu.contexts

    def test_duplicate_ctx_faults(self, gpu):
        _exec(gpu, encode_command(CommandOpcode.CTX_CREATE, 5))
        batch = encode_command(CommandOpcode.CTX_CREATE, 5)
        gpu._fifo[:len(batch)] = batch  # noqa: SLF001
        gpu._execute_batch(len(batch))  # noqa: SLF001
        assert gpu.pop_fault() is not None

    def test_map_and_ctx_rw(self, gpu):
        _exec(gpu,
              encode_command(CommandOpcode.CTX_CREATE, 1),
              encode_command(CommandOpcode.MAP, 1, (0x10000, 0x8000, 8192)))
        ctx = gpu.contexts[1]
        gpu.write_ctx(ctx, 0x10100, b"hello vram")
        assert gpu.read_ctx(ctx, 0x10100, 10) == b"hello vram"
        assert gpu.vram.read(0x8100, 10) == b"hello vram"

    def test_mem_cleanse(self, gpu):
        _exec(gpu,
              encode_command(CommandOpcode.CTX_CREATE, 1),
              encode_command(CommandOpcode.MAP, 1, (0x10000, 0x8000, 4096)))
        gpu.write_ctx(gpu.contexts[1], 0x10000, b"\xFF" * 4096)
        _exec(gpu, encode_command(CommandOpcode.MEM_CLEANSE, 1,
                                  (0x10000, 4096)))
        assert gpu.read_ctx(gpu.contexts[1], 0x10000, 4096) == bytes(4096)

    def test_aperture_window(self, gpu):
        gpu.bar_write(0, regs.REG_APERTURE_BASE, (8192).to_bytes(8, "little"))
        gpu.bar_write(1, 4, b"aperture!")
        assert gpu.vram.read(8192 + 4, 9) == b"aperture!"

    def test_invalid_aperture_faults(self, gpu):
        from repro.errors import UnsupportedRequest
        with pytest.raises(UnsupportedRequest):
            gpu.bar_write(0, regs.REG_APERTURE_BASE,
                          (2 * VRAM).to_bytes(8, "little"))

    def test_reset_clears_everything(self, gpu):
        _exec(gpu, encode_command(CommandOpcode.CTX_CREATE, 1))
        gpu.vram.write(0, b"junk")
        gpu.bar_write(0, regs.REG_RESET,
                      regs.RESET_MAGIC.to_bytes(4, "little"))
        assert not gpu.contexts
        assert gpu.vram.read(0, 4) == bytes(4)
        assert gpu.reset_count == 1

    def test_fault_surfaces_in_status(self, gpu):
        batch = encode_command(CommandOpcode.MAP, 99, (0, 0, 4096))
        gpu._fifo[:len(batch)] = batch  # noqa: SLF001
        gpu._execute_batch(len(batch))  # noqa: SLF001
        status = int.from_bytes(gpu.bar_read(0, regs.REG_STATUS, 4), "little")
        assert status & 2
        assert "no GPU context" in gpu.pop_fault()


class TestKernelLaunch:
    def _setup_ctx(self, gpu):
        _exec(gpu,
              encode_command(CommandOpcode.CTX_CREATE, 1),
              encode_command(CommandOpcode.MAP, 1, (0x10000, 0x8000,
                                                    256 * 1024)))
        return gpu.contexts[1]

    def test_launch_executes_kernel(self, gpu):
        ctx = self._setup_ctx(gpu)
        cubin = CubinImage(["builtin.memset32"]).to_bytes()
        gpu.write_ctx(ctx, 0x10000, cubin)
        params = pack_params([DevPtr(0x20000), 8, 0x42])
        _exec(gpu, encode_command(CommandOpcode.MAP, 1,
                                  (0x20000, 0x40000, 4096)))
        gpu.write_ctx(ctx, 0x18000, params)
        _exec(gpu, encode_command(
            CommandOpcode.LAUNCH, 1,
            (0x10000, len(cubin), 0, 0x18000, len(params), 1000)))
        data = np.frombuffer(gpu.read_ctx(ctx, 0x20000, 32), dtype=np.int32)
        assert (data == 0x42).all()
        assert ctx.kernels_launched == 1

    def test_launch_with_patched_cubin_faults(self, gpu):
        """Code-integrity: corrupting the module in VRAM is detected."""
        ctx = self._setup_ctx(gpu)
        cubin = bytearray(CubinImage(["builtin.memset32"]).to_bytes())
        cubin[9] ^= 0xFF
        gpu.write_ctx(ctx, 0x10000, bytes(cubin))
        batch = encode_command(CommandOpcode.LAUNCH, 1,
                               (0x10000, len(cubin), 0, 0x18000, 4, 0))
        gpu._fifo[:len(batch)] = batch  # noqa: SLF001
        gpu._execute_batch(len(batch))  # noqa: SLF001
        assert "integrity" in (gpu.pop_fault() or "")

    def test_context_switch_counted(self, gpu):
        self._setup_ctx(gpu)
        _exec(gpu,
              encode_command(CommandOpcode.CTX_CREATE, 2),
              encode_command(CommandOpcode.MAP, 2, (0x10000, 0x80000,
                                                    256 * 1024)))
        cubin = CubinImage(["builtin.memset32"]).to_bytes()
        params = pack_params([DevPtr(0x20000), 2, 1])
        for ctx_id, vram in ((1, 0x8000), (2, 0x80000)):
            ctx = gpu.contexts[ctx_id]
            gpu.write_ctx(ctx, 0x10000, cubin)
            gpu.write_ctx(ctx, 0x18000, params)
            _exec(gpu, encode_command(CommandOpcode.MAP, ctx_id,
                                      (0x20000, vram + 0x10000, 4096)))
        launch = lambda c: encode_command(
            CommandOpcode.LAUNCH, c, (0x10000, len(cubin), 0, 0x18000,
                                      len(params), 0))
        _exec(gpu, launch(1))
        _exec(gpu, launch(2))
        _exec(gpu, launch(1))
        assert gpu.context_switches == 2


class TestGpuCrypto:
    def test_key_exchange_and_decrypt_kernel(self, gpu):
        from repro.crypto.dh import DiffieHellman, derive_key
        from repro.crypto.kdf import hkdf_sha256
        _exec(gpu,
              encode_command(CommandOpcode.CTX_CREATE, 1),
              encode_command(CommandOpcode.MAP, 1, (0x10000, 0x8000,
                                                    512 * 1024)))
        ctx = gpu.contexts[1]
        user = DiffieHellman(seed=b"u")
        enclave = DiffieHellman(seed=b"e")
        a = user.public_value
        b = enclave.raise_value(a)
        blob = a.to_bytes(256, "big") + b.to_bytes(256, "big")
        _exec(gpu, encode_command(CommandOpcode.KEY_EXCHANGE, 1, (0x10000,),
                                  blob=blob))
        reply = gpu.read_ctx(ctx, 0x10000, 512)
        d = int.from_bytes(reply[256:], "big")
        session_key = derive_key(enclave.raise_value(d))
        assert ctx.session_key == session_key

        # Seal a payload the way the user runtime does and decrypt in-GPU.
        bulk_key = hkdf_sha256(session_key, info=b"bulk", length=16)
        suite = make_suite("fast-auth", bulk_key)
        sealed = seal_blob(suite, NonceSequence(BULK_H2D_CHANNEL),
                           b"secret payload!!", b"hix-bulk-ctx-1")
        gpu.write_ctx(ctx, 0x20000, sealed)
        cubin = CubinImage(["hix.aead_decrypt_scatter"]).to_bytes()
        gpu.write_ctx(ctx, 0x30000, cubin)
        params = pack_params([DevPtr(0x20000), len(sealed), 1,
                              DevPtr(0x40000), 16])
        gpu.write_ctx(ctx, 0x38000, params)
        _exec(gpu, encode_command(
            CommandOpcode.LAUNCH, 1,
            (0x30000, len(cubin), 0, 0x38000, len(params), 0)))
        assert gpu.read_ctx(ctx, 0x40000, 16) == b"secret payload!!"

    def test_crypto_kernel_without_key_faults(self, gpu):
        _exec(gpu,
              encode_command(CommandOpcode.CTX_CREATE, 1),
              encode_command(CommandOpcode.MAP, 1, (0x10000, 0x8000,
                                                    256 * 1024)))
        ctx = gpu.contexts[1]
        cubin = CubinImage(["hix.aead_encrypt_gather"]).to_bytes()
        gpu.write_ctx(ctx, 0x10000, cubin)
        params = pack_params([DevPtr(0x28000), 1, DevPtr(0x20000), 16])
        gpu.write_ctx(ctx, 0x18000, params)
        _exec(gpu, encode_command(CommandOpcode.MAP, 1,
                                  (0x20000, 0x20000, 0x10000)))
        batch = encode_command(CommandOpcode.LAUNCH, 1,
                               (0x10000, len(cubin), 0, 0x18000,
                                len(params), 0))
        gpu._fifo[:len(batch)] = batch  # noqa: SLF001
        gpu._execute_batch(len(batch))  # noqa: SLF001
        assert "no session key" in (gpu.pop_fault() or "")


class TestBios:
    def test_structurally_valid(self):
        image = build_bios_image(DEVICE_GTX580)
        assert is_valid_rom(image)

    def test_deterministic(self):
        assert (build_bios_image(DEVICE_GTX580)
                == build_bios_image(DEVICE_GTX580))

    def test_device_id_changes_image(self):
        assert build_bios_image(0x1080) != build_bios_image(0x1081)

    def test_tamper_changes_hash(self):
        image = build_bios_image(DEVICE_GTX580)
        assert bios_hash(tamper_bios(image)) != bios_hash(image)
        assert len(tamper_bios(image)) == len(image)

    def test_rom_readable_through_device(self, gpu):
        data = gpu.expansion_rom_read(0, 2)
        assert data == b"\x55\xAA"
