"""Unit tests for machine configuration validation and logging."""

import logging

import pytest

from repro.system import Machine, MachineConfig


class TestConfigValidation:
    def test_inflation_below_one_rejected(self):
        with pytest.raises(ValueError, match="data_inflation"):
            MachineConfig(data_inflation=0.5)

    def test_zero_gpus_rejected(self):
        with pytest.raises(ValueError, match="GPU"):
            MachineConfig(num_gpus=0)

    def test_negative_accelerators_rejected(self):
        with pytest.raises(ValueError, match="accelerators"):
            MachineConfig(num_accelerators=-1)

    def test_epc_must_fit_in_dram(self):
        with pytest.raises(ValueError, match="EPC"):
            MachineConfig(dram_size=1 << 26, epc_size=1 << 27)

    def test_defaults_valid(self):
        MachineConfig()


class TestLogging:
    def test_boot_logs_enclave_summary(self, caplog):
        machine = Machine(MachineConfig())
        with caplog.at_level(logging.INFO, logger="repro.core.gpu_enclave"):
            machine.boot_secure()
        assert any("GPU enclave up" in record.message
                   for record in caplog.records)

    def test_lockdown_rejections_logged(self, caplog):
        machine = Machine(MachineConfig())
        machine.boot_secure()
        with caplog.at_level(logging.WARNING, logger="repro.pcie.root_complex"):
            machine.adversary().rewrite_bar(machine.gpu.bdf, 0, 0xDEAD0000)
        assert any("lockdown discarded" in record.message
                   for record in caplog.records)

    def test_session_establishment_logged(self, caplog):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        with caplog.at_level(logging.INFO, logger="repro.core.gpu_enclave"):
            machine.secure_session(service, "logged").cuCtxCreate()
        assert any("session" in record.message.lower()
                   for record in caplog.records)
