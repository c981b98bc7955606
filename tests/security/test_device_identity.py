"""No two devices of a fleet share an identity.

Every machine of a fleet boots the same software the same way: the
same tenant gets the same process id and context id, and the GPU
enclave's DH seed repeats with the context id.  The device's party is
what tells two machines apart, so each device's fused secret derives
from its machine's index in the fleet and its own index.  Had every
machine's GPU 0 been fused alike, two machines would derive the same
session keys and GPU-CC devices would present identical certificates:
an operator controlling two hosts could move a tenant's sealed frame
from one machine to the other, and it would open.

Covered on every backend: the OS of machine 1 swaps the frame of a
genuine upload for a frame captured on machine 0.  The device must
refuse it, and the buffer must not hold machine 0's bytes.
"""

import pytest

from repro.backends import backend_names
from repro.backends.gpucc import issue_device_cert
from repro.core.channel import BULK_OFFSET
from repro.crypto.blob import sealed_size
from repro.errors import DriverError, IntegrityError
from repro.fleet import Fleet
from repro.system import MachineConfig

CAPTURED = b"\x5A" * 4096
GENUINE = b"\x33" * 4096


def _session(fleet_machine):
    """An attested tenant session on *fleet_machine*'s booted service."""
    machine = fleet_machine.machine
    service = fleet_machine.engine.service
    app = machine.secure_session(service, name="tenant").cuCtxCreate()
    return machine, service, app


@pytest.mark.parametrize("backend", backend_names())
def test_frame_from_another_machine_refused(backend):
    fleet = Fleet(machines=2, machine_config=MachineConfig(backend=backend))
    source, _, victim = _session(fleet.machines[0])
    buf_source = victim.cuMemAlloc(len(CAPTURED))
    victim.cuMemcpyHtoD(buf_source, CAPTURED)
    captured = source.adversary().read_physical(
        victim._end.region.paddr + BULK_OFFSET,  # noqa: SLF001
        sealed_size(len(CAPTURED)))

    target, service, app = _session(fleet.machines[1])
    buf = app.cuMemAlloc(len(GENUINE))
    # The swap lines up in every coordinate but the key.
    assert app.ctx_id == victim.ctx_id
    assert buf.addr == buf_source.addr

    adversary = target.adversary()
    original_poll = service.poll

    def swapping_poll(channel_end):
        adversary.write_physical(channel_end.region.paddr + BULK_OFFSET,
                                 captured)
        return original_poll(channel_end)

    service.poll = swapping_poll
    try:
        with pytest.raises((DriverError, IntegrityError)):
            app.cuMemcpyHtoD(buf, GENUINE)
    finally:
        service.poll = original_poll
    assert bytes(app.cuMemcpyDtoH(buf, len(CAPTURED))) != CAPTURED


@pytest.mark.parametrize("machines", [2, 4])
@pytest.mark.parametrize("backend", backend_names())
def test_fleet_keys_and_certificates_pairwise_distinct(backend, machines):
    """Two sessions per machine through the fleet's own serving path:
    every session key and every device certificate is distinct."""
    fleet = Fleet(machines=machines, scheduler="fifo",
                  machine_config=MachineConfig(backend=backend))
    keys = []
    for index in range(2 * machines):
        client = fleet.add_session(f"user{index}")
        client.submit("key", lambda api: keys.append(
            api._crypto.session_key))  # noqa: SLF001
    report = fleet.run()
    assert sorted(report.placements.values()) == sorted(
        list(range(machines)) * 2)
    assert len(keys) == 2 * machines
    assert len(set(keys)) == len(keys)
    certs = [tuple(sorted(issue_device_cert(member.machine.gpu).items()))
             for member in fleet.machines]
    assert len(set(certs)) == machines


def test_every_device_of_a_fleet_has_its_own_attestation_key():
    """GPUs and accelerators alike: the fused secret derives from the
    machine index and the device's own index."""
    fleet = Fleet(machines=2, machine_config=MachineConfig(
        num_accelerators=2))
    devices = [device for member in fleet.machines
               for device in member.machine.gpus
               + member.machine.accelerators]
    keys = {issue_device_cert(device)["k_att"] for device in devices}
    assert len(devices) == 6
    assert len(keys) == len(devices)
