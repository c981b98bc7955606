"""Enclave images and the loaded-enclave handle.

An :class:`EnclaveImage` is the buildable identity of an enclave — the
ordered pages of "code/data" that get EADDed and EEXTENDed.  Because the
measurement is a pure function of the image and the ELRANGE geometry,
:func:`expected_measurement` lets a verifier (e.g. a remote user checking
the GPU enclave's provenance) compute the MRENCLAVE it should demand —
mirroring how a GPU vendor would publish its driver enclave's identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.hw.phys_mem import PAGE_SIZE
from repro.sgx.measurement import EnclaveMeasurement
from repro.sgx.secs import Secs


def _page_pad(data: bytes) -> bytes:
    if len(data) > PAGE_SIZE:
        raise ValueError("enclave image pages must fit in one page")
    return data + bytes(PAGE_SIZE - len(data))


@dataclass
class EnclaveImage:
    """Identity-bearing content of an enclave, page by page.

    ``pages`` maps page-aligned offsets within ELRANGE to page content.
    ``heap_pages`` zero pages are appended after the content pages.
    """

    name: str
    pages: List[Tuple[int, bytes]] = field(default_factory=list)
    heap_pages: int = 4

    def __post_init__(self) -> None:
        for offset, content in self.pages:
            if offset % PAGE_SIZE:
                raise ValueError(f"page offset {offset:#x} not aligned")
            if len(content) > PAGE_SIZE:
                raise ValueError("enclave image pages must fit in one page")

    @classmethod
    def from_code(cls, name: str, code: bytes, heap_pages: int = 4
                  ) -> "EnclaveImage":
        pages = []
        for index in range(0, max(len(code), 1), PAGE_SIZE):
            pages.append((index, _page_pad(code[index:index + PAGE_SIZE])))
        return cls(name=name, pages=pages, heap_pages=heap_pages)

    def content_size(self) -> int:
        top = max((offset + PAGE_SIZE for offset, _ in self.pages), default=0)
        return top + self.heap_pages * PAGE_SIZE

    def all_pages(self) -> List[Tuple[int, bytes]]:
        """Content pages followed by zeroed heap pages."""
        result = list(self.pages)
        base = max((offset + PAGE_SIZE for offset, _ in self.pages), default=0)
        for index in range(self.heap_pages):
            result.append((base + index * PAGE_SIZE, bytes(PAGE_SIZE)))
        return result


def elrange_size(image: EnclaveImage, extra_heap_pages: int = 0) -> int:
    """The loader's ELRANGE sizing policy (next power of two)."""
    total = image.content_size() + extra_heap_pages * PAGE_SIZE
    return 1 << max(total - 1, PAGE_SIZE).bit_length()


def expected_measurement(image: EnclaveImage,
                         extra_heap_pages: int = 0) -> bytes:
    """Recompute the MRENCLAVE that loading *image* yields.

    Position-independent: the measurement covers the ELRANGE size and
    the per-page offsets/contents, so a vendor can publish this value
    and any relying party can verify a live enclave against it.
    """
    measurement = EnclaveMeasurement()
    measurement.record_ecreate(elrange_size(image, extra_heap_pages))
    for offset, content in image.all_pages():
        measurement.record_eadd(offset, "reg")
        measurement.record_eextend(offset, content)
    return measurement.finalize()


@dataclass
class Enclave:
    """Handle to a loaded enclave: its SECS plus address-space geometry."""

    secs: Secs
    image_name: str
    heap_cursor: int = 0

    @property
    def enclave_id(self) -> int:
        return self.secs.enclave_id

    @property
    def base(self) -> int:
        return self.secs.base

    @property
    def measurement(self) -> bytes:
        return self.secs.measurement.value
