"""PTE flag bits.

The bit positions mirror their x86-64 counterparts where one exists; the
reserved bit 11 is the one MTM repurposes for write tracking during
asynchronous migration (Sec. 7.2 / Sec. 8), and PROT_NONE stands in for the
AutoNUMA hint-fault encoding.
"""

from __future__ import annotations

import enum

import numpy as np


class PteFlag(enum.IntFlag):
    """Flags stored per leaf page-table entry."""

    NONE = 0
    #: Page is mapped to a physical frame.
    PRESENT = 1 << 0
    #: Writes are permitted (cleared by write-protection-based profilers).
    WRITABLE = 1 << 1
    #: Set by the MMU on any access; cleared by profiler scans.
    ACCESSED = 1 << 5
    #: Set by the MMU on a write; cleared when the page is cleaned/migrated.
    DIRTY = 1 << 6
    #: This entry is a 2 MB huge mapping (lives in the PMD).
    HUGE = 1 << 7
    #: Reserved bit 11, used by MTM's migration write tracking.
    RESERVED11 = 1 << 11
    #: Mapping removed to force a NUMA hint fault on next access.
    PROT_NONE = 1 << 12

    @classmethod
    def default_mapped(cls) -> "PteFlag":
        """Flags of a freshly mapped, writable, clean page."""
        return cls.PRESENT | cls.WRITABLE


# Flag masks as uint16 scalars, the dtype of the page table's flags.  Numpy
# takes an IntFlag member for a strong int64 scalar, so masking the flags with
# ``PteFlag.X`` widens the result to int64; masking with these does not.
PRESENT_MASK = np.uint16(PteFlag.PRESENT)
HUGE_MASK = np.uint16(PteFlag.HUGE)
ACCESSED_MASK = np.uint16(PteFlag.ACCESSED)
DIRTY_MASK = np.uint16(PteFlag.DIRTY)
