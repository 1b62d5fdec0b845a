//! The partitioned global address space of Table 1.
//!
//! Every core sees the same virtual map:
//!
//! | range | size | contents |
//! |---|---|---|
//! | `0x0000_0000 – 0x0000_0FFF` | 4 KB | local data memory |
//! | `0x0000_1000 – 0x0000_17FF` | 2 KB | CMem slice 0 (byte-addressable) |
//! | `0x4000_0000 – 0x7FFF_FFFF` | 1 GB | remote cores, 16 KB windows: `01xxxxxx_xxyyyyyy_yyoooooo_oooooooo` |
//! | `0x8000_0000 – 0xFFFF_FFFF` | 2 GB | many-core DRAM, striped over 32 channels |
//!
//! Row-granular remote transfers (`LoadRow.RC` / `StoreRow.RC`) address rows
//! through `RowPtr`, a packed pointer carried in `rs1`.

use serde::{Deserialize, Serialize};

/// Size of the local data memory (4 KB).
pub(crate) const LOCAL_DATA_SIZE: u32 = 0x1000;
/// Base of the byte-addressable CMem slice 0 window.
pub(crate) const SLICE0_BASE: u32 = 0x0000_1000;
/// Size of the slice-0 window (2 KB).
pub(crate) const SLICE0_SIZE: u32 = 0x800;
/// Base of the remote-core region.
pub(crate) const REMOTE_BASE: u32 = 0x4000_0000;
/// Base of the many-core DRAM region.
pub(crate) const DRAM_BASE: u32 = 0x8000_0000;
/// Number of DRAM channels / LLC tiles (Table 1: 32).
pub(crate) const DRAM_CHANNELS: u32 = 32;
/// Bytes in each core's remote window (16 KB).
pub(crate) const REMOTE_WINDOW: u32 = 0x4000;

/// Where an address lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Region {
    /// Local data memory; payload is the offset.
    LocalData(u32),
    /// CMem slice 0; payload is the byte offset within the 2 KB window.
    Slice0(u32),
    /// Another core's window.
    RemoteCore {
        /// Mesh x coordinate.
        x: u8,
        /// Mesh y coordinate.
        y: u8,
        /// Offset within that core's 16 KB window.
        offset: u32,
    },
    /// Many-core DRAM.
    Dram {
        /// Channel (address interleaved across 32 channels).
        channel: u8,
        /// Offset within the 2 GB space.
        offset: u32,
    },
    /// A hole in the map.
    Unmapped,
}

/// Classifies a 32-bit virtual address per Table 1.
///
/// DRAM channel interleaving is at 2 KB granularity so consecutive rows of
/// a striped tensor hit different channels, matching "the DRAM is uniformly
/// divided into 32 channels".
#[must_use]
pub(crate) fn classify(addr: u32) -> Region {
    if addr < LOCAL_DATA_SIZE {
        Region::LocalData(addr)
    } else if (SLICE0_BASE..SLICE0_BASE + SLICE0_SIZE).contains(&addr) {
        Region::Slice0(addr - SLICE0_BASE)
    } else if (REMOTE_BASE..DRAM_BASE).contains(&addr) {
        let x = ((addr >> 22) & 0xFF) as u8;
        let y = ((addr >> 14) & 0xFF) as u8;
        Region::RemoteCore {
            x,
            y,
            offset: addr & (REMOTE_WINDOW - 1),
        }
    } else if addr >= DRAM_BASE {
        let offset = addr - DRAM_BASE;
        Region::Dram {
            channel: ((offset >> 11) % DRAM_CHANNELS) as u8,
            offset,
        }
    } else {
        Region::Unmapped
    }
}

/// Builds a remote-core address for (`x`, `y`) at window offset `offset`.
///
/// # Panics
///
/// Panics if `offset` exceeds the 16 KB window.
#[cfg(test)]
#[must_use]
pub(crate) fn remote_addr(x: u8, y: u8, offset: u32) -> u32 {
    assert!(offset < REMOTE_WINDOW, "offset beyond 16 KB window");
    REMOTE_BASE | ((x as u32) << 22) | ((y as u32) << 14) | offset
}

/// A packed row pointer for `LoadRow.RC` / `StoreRow.RC`.
///
/// Rows are 256 bits (one CMem word-line). A pointer either names a row in
/// a remote core's CMem or a 32-byte-aligned DRAM location:
///
/// * remote row: `01 xxxxxxxx yyyyyyyy ??? sss rrrrrr` — marker `01` in bits
///   31:30, x in 29:22, y in 21:14, slice in 13:11, row in 10:5;
/// * DRAM row: bit 31 set — the pointer is the DRAM byte address of a
///   32-byte row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RowPtr {
    /// A word-line in another core's CMem.
    Remote {
        /// Mesh x coordinate.
        x: u8,
        /// Mesh y coordinate.
        y: u8,
        /// Slice 0–7.
        slice: u8,
        /// Word-line 0–63.
        row: u8,
    },
    /// 32 bytes of DRAM holding one transposed row.
    Dram {
        /// Byte offset within DRAM (32-byte aligned).
        offset: u32,
    },
}

impl RowPtr {
    /// Packs into the 32-bit register representation.
    #[must_use]
    pub(crate) fn pack(self) -> u32 {
        match self {
            RowPtr::Remote { x, y, slice, row } => {
                REMOTE_BASE
                    | ((x as u32) << 22)
                    | ((y as u32) << 14)
                    | ((slice as u32 & 7) << 11)
                    | ((row as u32 & 0x3F) << 5)
            }
            RowPtr::Dram { offset } => DRAM_BASE | (offset & !31),
        }
    }

    /// Unpacks from the 32-bit register representation.
    ///
    /// Returns `None` for pointers outside the remote/DRAM regions.
    #[must_use]
    pub(crate) fn unpack(v: u32) -> Option<RowPtr> {
        if v >= DRAM_BASE {
            Some(RowPtr::Dram {
                offset: (v - DRAM_BASE) & !31,
            })
        } else if v >= REMOTE_BASE {
            Some(RowPtr::Remote {
                x: ((v >> 22) & 0xFF) as u8,
                y: ((v >> 14) & 0xFF) as u8,
                slice: ((v >> 11) & 7) as u8,
                row: ((v >> 5) & 0x3F) as u8,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table1_boundaries() {
        assert_eq!(classify(0), Region::LocalData(0));
        assert_eq!(classify(0xFFF), Region::LocalData(0xFFF));
        assert_eq!(classify(0x1000), Region::Slice0(0));
        assert_eq!(classify(0x17FF), Region::Slice0(0x7FF));
        assert_eq!(classify(0x1800), Region::Unmapped);
        assert_eq!(classify(0x3FFF_FFFF), Region::Unmapped);
        assert!(matches!(
            classify(0x4000_0000),
            Region::RemoteCore { x: 0, y: 0, offset: 0 }
        ));
        assert!(matches!(classify(0x8000_0000), Region::Dram { channel: 0, offset: 0 }));
        assert!(matches!(classify(0xFFFF_FFFF), Region::Dram { .. }));
    }

    #[test]
    fn remote_addr_packs_coordinates() {
        let a = remote_addr(5, 9, 0x123);
        match classify(a) {
            Region::RemoteCore { x, y, offset } => {
                assert_eq!((x, y, offset), (5, 9, 0x123));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dram_interleaves_every_2kb() {
        let c0 = match classify(DRAM_BASE) {
            Region::Dram { channel, .. } => channel,
            _ => unreachable!(),
        };
        let c1 = match classify(DRAM_BASE + 2048) {
            Region::Dram { channel, .. } => channel,
            _ => unreachable!(),
        };
        assert_ne!(c0, c1);
        // wraps around after 32 channels
        let c32 = match classify(DRAM_BASE + 32 * 2048) {
            Region::Dram { channel, .. } => channel,
            _ => unreachable!(),
        };
        assert_eq!(c0, c32);
    }

    #[test]
    fn row_ptr_remote_roundtrip() {
        let p = RowPtr::Remote {
            x: 14,
            y: 3,
            slice: 6,
            row: 63,
        };
        assert_eq!(RowPtr::unpack(p.pack()), Some(p));
    }

    #[test]
    fn row_ptr_dram_roundtrip_aligns() {
        let p = RowPtr::Dram { offset: 0x1234 };
        match RowPtr::unpack(p.pack()) {
            Some(RowPtr::Dram { offset }) => assert_eq!(offset, 0x1220),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn row_ptr_local_is_none() {
        assert_eq!(RowPtr::unpack(0x100), None);
    }

    proptest! {
        #[test]
        fn prop_remote_roundtrip(x in 0u8..16, y in 0u8..16, s in 0u8..8, r in 0u8..64) {
            let p = RowPtr::Remote { x, y, slice: s, row: r };
            prop_assert_eq!(RowPtr::unpack(p.pack()), Some(p));
        }

        #[test]
        fn prop_every_address_classifies(addr in any::<u32>()) {
            let _ = classify(addr); // total function, never panics
        }
    }
}
