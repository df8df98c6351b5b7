//! Physical pages of the row store.
//!
//! Three kinds: leaf pages (sorted `(pk, row image)` slots + leaf-chain
//! pointer), internal pages (separator keys + children), and one meta
//! page per table holding the root pointer. Every page tracks the LSN of
//! the last REDO entry applied to it, which makes replay idempotent
//! (ARIES-style page-LSN test): a page flushed to shared storage after
//! LSN *x* silently absorbs re-applied entries with LSN ≤ *x*.

use imci_common::codec::{put_bytes, put_i64, put_u32, put_u64};
use imci_common::{ByteReader, Error, Lsn, PageId, Result};

/// Soft byte capacity of a leaf page (16 KiB like InnoDB).
pub const PAGE_BYTE_CAPACITY: usize = 16 * 1024;

/// Max separator keys in an internal page before it splits.
pub const INTERNAL_KEY_CAPACITY: usize = 256;

/// Page content.
#[derive(Debug, Clone, PartialEq)]
pub enum PageKind {
    /// Leaf: sorted row slots plus the next-leaf pointer.
    Leaf {
        /// `(primary key, row image)` sorted by key.
        entries: Vec<(i64, Vec<u8>)>,
        /// Next leaf in key order (None = rightmost).
        next: Option<PageId>,
    },
    /// Internal node: `children.len() == keys.len() + 1`; subtree `i`
    /// holds keys `< keys[i]` (and the last subtree the rest).
    Internal {
        /// Separator keys.
        keys: Vec<i64>,
        /// Child page ids.
        children: Vec<PageId>,
    },
    /// Per-table metadata: the root pointer.
    Meta {
        /// Current root page of the table's B+tree.
        root: PageId,
    },
}

/// A buffered page.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Page identifier (unique per cluster).
    pub id: PageId,
    /// LSN of the last entry applied to this page.
    pub last_lsn: Lsn,
    /// Whether the buffered copy is newer than shared storage.
    pub dirty: bool,
    /// Content.
    pub kind: PageKind,
}

impl Page {
    /// New empty leaf.
    pub fn new_leaf(id: PageId) -> Page {
        Page {
            id,
            last_lsn: Lsn::ZERO,
            dirty: true,
            kind: PageKind::Leaf {
                entries: Vec::new(),
                next: None,
            },
        }
    }

    /// New meta page pointing at `root`.
    pub fn new_meta(id: PageId, root: PageId) -> Page {
        Page {
            id,
            last_lsn: Lsn::ZERO,
            dirty: true,
            kind: PageKind::Meta { root },
        }
    }

    /// Approximate byte footprint (drives leaf splits).
    pub fn byte_size(&self) -> usize {
        match &self.kind {
            PageKind::Leaf { entries, .. } => entries.iter().map(|(_, img)| 16 + img.len()).sum(),
            PageKind::Internal { keys, children } => keys.len() * 8 + children.len() * 8,
            PageKind::Meta { .. } => 16,
        }
    }

    /// Leaf entries accessor (error on wrong kind).
    pub fn leaf_entries(&self) -> Result<&Vec<(i64, Vec<u8>)>> {
        match &self.kind {
            PageKind::Leaf { entries, .. } => Ok(entries),
            _ => Err(Error::Storage(format!("page {} is not a leaf", self.id))),
        }
    }

    /// Mutable leaf entries accessor.
    pub fn leaf_entries_mut(&mut self) -> Result<&mut Vec<(i64, Vec<u8>)>> {
        match &mut self.kind {
            PageKind::Leaf { entries, .. } => Ok(entries),
            _ => Err(Error::Storage(format!("page {} is not a leaf", self.id))),
        }
    }

    /// Find the slot of `pk` in a leaf: `Ok(idx)` if present,
    /// `Err(insert_pos)` if absent.
    pub fn leaf_slot(&self, pk: i64) -> Result<std::result::Result<usize, usize>> {
        Ok(self.leaf_entries()?.binary_search_by_key(&pk, |(k, _)| *k))
    }

    /// In an internal page, the child index to descend into for `pk`.
    pub fn child_for(&self, pk: i64) -> Result<PageId> {
        match &self.kind {
            PageKind::Internal { keys, children } => {
                let idx = match keys.binary_search(&pk) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                Ok(children[idx])
            }
            _ => Err(Error::Storage(format!("page {} is not internal", self.id))),
        }
    }

    // ---- binary codec for shared-storage spill ----

    /// Encode for the page store.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size() + 64);
        put_u64(&mut out, self.id.get());
        put_u64(&mut out, self.last_lsn.get());
        match &self.kind {
            PageKind::Leaf { entries, next } => {
                out.push(1);
                put_u32(&mut out, entries.len() as u32);
                for (pk, img) in entries {
                    put_i64(&mut out, *pk);
                    put_bytes(&mut out, img);
                }
                put_u64(&mut out, next.map_or(u64::MAX, |p| p.get()));
            }
            PageKind::Internal { keys, children } => {
                out.push(2);
                put_u32(&mut out, keys.len() as u32);
                for k in keys {
                    put_i64(&mut out, *k);
                }
                put_u32(&mut out, children.len() as u32);
                for c in children {
                    put_u64(&mut out, c.get());
                }
            }
            PageKind::Meta { root } => {
                out.push(3);
                put_u64(&mut out, root.get());
            }
        }
        out
    }

    /// Decode a page image from the page store.
    pub fn decode(bytes: &[u8]) -> Result<Page> {
        let mut r = ByteReader::new(bytes, "page image");
        let id = PageId(r.u64()?);
        let last_lsn = Lsn(r.u64()?);
        let kind = match r.u8()? {
            1 => {
                // Key + image length.
                let entries = r.list_u32(12, |r| Ok((r.i64()?, r.bytes()?.to_vec())))?;
                let next = r.u64()?;
                PageKind::Leaf {
                    entries,
                    next: (next != u64::MAX).then_some(PageId(next)),
                }
            }
            2 => {
                let keys = r.list_u32(8, |r| r.i64())?;
                let children = r.list_u32(8, |r| Ok(PageId(r.u64()?)))?;
                // `child_for` indexes `children` by key position.
                if children.len() != keys.len() + 1 {
                    return Err(r.error(format_args!(
                        "{} keys but {} children",
                        keys.len(),
                        children.len()
                    )));
                }
                PageKind::Internal { keys, children }
            }
            3 => PageKind::Meta {
                root: PageId(r.u64()?),
            },
            t => return Err(r.error(format_args!("bad page tag {t}"))),
        };
        Ok(Page {
            id,
            last_lsn,
            dirty: false,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_codec_roundtrip() {
        let p = Page {
            id: PageId(5),
            last_lsn: Lsn(77),
            dirty: true,
            kind: PageKind::Leaf {
                entries: vec![(1, vec![1, 2, 3]), (9, vec![]), (12, vec![0xFF])],
                next: Some(PageId(6)),
            },
        };
        let dec = Page::decode(&p.encode()).unwrap();
        assert_eq!(dec.id, p.id);
        assert_eq!(dec.last_lsn, p.last_lsn);
        assert_eq!(dec.kind, p.kind);
        assert!(!dec.dirty, "freshly-loaded pages are clean");
    }

    #[test]
    fn internal_and_meta_codec_roundtrip() {
        let p = Page {
            id: PageId(2),
            last_lsn: Lsn(3),
            dirty: false,
            kind: PageKind::Internal {
                keys: vec![10, 20],
                children: vec![PageId(4), PageId(5), PageId(6)],
            },
        };
        assert_eq!(Page::decode(&p.encode()).unwrap().kind, p.kind);

        let m = Page::new_meta(PageId(1), PageId(2));
        assert_eq!(
            Page::decode(&m.encode()).unwrap().kind,
            PageKind::Meta { root: PageId(2) }
        );
    }

    #[test]
    fn child_for_routes_by_separator() {
        let p = Page {
            id: PageId(2),
            last_lsn: Lsn::ZERO,
            dirty: false,
            kind: PageKind::Internal {
                keys: vec![10, 20],
                children: vec![PageId(4), PageId(5), PageId(6)],
            },
        };
        assert_eq!(p.child_for(5).unwrap(), PageId(4));
        assert_eq!(p.child_for(10).unwrap(), PageId(5));
        assert_eq!(p.child_for(15).unwrap(), PageId(5));
        assert_eq!(p.child_for(20).unwrap(), PageId(6));
        assert_eq!(p.child_for(99).unwrap(), PageId(6));
    }

    #[test]
    fn leaf_slot_search() {
        let mut p = Page::new_leaf(PageId(3));
        p.leaf_entries_mut()
            .unwrap()
            .extend([(2, vec![]), (4, vec![]), (8, vec![])]);
        assert_eq!(p.leaf_slot(4).unwrap(), Ok(1));
        assert_eq!(p.leaf_slot(5).unwrap(), Err(2));
        assert_eq!(p.leaf_slot(1).unwrap(), Err(0));
    }

    #[test]
    fn byte_size_counts_images() {
        let mut p = Page::new_leaf(PageId(3));
        assert_eq!(p.byte_size(), 0);
        p.leaf_entries_mut().unwrap().push((1, vec![0u8; 100]));
        assert_eq!(p.byte_size(), 116);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Page::decode(&[1, 2, 3]).is_err());
        let mut ok = Page::new_leaf(PageId(1)).encode();
        ok[16] = 200; // corrupt kind tag
        assert!(Page::decode(&ok).is_err());
        let lopsided = Page {
            kind: PageKind::Internal {
                keys: vec![10],
                children: vec![PageId(2)],
            },
            ..Page::new_leaf(PageId(1))
        };
        assert!(Page::decode(&lopsided.encode()).is_err());
    }
}
