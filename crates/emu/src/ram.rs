//! Page-granular guest RAM.
//!
//! The guest sees `len` bytes of flat RAM from address 0. The host holds
//! them as 4 KiB pages that start out absent: an absent page reads as
//! zeros from one shared static page and is allocated on its first
//! write. A provisioned fleet device writes 4 of its 256 pages, so
//! building a machine costs a page table instead of zeroing a megabyte.
//! Guest-visible bytes, bus faults and cycle costs do not depend on which
//! pages are resident.

use sp32::cfg::{fetch, FetchError, FetchedInstr};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE - 1;

type Page = [u8; PAGE_SIZE];

/// What every page that was never written reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a folds a zero byte as `h = (h ^ 0) * FNV_PRIME`, so a whole
/// zero page folds as one multiplication by `FNV_PRIME^PAGE_SIZE`.
const FNV_ZERO_PAGE: u64 = FNV_PRIME.wrapping_pow(PAGE_SIZE as u32);

/// Flat guest RAM held as lazily materialised 4 KiB pages.
pub(crate) struct Ram {
    /// One slot per page; `None` until the page is first written.
    pages: Vec<Option<Box<Page>>>,
    /// RAM size in bytes. The last page may be partial.
    len: usize,
}

impl Ram {
    /// `len` bytes of zeroed RAM, none of it resident.
    pub(crate) fn new(len: u32) -> Self {
        let len = len as usize;
        Ram {
            pages: vec![None; len.div_ceil(PAGE_SIZE)],
            len,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Pages the host holds, i.e. pages written at least once.
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|page| page.is_some()).count()
    }

    fn page(&self, index: usize) -> &Page {
        self.pages[index].as_deref().unwrap_or(&ZERO_PAGE)
    }

    fn page_mut(&mut self, index: usize) -> &mut Page {
        self.pages[index].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Whether `[addr, addr + n)` lies inside RAM.
    fn contains(&self, addr: u32, n: usize) -> bool {
        (addr as usize)
            .checked_add(n)
            .is_some_and(|end| end <= self.len)
    }

    /// The little-endian word at `addr`, or `None` if it leaves RAM.
    #[inline]
    pub(crate) fn read_word(&self, addr: u32) -> Option<u32> {
        let a = addr as usize;
        if a + 4 > self.len {
            return None;
        }
        let offset = a & PAGE_MASK;
        if offset > PAGE_SIZE - 4 {
            return Some(self.read_word_across_pages(a));
        }
        let page = self.page(a >> PAGE_SHIFT);
        Some(u32::from_le_bytes(
            page[offset..offset + 4].try_into().expect("4 bytes"),
        ))
    }

    /// Stores `value` little-endian at `addr`; `false` if it leaves RAM.
    #[inline]
    pub(crate) fn write_word(&mut self, addr: u32, value: u32) -> bool {
        let a = addr as usize;
        if a + 4 > self.len {
            return false;
        }
        let offset = a & PAGE_MASK;
        if offset > PAGE_SIZE - 4 {
            self.copy_in(a, &value.to_le_bytes());
        } else {
            self.page_mut(a >> PAGE_SHIFT)[offset..offset + 4]
                .copy_from_slice(&value.to_le_bytes());
        }
        true
    }

    /// The word at `a`, which starts in one page and ends in the next.
    /// Kept out of line so the common path needs no stack buffer.
    #[cold]
    fn read_word_across_pages(&self, a: usize) -> u32 {
        let mut word = [0; 4];
        self.copy_out(a, &mut word);
        u32::from_le_bytes(word)
    }

    /// The byte at `addr`, or `None` outside RAM.
    pub(crate) fn read_byte(&self, addr: u32) -> Option<u8> {
        let a = addr as usize;
        (a < self.len).then(|| self.page(a >> PAGE_SHIFT)[a & PAGE_MASK])
    }

    /// Stores `value` at `addr`; `false` outside RAM.
    pub(crate) fn write_byte(&mut self, addr: u32, value: u8) -> bool {
        let a = addr as usize;
        if a >= self.len {
            return false;
        }
        self.page_mut(a >> PAGE_SHIFT)[a & PAGE_MASK] = value;
        true
    }

    /// A copy of `[addr, addr + len)`, or `None` if it leaves RAM.
    pub(crate) fn read_bytes(&self, addr: u32, len: usize) -> Option<Vec<u8>> {
        if !self.contains(addr, len) {
            return None;
        }
        let mut out = vec![0; len];
        self.copy_out(addr as usize, &mut out);
        Some(out)
    }

    /// Stores `bytes` at `addr`; `false`, with RAM unchanged, if they
    /// would leave RAM.
    pub(crate) fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> bool {
        if !self.contains(addr, bytes.len()) {
            return false;
        }
        self.copy_in(addr as usize, bytes);
        true
    }

    /// Fetches and decodes the instruction at `pc` with the semantics of
    /// [`sp32::cfg::fetch`] over all of RAM, including an extension word
    /// on the next page.
    pub(crate) fn fetch(&self, pc: u32) -> Result<FetchedInstr, FetchError> {
        if !pc.is_multiple_of(4) {
            return Err(FetchError::Unfetchable);
        }
        let mut window = [0; 8];
        let n = self.len.saturating_sub(pc as usize).min(window.len());
        self.copy_out(pc as usize, &mut window[..n]);
        fetch(&window[..n], 0).map(|fetched| FetchedInstr { pc, ..fetched })
    }

    /// FNV-1a over every byte of RAM in address order, in O(pages) for
    /// untouched pages.
    pub(crate) fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for (index, page) in self.pages.iter().enumerate() {
            let page_len = (self.len - index * PAGE_SIZE).min(PAGE_SIZE);
            match page {
                Some(bytes) => {
                    for &byte in &bytes[..page_len] {
                        hash ^= u64::from(byte);
                        hash = hash.wrapping_mul(FNV_PRIME);
                    }
                }
                None if page_len == PAGE_SIZE => hash = hash.wrapping_mul(FNV_ZERO_PAGE),
                None => hash = hash.wrapping_mul(FNV_PRIME.wrapping_pow(page_len as u32)),
            }
        }
        hash
    }

    /// Copies RAM from `addr` into `out`; the range must lie inside RAM.
    fn copy_out(&self, mut addr: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let offset = addr & PAGE_MASK;
            let n = (PAGE_SIZE - offset).min(out.len() - done);
            out[done..done + n].copy_from_slice(&self.page(addr >> PAGE_SHIFT)[offset..offset + n]);
            done += n;
            addr += n;
        }
    }

    /// Copies `bytes` into RAM at `addr`, materialising the pages they
    /// cover; the range must lie inside RAM.
    fn copy_in(&mut self, mut addr: usize, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let offset = addr & PAGE_MASK;
            let n = (PAGE_SIZE - offset).min(bytes.len() - done);
            self.page_mut(addr >> PAGE_SHIFT)[offset..offset + n]
                .copy_from_slice(&bytes[done..done + n]);
            done += n;
            addr += n;
        }
    }
}
