//! Raw word-level memory images, and the one little-endian word codec.
//!
//! Every data structure of the retrieval unit lives in linearly organized
//! RAM blocks of 16-bit words (§4.1: "These lists can be easily mapped on
//! linear organized RAM-blocks if all list elements use the same word
//! length per entry"). [`MemImage`] models one such block with
//! bounds-checked reads — the BRAM simulator in `rqfa-hwsim` wraps it with
//! port/latency semantics, the soft-core maps it into its data address
//! space.
//!
//! The same words rest on disk (`rqfa-persist`'s WAL records and
//! snapshot containers) and travel the wire (`rqfa-net`'s frames) as
//! little-endian byte pairs. That codec is written here once: a
//! [`WordSink`] writes words — into a `Vec<u16>`, or as little-endian
//! bytes into a `Vec<u8>` — and [`LeWords`] reads them back where the
//! bytes lie.

use core::fmt;

use crate::error::MemError;

/// The reserved list-terminator word (`Listen Ende` in fig. 4/5).
pub const END_MARKER: u16 = 0xFFFF;

/// A list of 16-bit words wherever it lies — a `[u16]` in memory, or the
/// little-endian bytes of a frame still in a connection's receive buffer
/// — so that a decoder is written once and copies nothing to run.
pub trait Words {
    /// Number of words.
    fn len(&self) -> usize;

    /// Whether the list holds no words.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The word at `at`, `None` outside the list.
    fn get(&self, at: usize) -> Option<u16>;
}

impl<W: Words + ?Sized> Words for &W {
    fn len(&self) -> usize {
        W::len(self)
    }

    fn get(&self, at: usize) -> Option<u16> {
        W::get(self, at)
    }
}

impl Words for [u16] {
    fn len(&self) -> usize {
        <[u16]>::len(self)
    }

    fn get(&self, at: usize) -> Option<u16> {
        <[u16]>::get(self, at).copied()
    }
}

/// A word list as the little-endian bytes it rests and travels as, read
/// where they lie: a WAL record or snapshot section, or the payload of a
/// frame still in a connection's receive buffer.
#[derive(Debug, Clone, Copy)]
pub struct LeWords<'a>(&'a [u8]);

impl<'a> LeWords<'a> {
    /// Reads `bytes` as words, `None` on an odd byte count.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Option<LeWords<'a>> {
        bytes.len().is_multiple_of(2).then_some(LeWords(bytes))
    }

    /// The words from `at` on (`at` ≤ the length).
    pub fn tail(self, at: usize) -> LeWords<'a> {
        LeWords(&self.0[2 * at..])
    }

    /// The bytes the words lie in.
    pub fn as_bytes(self) -> &'a [u8] {
        self.0
    }

    /// The words copied out.
    pub fn to_words(self) -> Vec<u16> {
        // Sized up front, the copy compiles to one `memcpy` on a
        // little-endian host; a bare `collect` here sizes the vector by
        // a run-time division and copies word by word.
        let mut words = Vec::with_capacity(self.len());
        let pairs = self.0.chunks_exact(2);
        words.extend(pairs.map(|pair| u16::from_le_bytes([pair[0], pair[1]])));
        words
    }
}

impl Words for LeWords<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len() / 2
    }

    #[inline]
    fn get(&self, at: usize) -> Option<u16> {
        let pair = self.0.get(2 * at..2 * at + 2)?;
        Some(u16::from_le_bytes([pair[0], pair[1]]))
    }
}

/// Where words are written: a word vector, or — as [`LeWords`] reads
/// them back — the little-endian bytes of a record, a container or a
/// frame, written in place in the buffer they are stored or sent from.
pub trait WordSink {
    /// Appends one word.
    fn put_word(&mut self, word: u16);

    /// Appends each of `words`.
    fn put_words(&mut self, words: &[u16]) {
        words.iter().for_each(|word| self.put_word(*word));
    }
}

impl WordSink for Vec<u16> {
    #[inline]
    fn put_word(&mut self, word: u16) {
        self.push(word);
    }
}

impl WordSink for Vec<u8> {
    #[inline]
    fn put_word(&mut self, word: u16) {
        self.extend_from_slice(&word.to_le_bytes());
    }
}

/// A linear block of 16-bit words with 16-bit word addressing.
///
/// ```
/// use rqfa_memlist::{MemImage, END_MARKER};
///
/// let image = MemImage::from_words(vec![1, 2, END_MARKER])?;
/// assert_eq!(image.read(1)?, 2);
/// assert_eq!(image.len(), 3);
/// assert!(image.read(3).is_err());
/// # Ok::<(), rqfa_memlist::MemError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemImage {
    words: Vec<u16>,
}

impl MemImage {
    /// Wraps a word vector as an image.
    ///
    /// # Errors
    ///
    /// [`MemError::ImageTooLarge`] if more than `0xFFFF` words are given
    /// (word addresses are 16-bit, and `0xFFFF` doubles as terminator, so
    /// the largest addressable image is 65535 words).
    pub fn from_words(words: Vec<u16>) -> Result<MemImage, MemError> {
        if words.len() > usize::from(u16::MAX) {
            return Err(MemError::ImageTooLarge { words: words.len() });
        }
        Ok(MemImage { words })
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the image.
    pub fn read(&self, addr: u16) -> Result<u16, MemError> {
        self.words
            .get(usize::from(addr))
            .copied()
            .ok_or(MemError::OutOfRange {
                addr,
                len: self.words.len(),
            })
    }

    /// Reads two consecutive words in one access — the 32-bit wide-port
    /// fetch of the paper's compaction outlook ("loading IDs and values as
    /// blocks within one step").
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if either word lies outside the image.
    pub fn read_pair(&self, addr: u16) -> Result<(u16, u16), MemError> {
        Ok((self.read(addr)?, self.read(addr.wrapping_add(1))?))
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the image holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Size in bytes (2 bytes per word) — the unit of Table 3.
    pub fn bytes(&self) -> usize {
        self.words.len() * 2
    }

    /// The underlying words.
    pub fn words(&self) -> &[u16] {
        &self.words
    }

    /// Consumes the image, returning the word vector.
    pub fn into_words(self) -> Vec<u16> {
        self.words
    }

    /// Walks a terminated list region starting at `start`, returning the
    /// addresses span `[start, terminator]` (inclusive of the terminator).
    ///
    /// # Errors
    ///
    /// [`MemError::UnterminatedList`] if no terminator is found.
    pub fn list_span(&self, start: u16) -> Result<core::ops::RangeInclusive<u16>, MemError> {
        let mut addr = start;
        loop {
            match self.read(addr) {
                Ok(END_MARKER) => return Ok(start..=addr),
                Ok(_) => {
                    addr = addr
                        .checked_add(1)
                        .ok_or(MemError::UnterminatedList { start })?;
                }
                Err(_) => return Err(MemError::UnterminatedList { start }),
            }
        }
    }
}

impl fmt::Display for MemImage {
    /// Hex dump, eight words per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, chunk) in self.words.chunks(8).enumerate() {
            write!(f, "{:04x}:", i * 8)?;
            for w in chunk {
                write!(f, " {w:04x}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl TryFrom<Vec<u16>> for MemImage {
    type Error = MemError;

    fn try_from(words: Vec<u16>) -> Result<MemImage, MemError> {
        MemImage::from_words(words)
    }
}

/// Named sections of a built image: `(name, word range)` in build order.
pub type SectionMap = Vec<(String, core::ops::Range<usize>)>;

/// Incrementally builds an image, tracking section boundaries for the
/// memory-consumption report (Table 3).
#[derive(Debug, Clone, Default)]
pub struct ImageBuilder {
    words: Vec<u16>,
    sections: Vec<(String, core::ops::Range<usize>)>,
}

impl ImageBuilder {
    /// Creates an empty builder.
    pub fn new() -> ImageBuilder {
        ImageBuilder::default()
    }

    /// Current write position (the address the next word will get).
    ///
    /// Never panics. Past the 16-bit address space the value wraps; such
    /// an image never leaves the builder, because
    /// [`ImageBuilder::finish`] checks the length and refuses it.
    pub fn cursor(&self) -> u16 {
        self.words.len() as u16
    }

    /// Appends one word.
    pub fn push(&mut self, word: u16) -> &mut ImageBuilder {
        self.words.push(word);
        self
    }

    /// Appends a terminator word.
    pub fn terminate(&mut self) -> &mut ImageBuilder {
        self.words.push(END_MARKER);
        self
    }

    /// Overwrites a previously pushed word (pointer back-patching).
    ///
    /// # Panics
    ///
    /// Panics if `addr` has not been written yet — back-patching an
    /// unwritten address is a builder logic error, not input-dependent.
    pub fn patch(&mut self, addr: u16, word: u16) -> &mut ImageBuilder {
        self.words[usize::from(addr)] = word;
        self
    }

    /// Marks the section from `from` to the current cursor with a name.
    pub fn section(&mut self, name: impl Into<String>, from: u16) -> &mut ImageBuilder {
        self.sections
            .push((name.into(), usize::from(from)..self.words.len()));
        self
    }

    /// Finishes the image and returns it with its section map.
    ///
    /// # Errors
    ///
    /// [`MemError::ImageTooLarge`] if the image outgrew the address space.
    pub fn finish(self) -> Result<(MemImage, SectionMap), MemError> {
        Ok((MemImage::from_words(self.words)?, self.sections))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_and_bounds() {
        let img = MemImage::from_words(vec![10, 20, 30]).unwrap();
        assert_eq!(img.read(0).unwrap(), 10);
        assert_eq!(img.read(2).unwrap(), 30);
        assert!(matches!(img.read(3), Err(MemError::OutOfRange { .. })));
        assert_eq!(img.bytes(), 6);
        assert!(!img.is_empty());
    }

    #[test]
    fn read_pair_fetches_two_words() {
        let img = MemImage::from_words(vec![1, 2, 3]).unwrap();
        assert_eq!(img.read_pair(1).unwrap(), (2, 3));
        assert!(img.read_pair(2).is_err());
    }

    #[test]
    fn list_span_finds_terminator() {
        let img = MemImage::from_words(vec![1, 2, END_MARKER, 4]).unwrap();
        assert_eq!(img.list_span(0).unwrap(), 0..=2);
        assert_eq!(img.list_span(2).unwrap(), 2..=2);
        assert!(matches!(
            img.list_span(3),
            Err(MemError::UnterminatedList { start: 3 })
        ));
    }

    #[test]
    fn builder_patches_pointers() {
        let mut b = ImageBuilder::new();
        b.push(0); // placeholder pointer
        let start = b.cursor();
        b.push(42).terminate();
        b.patch(0, start);
        b.section("list", start);
        let (img, sections) = b.finish().unwrap();
        assert_eq!(img.read(0).unwrap(), 1);
        assert_eq!(img.read(1).unwrap(), 42);
        assert_eq!(sections[0].0, "list");
        assert_eq!(sections[0].1, 1..3);
    }

    #[test]
    fn oversize_image_rejected() {
        let words = vec![0u16; usize::from(u16::MAX) + 1];
        assert!(matches!(
            MemImage::from_words(words),
            Err(MemError::ImageTooLarge { .. })
        ));
    }

    #[test]
    fn le_words_read_back_what_a_byte_sink_wrote() {
        let words = [0u16, 1, 0x1234, 0xFF00, END_MARKER];
        let mut bytes = Vec::new();
        bytes.put_words(&words);
        bytes.put_word(7);
        assert_eq!(&bytes[4..6], &[0x34, 0x12], "low byte first");
        let back = LeWords::new(&bytes).unwrap();
        assert_eq!(back.len(), 6);
        assert_eq!(back.get(5), Some(7));
        assert_eq!(back.get(6), None);
        assert_eq!(back.tail(1).to_words(), [1, 0x1234, 0xFF00, END_MARKER, 7]);
        assert_eq!(back.as_bytes(), &bytes[..]);
        assert!(LeWords::new(&bytes[1..]).is_none());
    }

    #[test]
    fn hex_dump_formats() {
        let img = MemImage::from_words(vec![0xDEAD, 0xBEEF]).unwrap();
        let dump = img.to_string();
        assert!(dump.contains("dead") && dump.contains("beef"));
    }
}
