//! The append-only store behind the observation records that have no
//! cap: it grows `N` records at a time, so what it holds is never
//! copied to a larger allocation, and capacity past the last record is
//! never touched.

/// Records in chunks of `N`, all full but the last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Chunks<T, const N: usize>(Vec<Vec<T>>);

impl<T, const N: usize> Default for Chunks<T, N> {
    fn default() -> Self {
        Chunks(Vec::new())
    }
}

impl<T, const N: usize> Chunks<T, N> {
    /// Appends `record`, opening a chunk when the last one is full.
    pub(crate) fn push(&mut self, record: T) {
        if self.0.last().is_none_or(|chunk| chunk.len() == N) {
            self.0.push(Vec::with_capacity(N));
        }
        self.0.last_mut().expect("a chunk with room").push(record);
    }

    /// The records in the order they were pushed.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Chunks allocated so far.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.0.len()
    }
}
