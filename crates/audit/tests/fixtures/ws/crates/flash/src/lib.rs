//! Fixture: the flash layer itself. Raw cell access is its job, so L001
//! never fires here; L005 still applies (flash is a measured crate).

pub struct PageData;

impl PageData {
    pub fn main(&mut self) -> u8 {
        0
    }
}

#[derive(Default)]
pub struct EraseStats {
    pub erases: u64,
}

#[must_use]
pub struct WearCounters;

struct PrivateStats;
