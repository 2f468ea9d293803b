//! Fixture: engine-layer violations.

use ipa_flash::Chip;

pub fn scribble(page: &mut PageData) {
    page.main()[0] = 0;
}

pub fn spare(page: &Page) -> u8 {
    page.oob()[0]
}

// audit:allow(L001, reason = "fixture: this pragma matches nothing")
pub fn clean() {}

// audit:allow(L001)
pub fn also_clean() {}

// A use-tree that names only the checked device API is not a raw import.
use ipa_flash::{FlashDevice, Ppa};
