//! Fixture: the flash layer itself. Raw cell access is its job, so L001
//! never fires here.

pub struct PageData;

impl PageData {
    pub fn main(&mut self) -> u8 {
        0
    }
}

pub fn backdoor(dev: &Dev) -> u8 {
    dev.peek(0)
}
