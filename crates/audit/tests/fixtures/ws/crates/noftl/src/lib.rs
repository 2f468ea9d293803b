//! Fixture: noftl-layer violations. Mentioning `dev.peek(0)` or
//! `PageData` in doc comments must not trip anything.

pub fn diag(dev: &mut Dev) -> u8 {
    dev.peek(3)
}

pub fn fire_and_forget(dev: &mut Dev) {
    dev.submit_write(9);
}

pub fn write_sync(dev: &mut Dev) {
    dev.submit_write(7);
    dev.drain_completions();
}

pub fn submit_probe(dev: &mut Dev) {
    dev.submit_read(1);
}

pub fn compare(dev: &mut Dev) -> bool {
    // audit:allow(L001, reason = "fixture: demonstrate single suppression")
    dev.peek(1) == dev.peek(2)
}

#[cfg(test)]
mod tests {
    #[test]
    fn backdoors_and_leaks_in_tests_are_fine() {
        let mut dev = dev();
        assert_eq!(dev.peek(0), 0xFF);
        dev.submit_write(1);
        dev.open_span(1);
    }
}

// L006 seeds. Mentioning `open_span` in a comment must not trip anything.
pub fn leaky_episode(dev: &mut Dev) {
    let span = dev.open_span(3);
    dev.submit_write(5);
    dev.drain_completions();
    let _ = span;
}

pub fn traced_episode(dev: &mut Dev) {
    let span = dev.open_span(3);
    dev.submit_write(5);
    dev.drain_completions();
    dev.close_span(span);
}

pub fn begin_episode(dev: &mut Dev) -> u64 {
    dev.open_span(1)
}

pub fn reparent(dev: &mut Dev, parent: SpanId) {
    dev.open_span_under(1, parent);
}

// CFG-aware L004 seeds: an early `?` or a one-armed completion between
// submit and complete leaks even though `complete` is textually present;
// both-arm completion and `?` on the submit statement itself are fine.
pub fn risky_write(dev: &mut Dev) -> Result<(), FlashError> {
    let id = dev.submit_write(1);
    dev.read_oob()?;
    dev.complete(id);
    Ok(())
}

pub fn sometimes_completes(dev: &mut Dev, flag: bool) {
    let id = dev.submit_write(2);
    if flag {
        dev.complete(id);
    }
}

pub fn branch_complete(dev: &mut Dev, flag: bool) {
    let id = dev.submit_write(3);
    if flag {
        dev.complete(id);
    } else {
        dev.drain();
    }
}

pub fn checked_write(dev: &mut Dev) -> Result<(), FlashError> {
    let id = dev.submit_write(4)?;
    dev.complete(id);
    Ok(())
}

pub fn hand_back(dev: &mut Dev) -> CmdId {
    dev.submit_write(6)
}

// CFG-aware L006 seed: a span closed on only one branch arm leaks on the
// other; closing after a loop on the single exit path is fine.
pub fn flaky_span(dev: &mut Dev, flag: bool) {
    let span = dev.open_span(7);
    if flag {
        dev.close_span(span);
    }
}

pub fn looped_span(dev: &mut Dev) {
    let span = dev.open_span(2);
    for i in 0..3 {
        dev.submit_write(i);
        dev.drain();
    }
    dev.close_span(span);
}
