//! Empty offline stand-in: the workspace declares `crossbeam` but imports nothing from it.
