//! Empty offline stand-in: the workspace declares `bytes` but imports nothing from it.
