//! Empty offline stand-in: the workspace declares `parking_lot` but imports nothing from it.
