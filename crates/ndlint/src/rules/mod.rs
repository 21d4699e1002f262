//! The seven rule families plus directive hygiene.

pub mod blocking_lock;
pub mod channel_policy;
pub mod directives;
pub mod lock_order;
pub mod panic_surface;
pub mod relaxed;
pub mod wire_dispatch;
