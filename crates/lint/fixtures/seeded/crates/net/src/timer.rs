// Seeded L009: timer.rs is a reactor module; the blocking sink lives
// one call away, in ../common.

pub fn on_tick() {
    crate::helpers::flush_index();
}
