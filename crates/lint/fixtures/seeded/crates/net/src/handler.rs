// Seeded L008: the panic lives one call away, in ../common, reachable
// in the call graph.

pub fn on_frame(b: &[u8]) -> u64 {
    crate::helpers::decode_frame(b)
}
