// Seeded L008: a panic in a worker-thread fn's own body.

pub fn dispatch(q: &mut std::collections::VecDeque<u64>) -> u64 {
    q.pop_front().unwrap()
}
