// Seeded L009: a condvar wait in a reactor-thread fn's own body.

pub fn drain(cv: &std::sync::Condvar, g: std::sync::MutexGuard<'_, bool>) {
    let _g = cv.wait(g);
}
