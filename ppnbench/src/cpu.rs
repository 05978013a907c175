//! Processor time the benchmark's process has used.
//!
//! The end-to-end cost metrics divide processor time by the operations it
//! bought. On a shared virtual machine, wall time also counts the spells in
//! which the hypervisor runs other tenants on our cores; the kernel keeps
//! that steal time out of a task's run time, so processor time moves with
//! the program and far less with the host's other load.

/// `USER_HZ`: the unit of the `/proc/<pid>/stat` time fields, 100 on every
/// Linux architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system time of every thread of this process, living or
/// exited, in seconds (10 ms resolution); NaN where `/proc` is unreadable,
/// which fails the run as an unmeasured metric.
pub(crate) fn process_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return f64::NAN };
    // Fields after the parenthesised command name start at field 3, state;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return f64::NAN };
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<u64>().ok());
    match (ticks(), ticks()) {
        (Some(user), Some(system)) => (user + system) as f64 / TICKS_PER_SECOND,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn process_time_advances_with_work() {
        let t0 = super::process_seconds();
        let mut x = 0u64;
        while super::process_seconds() - t0 < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(t0.is_finite() && t0 >= 0.0);
    }
}
