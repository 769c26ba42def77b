//! Panic isolation primitive: run one task, catch its panic as data.

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding.
///
/// This is the isolation boundary of cq-serve's workers: a cell that
/// panics fails *as a value* and becomes one `cell_error` frame, so the
/// worker thread and every sibling cell keep running. `&str` and
/// `String` panic payloads are rendered verbatim; any other payload type
/// becomes a placeholder. The panic hook still runs, so the panic is
/// reported on stderr as usual.
///
/// Note the contrast with [`crate::Pool::parallel_map`], which
/// deliberately *propagates* worker panics (fail-stop is the right
/// default for the deterministic kernels). `catch_task` is for callers
/// that opted into degraded completion.
///
/// # Examples
///
/// ```
/// assert_eq!(cq_par::catch_task(|| 21 * 2), Ok(42));
/// let err = cq_par::catch_task(|| -> u32 { panic!("bad cell") }).unwrap_err();
/// assert_eq!(err, "bad cell");
/// ```
pub fn catch_task<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => {
            cq_obs::counter!("par.panic_caught").incr();
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Err(message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_passes_through() {
        assert_eq!(catch_task(|| "ok"), Ok("ok"));
    }

    #[test]
    fn str_and_string_payloads_render_verbatim() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let e1 = catch_task(|| -> () { panic!("literal payload") }).unwrap_err();
        let e2 = catch_task(|| -> () { panic!("formatted {}", 7) }).unwrap_err();
        let e3 = catch_task(|| -> () { std::panic::panic_any(42u32) }).unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(e1, "literal payload");
        assert_eq!(e2, "formatted 7");
        assert_eq!(e3, "<non-string panic payload>");
    }

    #[test]
    fn thread_survives_a_caught_panic() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = catch_task(|| -> u8 { panic!("boom") });
        std::panic::set_hook(prev);
        assert!(r.is_err());
        // Still on a live, usable thread.
        assert_eq!(catch_task(|| 1 + 1), Ok(2));
    }
}
