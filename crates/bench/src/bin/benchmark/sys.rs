//! The few operating-system calls the benchmark makes: the exit status
//! and peak resident memory of one finished child, and the peak resident
//! memory of a live process. Linux only, like the `/proc` files it reads.

use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads /proc and wait4(2) and runs on Linux only");

/// `struct timeval` as Linux lays it out.
#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` counters, of which only `ru_maxrss` is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

/// Waits for `child` to exit and reaps it. Returns its exit status and
/// its own peak resident set in KiB (`ru_maxrss` from wait4(2)), which
/// leaves out every other child this process has started.
pub fn wait_with_peak_rss(child: Child) -> Result<(ExitStatus, u64), String> {
    let pid = c_int::try_from(child.id()).map_err(|_| "child pid out of range".to_owned())?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values laid out
        // as the C `int` and `struct rusage` (`repr(C)`, Linux field order
        // and widths), and wait4 writes only within them.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {e}"));
        }
    }
    let peak_kb = u64::try_from(usage.ru_maxrss).unwrap_or(0);
    Ok((ExitStatus::from_raw(status), peak_kb))
}

/// A live process's peak resident set, in KiB (`VmHWM` in
/// `/proc/<pid>/status`).
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_kb(std::process::id()).is_some_and(|kb| kb > 0));
    }

    #[test]
    fn wait_gives_each_child_its_own_status_and_peak() {
        let ok = Command::new("true").spawn().expect("run true");
        let (status, peak_kb) = wait_with_peak_rss(ok).unwrap();
        assert!(status.success());
        assert!(peak_kb > 0);
        // A shell holding 16 MiB in a variable peaks far above `true`,
        // and waiting for it leaves the next child's figure unchanged.
        let big = Command::new("sh")
            .args(["-c", "x=$(head -c 16777216 /dev/zero | tr '\\0' a); exit 3"])
            .spawn()
            .expect("run sh");
        let (status, big_kb) = wait_with_peak_rss(big).unwrap();
        assert_eq!(status.code(), Some(3));
        assert!(big_kb > 12 * 1024, "{big_kb} KiB");
        let after = Command::new("true").spawn().expect("run true");
        let (_, after_kb) = wait_with_peak_rss(after).unwrap();
        assert!(after_kb < big_kb / 4, "{after_kb} vs {big_kb} KiB");
    }
}
