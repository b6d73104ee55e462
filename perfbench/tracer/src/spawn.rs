//! `perfbench-tracer spawn <result-file> <program> [args...]`: runs one
//! program process and records its own CPU time and peak resident set.
//!
//! A child's `ru_maxrss` starts at its parent's resident set at fork
//! time, so a program spawned straight from `run.py` (Python) would
//! report the interpreter's memory. Spawned from this small process
//! instead, the figure is the program's own. The result file gets one
//! line, `<cpu seconds> <peak RSS kB>`; the exit code is the program's.

use std::process::{Command, ExitCode, Stdio};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is 64-bit Linux's");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

pub fn spawn(args: &[String]) -> Result<ExitCode, String> {
    let [result, program, rest @ ..] = args else {
        return Err("spawn needs <result-file> <program> [args...]".to_string());
    };
    let status = Command::new(program)
        .args(rest)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{program}: {e}"))?;
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
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // platform's layout, and `getrusage` writes only within it.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err("getrusage failed".to_string());
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    let cpu = secs(&usage.ru_utime) + secs(&usage.ru_stime);
    std::fs::write(result, format!("{cpu} {}\n", usage.ru_maxrss))
        .map_err(|e| format!("{result}: {e}"))?;
    Ok(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    })
}
