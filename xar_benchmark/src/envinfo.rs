//! The environment block stamped into every result: enough to tell two
//! machines (or two toolchains) apart before comparing their numbers.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The filesystem type backing `dir`: the longest mount point in
/// `/proc/mounts` that prefixes it.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Seconds since the epoch as `YYYY-MM-DDThh:mm:ssZ` (civil-from-days).
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (doy - (153 * mp + 2) / 5 + 1, if mp < 10 { mp + 3 } else { mp - 9 });
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, rem % 3600 / 60, rem % 60)
}

pub fn collect(durability_dir: &Path) -> Json {
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let hostname = read("/proc/sys/kernel/hostname").trim().to_string();
    Json::obj(vec![
        // Outside a git checkout (the driver's copy) there is no commit.
        (
            "commit",
            Json::str(
                command_line("git", &["rev-parse", "--short=12", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("date", Json::str(utc_now())),
        ("machine", Json::str(format!("{hostname}/{nproc}x {cpu}"))),
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease").trim())),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("cpu_model", Json::str(cpu)),
        ("durability_fs", Json::str(fs_type(durability_dir))),
        ("link", Json::str("loopback (127.0.0.1), same host")),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn utc_stamp_is_well_formed() {
        let s = super::utc_now();
        assert_eq!(s.len(), 20, "{s}");
        assert!(s.starts_with("20") && s.ends_with('Z'));
    }
}
