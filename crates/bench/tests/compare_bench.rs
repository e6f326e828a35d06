//! Bin-level contract of the identity harness, on the built binaries:
//! `compare_bench` has one mode (exit 0 same / 1 different / 2 bad input)
//! and `bench_all` rejects a command line it does not fully understand.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use predis_bench::{BenchArtifact, BenchEntry, EngineEntry, MemEntry, BENCH_SCHEMA_VERSION};

fn artifact() -> BenchArtifact {
    let entry = BenchEntry {
        tps: 12_000.0,
        p50_latency_ms: 40.0,
        p99_latency_ms: 80.0,
        bytes: 1_000,
        payload_clones: 42,
        events_processed: 9_000,
        fingerprint: "00112233445566778899aabbccddeeff".into(),
        mem: MemEntry {
            resident_bytes: 1_000_000,
            bytes_per_node: 1_000,
        },
        engine: EngineEntry {
            threads: 1,
            partition_events: vec![],
            windows: 0,
        },
    };
    BenchArtifact {
        runs: [("fig4_pbft".to_string(), entry)].into(),
    }
}

/// Writes `base` with `edit` applied to its one run as `dir/name`.
fn write(dir: &Path, name: &str, edit: impl FnOnce(&mut BenchEntry)) -> PathBuf {
    let mut a = artifact();
    edit(a.runs.get_mut("fig4_pbft").unwrap());
    let path = dir.join(name);
    a.write(&path).expect("write artifact");
    path
}

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(bin).args(args).output().expect("spawn");
    let text = String::from_utf8_lossy(&stdout).into_owned() + &String::from_utf8_lossy(&stderr);
    (status.code().expect("exit code"), text)
}

#[test]
fn compare_bench_has_one_mode_and_three_exit_codes() {
    let dir = std::env::temp_dir().join(format!("predis-compare-bench-{}", std::process::id()));
    let base = write(&dir, "base.json", |_| {});
    let same = write(&dir, "same.json", |_| {});
    let flipped = write(&dir, "flipped.json", |e| {
        e.fingerprint = "ffffffffffffffffffffffffffffffff".into()
    });
    let mem_21 = write(&dir, "mem21.json", |e| e.mem.bytes_per_node = 1_210);
    let mem_19 = write(&dir, "mem19.json", |e| e.mem.bytes_per_node = 1_190);
    let threaded = write(&dir, "threaded.json", |e| {
        e.engine = EngineEntry {
            threads: 2,
            partition_events: vec![4_000, 5_000],
            windows: 77,
        };
    });
    let schema_10 = dir.join("schema10.json");
    let stale = artifact().to_json().replace(
        &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
        "\"schema_version\": 10",
    );
    std::fs::write(&schema_10, stale).expect("write stale artifact");
    let missing = dir.join("no-such-file.json");

    let compare = |new: &Path, extra: &[&str]| {
        let mut args = vec![base.to_str().unwrap(), new.to_str().unwrap()];
        args.extend_from_slice(extra);
        run(env!("CARGO_BIN_EXE_compare_bench"), &args)
    };
    for (new, extra, want_code, want_text) in [
        (&same, &[][..], 0, "identical: 1 runs match"),
        (&flipped, &[], 1, "trace_diff"),
        (&mem_21, &[], 1, "per-node memory 1000 -> 1210 B"),
        (&mem_19, &[], 0, "identical"),
        (&threaded, &[], 0, "identical"),
        (&same, &["--strict"], 2, "usage: compare_bench"),
        (&missing, &[], 2, "cannot read"),
        (&schema_10, &[], 2, "schema_version 10"),
    ] {
        let (code, text) = compare(new, extra);
        assert_eq!(code, want_code, "{} {extra:?}: {text}", new.display());
        assert!(
            text.contains(want_text),
            "{} {extra:?}: {text}",
            new.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Both exit before any simulation starts.
#[test]
fn bench_all_rejects_a_command_line_it_does_not_understand() {
    for (args, want) in [
        (
            &["--only", "fig8_star_1mb", "--quik"][..],
            "unknown argument `--quik`",
        ),
        (
            &["--quick", "--only", "fig8_star_1mb", "--out"],
            "flag `--out` wants a value",
        ),
    ] {
        let (code, text) = run(env!("CARGO_BIN_EXE_bench_all"), args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(
            text.contains(want) && text.contains("usage: bench_all"),
            "{args:?}: {text}"
        );
    }
}
