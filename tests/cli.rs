//! `verifai-cli` and `verifai-serve` argument handling, through the built
//! binaries.

use std::process::Command;

/// A misspelt or miscased scale is a usage error, not a silent `tiny`.
#[test]
fn unknown_scale_exits_nonzero_with_usage() {
    for args in [["experiments", "smal"], ["lake", "Paper"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_verifai-cli"))
            .args(args)
            .output()
            .expect("run verifai-cli");
        assert!(!out.status.success(), "{args:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown scale") && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

/// A tenant list the service cannot honour is a usage error: a repeated
/// name leaves its first entry unreachable, and a NaN rate would admit
/// without limit.
#[test]
fn serve_rejects_repeated_tenants_and_non_finite_rates() {
    for (tenants, complaint) in [
        ("acme:1,acme:2", "named twice"),
        ("acme:1,beta:2:nan", "finite number"),
        ("acme:1:5:inf", "finite number"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_verifai-serve"))
            .args(["--requests", "20", "--canary-every", "0", "--tenants"])
            .arg(tenants)
            .output()
            .expect("run verifai-serve");
        assert!(!out.status.success(), "--tenants {tenants} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(complaint) && stderr.contains("usage:"),
            "--tenants {tenants}: {stderr}"
        );
    }
}
