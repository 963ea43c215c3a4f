//! `verifai-cli` argument handling, through the built binary.

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
