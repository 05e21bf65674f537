//! `rescc-lint --json` must write a document a JSON parser accepts,
//! whatever bytes the source path or the compile error carry.

use rescc_obs::parse_json;
use std::process::Command;

#[test]
fn json_output_escapes_every_string_field() {
    let dir = std::env::temp_dir().join(format!("rescc-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A quote and a backslash in the path, a control byte in the source:
    // the lexer quotes the byte back in its error.
    let path = dir.join("odd \"name\\.rcl");
    std::fs::write(&path, "\u{1}").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rescc-lint"))
        .arg(&path)
        .arg("--json")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!out.status.success(), "a compile error must fail the run");

    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = stdout.trim_end();
    // JSON strings may not hold raw control characters; the parser below
    // is lenient about them, so check separately.
    assert!(!json.chars().any(char::is_control), "{stdout:?}");
    let doc = parse_json(json).unwrap_or_else(|e| panic!("{e}: {stdout:?}"));
    let plan = &doc.get("plans").unwrap().as_arr().unwrap()[0];
    let field = |key: &str| plan.get(key).and_then(|v| v.as_str()).unwrap().to_string();
    assert_eq!(field("algo"), path.to_str().unwrap());
    assert_eq!(field("topology"), "a100-2x8");
    assert!(field("compile_error").contains('\u{1}'), "{stdout:?}");
}

#[test]
fn zero_cluster_dimension_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("rescc-zero-dim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.rcl");
    std::fs::write(&path, "").unwrap();
    let runs = [
        (env!("CARGO_BIN_EXE_rescc-lint"), "--nodes"),
        (env!("CARGO_BIN_EXE_rescc-lint"), "--gpus"),
        (env!("CARGO_BIN_EXE_resccl-compile"), "--nodes"),
        (env!("CARGO_BIN_EXE_resccl-compile"), "--gpus"),
    ];
    let outs: Vec<_> = runs
        .iter()
        .map(|(bin, flag)| {
            let out = Command::new(bin)
                .arg(&path)
                .args([*flag, "0"])
                .output()
                .unwrap();
            (bin, flag, out)
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    for (bin, flag, out) in outs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A usage error, not a topology assertion's panic (exit 101).
        assert_eq!(out.status.code(), Some(1), "{bin} {flag} 0: {stderr}");
        assert!(stderr.starts_with(&format!("{flag}: ")), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}
