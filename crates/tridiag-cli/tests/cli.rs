//! End-to-end tests of the `tridiag` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tridiag"))
        .args(args)
        .output()
        .expect("spawn tridiag");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn solve_reports_residual_and_model_time() {
    let (ok, stdout, stderr) = run(&["solve", "--m", "4", "--n", "128", "--verbose"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("residual"), "{stdout}");
    assert!(stdout.contains("modeled time"), "{stdout}");
    assert!(stdout.contains("tiled_pcr") || stdout.contains("p_thomas"), "{stdout}");
}

#[test]
fn solve_cpu_engines_and_precisions() {
    for engine in ["cpu", "cpu-mt"] {
        let (ok, stdout, stderr) =
            run(&["solve", "--m", "3", "--n", "64", "--engine", engine]);
        assert!(ok, "{engine}: {stderr}");
        assert!(stdout.contains("residual"), "{stdout}");
    }
    let (ok, stdout, _) = run(&["solve", "--m", "2", "--n", "64", "--precision", "f32"]);
    assert!(ok);
    assert!(stdout.contains("(f32)"), "{stdout}");
}

#[test]
fn compare_lists_every_engine() {
    let (ok, stdout, stderr) = run(&["compare", "--m", "4", "--n", "128"]);
    assert!(ok, "stderr: {stderr}");
    for engine in ["cpu", "cpu-mt", "gpu", "davidson", "zhang"] {
        assert!(stdout.contains(engine), "missing {engine}: {stdout}");
    }
}

#[test]
fn info_prints_spec_for_every_device() {
    for device in ["gtx480", "gtx280", "c2050"] {
        let (ok, stdout, stderr) = run(&["info", "--device", device]);
        assert!(ok, "{device}: {stderr}");
        assert!(stdout.contains("occupancy sheet"), "{stdout}");
        assert!(stdout.contains("parallelism"), "{stdout}");
    }
}

#[test]
fn bad_input_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (ok2, _, stderr2) = run(&["solve", "--engine", "abacus"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown engine"), "{stderr2}");
    let (ok3, _, stderr3) = run(&["solve", "--n", "banana"]);
    assert!(!ok3);
    assert!(stderr3.contains("cannot parse"), "{stderr3}");
    // An option the subcommand does not read is a usage error naming
    // it, never silently ignored.
    for (args, opt) in [
        (&["solve", "--m", "8", "--n", "256", "--sanitise"][..], "--sanitise"),
        (&["verify", "--negative"][..], "--negative"),
        (&["plan", "--sweep"][..], "--sweep"),
        (&["stats", "--negative"][..], "--negative"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tridiag"))
            .args(args)
            .output()
            .expect("spawn tridiag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown option {opt}")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn plan_json_validates_against_the_solve_plan_schema() {
    let (ok, stdout, stderr) = run(&["plan", "--m", "64", "--n", "512", "--json"]);
    assert!(ok, "stderr: {stderr}");
    let doc = gpu_sim::json::parse(stdout.trim()).expect("plan --json prints one JSON document");
    let problems = tridiag_gpu::validate_plan_json(&doc);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn multi_device_plan_json_validates_against_the_v2_schema() {
    for args in [
        &["plan", "--devices", "2", "--json"][..],
        &["plan", "--split-n", "2", "--n", "16384", "--json"][..],
    ] {
        let (ok, stdout, stderr) = run(args);
        assert!(ok, "{args:?}: stderr: {stderr}");
        let doc = gpu_sim::json::parse(stdout.trim())
            .unwrap_or_else(|e| panic!("{args:?}: unparseable JSON: {e}"));
        let problems = tridiag_gpu::validate_distributed_plan_json(&doc);
        assert!(problems.is_empty(), "{args:?}: {problems:?}");
    }
}
