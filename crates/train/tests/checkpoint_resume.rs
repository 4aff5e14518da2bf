//! The crash-safety contract, end to end: a grouped training run killed
//! at a deterministic point and resumed from its checkpoint directory
//! must reproduce the unkilled run's epoch curve **bitwise** — across
//! both toy architectures and both backward strategies — and every
//! injected checkpoint fault must degrade gracefully (fall back to an
//! older checkpoint or a cold start) instead of panicking.

use std::path::{Path, PathBuf};

use mbs_cnn::networks::toy;
use mbs_cnn::Network;
use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler, Schedule};
use mbs_train::data::{generate, Dataset};
use mbs_train::training::{train_grouped, TrainConfig, TrainError};
use mbs_train::{CheckpointConfig, CheckpointError, Fault, FaultPlan};

struct Case {
    name: &'static str,
    net: Network,
    schedule: Schedule,
    train_set: Dataset,
    val_set: Dataset,
}

fn cases() -> Vec<Case> {
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let resnet = toy::tiny_resnet(1, 8);
    let resnet_schedule = MbsScheduler::new(&resnet, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    let inception = toy::tiny_inception(8, 8);
    let inception_schedule = MbsScheduler::new(&inception, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    vec![
        Case {
            name: "tiny_resnet",
            net: resnet,
            schedule: resnet_schedule,
            train_set: generate(16, 32, 0.3, 61),
            val_set: generate(8, 32, 0.3, 62),
        },
        Case {
            name: "tiny_inception",
            net: inception,
            schedule: inception_schedule,
            train_set: generate(16, 8, 0.3, 63),
            val_set: generate(8, 8, 0.3, 64),
        },
    ]
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbsresume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch: 8,
        lr_milestones: vec![1],
        ..TrainConfig::default()
    }
}

fn ckpt(dir: &Path, every: usize, keep: usize) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        every_steps: every,
        keep,
        resume: true,
    }
}

/// The tentpole guarantee, as a matrix: {TinyResNet, TinyInception} ×
/// {cache stashing, backward replay}. Each cell kills the run after its
/// first (mid-epoch) checkpoint save, kills the first resume again one
/// save later, and requires the second resume to finish with an epoch
/// curve identical to the never-killed baseline.
#[test]
fn killed_and_resumed_runs_reproduce_the_baseline_curve() {
    for case in cases() {
        for stashing in [true, false] {
            let mut cfg = base_cfg();
            cfg.stashing = Some(stashing);
            let baseline = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            )
            .expect("baseline run");

            let label = format!("{}-stash{}", case.name, stashing);
            let dir = scratch(&label);
            // 16 samples / batch 8 = 2 steps per epoch: every_steps = 1
            // puts the first save mid-epoch, where resume is hardest.
            cfg.checkpoint = Some(ckpt(&dir, 1, 3));
            cfg.fault_plan = Some(FaultPlan::kill_after(1));
            let killed = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            );
            assert!(
                matches!(killed, Err(TrainError::Killed { saves: 1 })),
                "{label}: first run should die after one save: {killed:?}"
            );

            // Kill the first resume too: crashes during recovery must
            // also be recoverable.
            cfg.fault_plan = Some(FaultPlan::kill_after(1));
            let killed_again = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            );
            assert!(
                matches!(killed_again, Err(TrainError::Killed { .. })),
                "{label}: second run should also die: {killed_again:?}"
            );

            cfg.fault_plan = None;
            let resumed = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            )
            .expect("resumed run");
            assert_eq!(
                resumed, baseline,
                "{label}: resumed curve must match the unkilled baseline bitwise"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Resuming a directory whose newest checkpoints are damaged must fall
/// back to the newest intact one — for every fault kind — and still
/// reproduce the baseline.
#[test]
fn corrupt_checkpoints_fall_back_without_losing_equivalence() {
    let case = &cases()[1]; // inception is the cheaper of the two
    let mut cfg = base_cfg();
    let baseline = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("baseline run");

    for (label, fault) in [
        ("torn", Fault::KillMidWrite),
        ("truncated", Fault::Truncate(25)),
        ("flipped", Fault::FlipByte(60)),
    ] {
        let dir = scratch(&format!("fault-{label}"));
        cfg.checkpoint = Some(ckpt(&dir, 1, 4));
        // Save 0 lands intact; save 1 is damaged; die after save 2.
        cfg.fault_plan = Some(FaultPlan {
            faults: vec![(1, fault)],
            kill_after_saves: Some(2),
        });
        let killed = train_grouped(
            &case.net,
            &case.schedule,
            &case.train_set,
            &case.val_set,
            &cfg,
        );
        assert!(killed.is_err(), "{label}: run should die");

        cfg.fault_plan = None;
        let resumed = train_grouped(
            &case.net,
            &case.schedule,
            &case.train_set,
            &case.val_set,
            &cfg,
        )
        .expect("resume must survive a damaged newest checkpoint");
        assert_eq!(resumed, baseline, "{label}: fallback resume must match");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// When *every* checkpoint in the directory is damaged, resume degrades
/// to a cold start — same curve, no panic, no error.
#[test]
fn all_corrupt_checkpoints_degrade_to_a_cold_start() {
    let case = &cases()[1];
    let mut cfg = base_cfg();
    let baseline = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("baseline run");

    let dir = scratch("all-corrupt");
    cfg.checkpoint = Some(ckpt(&dir, 1, 4));
    cfg.fault_plan = Some(FaultPlan {
        faults: vec![(0, Fault::Truncate(30)), (1, Fault::FlipByte(11))],
        kill_after_saves: Some(2),
    });
    assert!(train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .is_err());

    cfg.fault_plan = None;
    let resumed = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("cold start past corrupt files");
    assert_eq!(resumed, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint directory from a *different* (network, schedule) pair is
/// a hard error, never a silent wrong-weights resume.
#[test]
fn mismatched_checkpoint_directory_is_refused() {
    let all = cases();
    let (a, b) = (&all[0], &all[1]);
    let dir = scratch("mismatch");
    let mut cfg = base_cfg();
    cfg.epochs = 1;
    cfg.checkpoint = Some(ckpt(&dir, 0, 3));
    train_grouped(&a.net, &a.schedule, &a.train_set, &a.val_set, &cfg).expect("seed the dir");

    let err = train_grouped(&b.net, &b.schedule, &b.train_set, &b.val_set, &cfg)
        .expect_err("resuming another net's directory must fail");
    match err {
        TrainError::Checkpoint(CheckpointError::FingerprintMismatch { net, .. }) => {
            assert_eq!(net, "TinyResNet1");
        }
        other => panic!("want FingerprintMismatch, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A diverged run (a NaN learning rate poisons every parameter on the
/// first step) cannot checkpoint: the save is refused as a structured
/// error, and the directory gains no file a resume could pick up.
#[test]
fn diverged_state_is_refused_at_save() {
    let case = &cases()[0];
    let dir = scratch("diverged");
    let mut cfg = base_cfg();
    cfg.base_lr = f32::NAN;
    cfg.checkpoint = Some(ckpt(&dir, 1, 3));
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect_err("a NaN model must not checkpoint");
    assert!(
        matches!(
            err,
            TrainError::Checkpoint(CheckpointError::NonFinite {
                section: "model",
                ..
            })
        ),
        "want NonFinite in the model, got {err}"
    );
    let left = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    assert_eq!(left, 0, "a refused save leaves nothing behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming a directory whose newest checkpoint is already at the final
/// epoch returns the stored curve without training further.
#[test]
fn resume_from_a_finished_run_returns_the_full_curve() {
    let case = &cases()[1];
    let dir = scratch("finished");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ckpt(&dir, 0, 3));
    let first = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("first run");
    let second = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("re-run resumes from the final checkpoint");
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The structured pre-validation errors: each input disagreement is
/// reported by name before any training work happens.
#[test]
fn input_mismatches_are_structured_errors() {
    let case = &cases()[0];
    let cfg = base_cfg();

    // Images whose spatial size does not match the network input.
    let wrong_images = generate(8, 8, 0.3, 71);
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &wrong_images,
        &case.val_set,
        &cfg,
    )
    .expect_err("8x8 images into a 32x32 net");
    match err {
        TrainError::DatasetMismatch {
            net,
            split,
            expected,
            found,
        } => {
            assert_eq!(net, "TinyResNet1");
            assert_eq!(split, "train");
            assert_eq!(expected, [3, 32, 32]);
            assert_eq!(found, vec![8, 3, 8, 8]);
        }
        other => panic!("want DatasetMismatch, got {other}"),
    }

    // A label list that disagrees with the image count.
    let mut torn_labels = generate(8, 32, 0.3, 72);
    torn_labels.labels.pop();
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &torn_labels,
        &cfg,
    )
    .expect_err("missing label");
    match err {
        TrainError::LabelMismatch {
            split,
            images,
            labels,
        } => {
            assert_eq!((split, images, labels), ("validation", 8, 7));
        }
        other => panic!("want LabelMismatch, got {other}"),
    }

    // A schedule planned for a deeper network (more nodes).
    let deeper = toy::tiny_resnet(2, 8);
    let other_schedule = MbsScheduler::new(
        &deeper,
        &HardwareConfig::cpu().with_global_buffer(3 * 1024),
        ExecConfig::Mbs1,
    )
    .with_batch(8)
    .schedule();
    let err = train_grouped(
        &case.net,
        &other_schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect_err("schedule covers the wrong node count");
    match err {
        TrainError::ScheduleMismatch {
            net,
            schedule_nodes,
            net_nodes,
            first_uncovered,
        } => {
            assert_eq!(net, "TinyResNet1");
            assert_ne!(schedule_nodes, net_nodes);
            // The inception plan is shorter, so some resnet node is named.
            if schedule_nodes < net_nodes {
                assert!(first_uncovered.is_some());
            }
        }
        other => panic!("want ScheduleMismatch, got {other}"),
    }
}
