//! Pins the schedule-driven execution acceptance claims: for a
//! per-sample-normalized model lowered from the IR, a [`GroupedExecutor`]
//! running a multi-group schedule with *distinct* per-group sub-batch
//! sizes produces parameter updates matching `train_step_full` within the
//! same tolerance the uniform `train_step_mbs` already meets — whatever
//! schedule the MBS scheduler (or a hand-built grouping) picks, whether
//! backward consumes **cache stashes** (the default) or **replays** chunk
//! forwards (`MBS_STASH=0`), and across the lowering's whole structural
//! range (residual, Inception-concat, and LRN+FC AlexNet-style toys).
//! Under `MBS_PREC=bf16` the same claims hold with the tolerance widened
//! to the bf16 storage rounding budget (see [`tol`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_cnn::networks::toy;
use mbs_core::{ExecConfig, Group, HardwareConfig, MbsScheduler, Schedule};
use mbs_train::executor::{train_step_full, train_step_mbs};
use mbs_train::grouped::GroupedExecutor;
use mbs_train::lower::{lower, LoweredNet};
use mbs_train::Module;
use mbs_train::{data::generate, Sgd};

fn lowered_pair(net: &mbs_cnn::Network, seed: u64) -> (LoweredNet, LoweredNet) {
    let a = lower(net, &mut StdRng::seed_from_u64(seed)).expect("net must lower");
    let b = lower(net, &mut StdRng::seed_from_u64(seed)).expect("net must lower");
    (a, b)
}

/// Loss/parameter tolerance: the uniform executor's f32 pin, widened to
/// the bf16 rounding budget when `MBS_PREC=bf16` stores group boundaries
/// and cache stashes at half precision (one round-to-nearest-even per
/// element, relative error ≤ 2⁻⁸; observed diffs sit well under 2e-2).
fn tol(f32_tol: f32) -> f32 {
    match mbs_tensor::prec::precision() {
        mbs_tensor::prec::Precision::F32 => f32_tol,
        mbs_tensor::prec::Precision::Bf16 => f32_tol.max(2e-2),
    }
}

fn max_param_diff(a: &mut LoweredNet, b: &mut LoweredNet) -> f32 {
    let mut pa = Vec::new();
    a.visit_params(&mut |p| pa.push(p.value.clone()));
    let mut i = 0;
    let mut worst = 0.0f32;
    b.visit_params(&mut |p| {
        worst = worst.max(pa[i].max_abs_diff(&p.value));
        i += 1;
    });
    worst
}

/// The headline equivalence: grouped execution over a hand-built
/// three-group schedule (sub-batches 2 / 4 / 8 over a batch of 8 — all
/// distinct, so every boundary genuinely re-slices) matches full-batch
/// training on a GN model.
#[test]
fn grouped_multi_group_step_matches_full_batch_step() {
    let net = toy::runtime_mix(8, 8);
    let nodes = net.nodes().len();
    assert!(nodes >= 3, "need at least three groups");
    let schedule = Schedule::new(
        ExecConfig::Mbs1,
        8,
        vec![
            Group::new(0, 2, 2, 8),
            Group::new(2, nodes - 1, 4, 8),
            Group::new(nodes - 1, nodes, 8, 8),
        ],
        true,
    );
    let subs = schedule.sub_batches();
    assert_eq!(
        subs,
        vec![2, 4, 8],
        "per-group sub-batches must be distinct"
    );

    let d = generate(8, 8, 0.3, 91);
    let (mut full, mut grouped) = lowered_pair(&net, 21);
    let mut opt_a = Sgd::new(0.05, 0.9, 1e-4);
    let mut opt_b = Sgd::new(0.05, 0.9, 1e-4);
    let mut exec = GroupedExecutor::new(&schedule, grouped.len());
    for _ in 0..3 {
        let l_full = train_step_full(&mut full, &d.images, &d.labels, &mut opt_a);
        let l_grp = exec.train_step(&mut grouped, &d.images, &d.labels, &mut opt_b);
        assert!(
            (l_full - l_grp).abs() < tol(1e-4),
            "losses {l_full} vs {l_grp}"
        );
    }
    let diff = max_param_diff(&mut full, &mut grouped);
    // Same tolerance `gn_mbs_step_equals_full_batch_step` pins for the
    // uniform executor.
    assert!(
        diff < tol(5e-4),
        "grouped GN training diverged from full-batch: {diff}"
    );
}

/// The same equivalence with the schedule chosen by the real scheduler
/// against a CPU cache budget — the full IR → schedule → runtime pipeline.
#[test]
fn scheduler_chosen_schedule_is_faithful() {
    let net = toy::runtime_mix(8, 8);
    // A small budget forces genuine serialization at toy scale; the exact
    // grouping is the scheduler's choice.
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
    assert!(
        schedule.groups().len() >= 2,
        "budget should split the net: {:?}",
        schedule.sub_batches()
    );

    let d = generate(8, 8, 0.3, 92);
    let (mut full, mut grouped) = lowered_pair(&net, 22);
    let mut opt_a = Sgd::new(0.05, 0.9, 1e-4);
    let mut opt_b = Sgd::new(0.05, 0.9, 1e-4);
    let mut exec = GroupedExecutor::new(&schedule, grouped.len());
    for _ in 0..2 {
        let _ = train_step_full(&mut full, &d.images, &d.labels, &mut opt_a);
        let _ = exec.train_step(&mut grouped, &d.images, &d.labels, &mut opt_b);
    }
    let diff = max_param_diff(&mut full, &mut grouped);
    assert!(
        diff < tol(5e-4),
        "scheduler-driven training diverged: {diff}"
    );
}

/// Grouped execution also agrees with the *uniform* serialized executor
/// (both accumulate the same gradients), and a single-group schedule
/// degenerates to it exactly.
#[test]
fn single_group_schedule_degenerates_to_uniform_mbs() {
    let net = toy::runtime_mix(8, 8);
    let nodes = net.nodes().len();
    let schedule = Schedule::new(ExecConfig::MbsFs, 8, vec![Group::new(0, nodes, 3, 8)], true);
    let d = generate(8, 8, 0.3, 93);
    let (mut uniform, mut grouped) = lowered_pair(&net, 23);
    let mut opt_a = Sgd::new(0.05, 0.9, 1e-4);
    let mut opt_b = Sgd::new(0.05, 0.9, 1e-4);
    let mut exec = GroupedExecutor::new(&schedule, grouped.len());
    for _ in 0..2 {
        let l_u = train_step_mbs(&mut uniform, &d.images, &d.labels, 3, &mut opt_a);
        let l_g = exec.train_step(&mut grouped, &d.images, &d.labels, &mut opt_b);
        assert!((l_u - l_g).abs() < tol(1e-4), "losses {l_u} vs {l_g}");
    }
    let diff = max_param_diff(&mut uniform, &mut grouped);
    assert!(
        diff < tol(5e-4),
        "single-group grouped != uniform MBS: {diff}"
    );
}

/// The full equivalence matrix over the newly lowerable network shapes:
/// {InceptionV3 toy, AlexNet toy} × {hand-built, scheduler-chosen}
/// schedules × {stash, replay} backward. Every cell must match
/// `train_step_full` within the uniform executor's tolerance, and the two
/// backward strategies must agree with *each other* bitwise.
#[test]
fn equivalence_matrix_inception_and_alexnet_toys() {
    let nets = [toy::tiny_inception(8, 8), toy::tiny_alexnet(8, 8)];
    for (ni, net) in nets.iter().enumerate() {
        let nodes = net.nodes().len();
        let hand = Schedule::new(
            ExecConfig::Mbs1,
            8,
            vec![
                Group::new(0, nodes / 2, 2, 8),
                Group::new(nodes / 2, nodes, 4, 8),
            ],
            true,
        );
        // A small cache budget so the scheduler genuinely serializes the
        // toy; the exact grouping is its choice.
        let hw = HardwareConfig::cpu().with_global_buffer(2 * 1024);
        let chosen = MbsScheduler::new(net, &hw, ExecConfig::Mbs1)
            .with_batch(8)
            .schedule();
        assert!(
            chosen.groups().iter().any(|g| g.iterations > 1),
            "{}: budget must force serialization, got subs {:?}",
            net.name(),
            chosen.sub_batches()
        );
        let d = generate(8, 8, 0.3, 95 + ni as u64);
        for (si, schedule) in [&hand, &chosen].into_iter().enumerate() {
            let mut stash_params: Option<Vec<mbs_tensor::Tensor>> = None;
            for stashing in [true, false] {
                let (mut full, mut grouped) = lowered_pair(net, 31 + ni as u64);
                let mut opt_a = Sgd::new(0.05, 0.9, 1e-4);
                let mut opt_b = Sgd::new(0.05, 0.9, 1e-4);
                let mut exec = GroupedExecutor::new(schedule, grouped.len());
                exec.set_stashing(stashing);
                for _ in 0..2 {
                    let l_full = train_step_full(&mut full, &d.images, &d.labels, &mut opt_a);
                    let l_grp = exec.train_step(&mut grouped, &d.images, &d.labels, &mut opt_b);
                    assert!(
                        (l_full - l_grp).abs() < tol(1e-4),
                        "{} sched{si} stash={stashing}: losses {l_full} vs {l_grp}",
                        net.name()
                    );
                }
                let diff = max_param_diff(&mut full, &mut grouped);
                assert!(
                    diff < tol(5e-4),
                    "{} sched{si} stash={stashing}: diverged from full batch by {diff}",
                    net.name()
                );
                // At f32 storage, stash and replay must agree bitwise, not
                // just in tolerance: replay recomputes exactly what
                // stashing saved. At bf16 the two quantize at different
                // points (stash re-encodes computed caches; replay
                // recomputes from the quantized boundary), so they are
                // only tolerance-equal.
                let mut params = Vec::new();
                grouped.visit_params(&mut |p| params.push(p.value.clone()));
                match &stash_params {
                    None => stash_params = Some(params),
                    Some(reference) => {
                        for (i, (a, b)) in reference.iter().zip(&params).enumerate() {
                            if mbs_tensor::prec::precision() == mbs_tensor::prec::Precision::F32 {
                                assert_eq!(
                                    a,
                                    b,
                                    "{} sched{si} param {i}: stash != replay",
                                    net.name()
                                );
                            } else {
                                let d = a.max_abs_diff(b);
                                assert!(
                                    d < tol(0.0),
                                    "{} sched{si} param {i}: stash vs replay diff {d}",
                                    net.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Full-network acceptance: a scheduler-chosen grouped train step on the
/// real `inception_v3()` (299×299, concat blocks, avg pools) and
/// `alexnet()` (227×227, LRN, big FCs) matches the uniform serialized
/// executor within tolerance. Full-size single-core compute — minutes in
/// release, far longer in the debug profile `cargo test` uses — so it is
/// opt-in:
///
/// ```sh
/// cargo test --release -p mbs-train --test grouped_exec -- --ignored
/// ```
#[test]
#[ignore = "full-size networks (minutes of compute): run with --release -- --ignored"]
fn full_networks_complete_scheduler_chosen_grouped_steps() {
    for (net, size) in [
        (mbs_cnn::networks::alexnet(), 227usize),
        (mbs_cnn::networks::inception_v3(), 299),
    ] {
        let hw = HardwareConfig::cpu();
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(2)
            .schedule();
        let d = generate(2, size, 0.3, 99);
        let (mut uniform, mut grouped) = lowered_pair(&net, 41);
        let mut oa = Sgd::new(0.01, 0.9, 0.0);
        let mut ob = Sgd::new(0.01, 0.9, 0.0);
        let mut exec = GroupedExecutor::new(&schedule, grouped.len());
        let lu = train_step_mbs(
            &mut uniform,
            &d.images,
            &d.labels,
            schedule.min_sub_batch(),
            &mut oa,
        );
        let lg = exec.train_step(&mut grouped, &d.images, &d.labels, &mut ob);
        assert!(
            (lu - lg).abs() < 1e-3,
            "{}: losses {lu} vs {lg}",
            net.name()
        );
        let diff = max_param_diff(&mut uniform, &mut grouped);
        assert!(
            diff < 5e-4,
            "{}: grouped step diverged from uniform by {diff}",
            net.name()
        );
    }
}

/// Grouped training actually learns (loss falls over steps) on a network
/// built from `mbs_cnn::networks` — the lowered-IR path exercised
/// end-to-end.
#[test]
fn grouped_training_reduces_loss() {
    let net = toy::runtime_mix(8, 8);
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
    let d = generate(32, 8, 0.25, 94);
    let mut model = lower(&net, &mut StdRng::seed_from_u64(7)).unwrap();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut exec = GroupedExecutor::new(&schedule, model.len());
    let first = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
    let mut last = first;
    for _ in 0..12 {
        last = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
    }
    assert!(last < first, "loss should fall: {first} -> {last}");
}

/// `train_step` discards the input gradient, so group 0's first node —
/// the stem conv here — runs a params-only backward that skips its
/// data-gradient GEMM. Its parameter gradients, and so the parameters
/// and the optimizer momentum after every step, must equal those of the
/// full `backward_from_logits` path bit for bit.
#[test]
fn params_only_first_node_backward_matches_full_backward_bitwise() {
    use mbs_tensor::ops::{cross_entropy, softmax, softmax_xent_backward};
    use mbs_train::StateDict;

    let net = toy::runtime_mix(8, 8);
    let nodes = net.nodes().len();
    let schedule = Schedule::new(
        ExecConfig::Mbs1,
        8,
        vec![Group::new(0, 2, 2, 8), Group::new(2, nodes, 8, 8)],
        true,
    );
    let d = generate(8, 8, 0.3, 93);
    let (mut a, mut b) = lowered_pair(&net, 23);
    let mut opt_a = Sgd::new(0.05, 0.9, 1e-4);
    let mut opt_b = Sgd::new(0.05, 0.9, 1e-4);
    let mut exec_a = GroupedExecutor::new(&schedule, a.len());
    let mut exec_b = GroupedExecutor::new(&schedule, b.len());
    for _ in 0..3 {
        let la = exec_a.train_step(&mut a, &d.images, &d.labels, &mut opt_a);
        b.zero_grad();
        let probs = softmax(exec_b.forward(&mut b, &d.images, true));
        let lb = cross_entropy(&probs, &d.labels);
        let dlogits = softmax_xent_backward(&probs, &d.labels, 8);
        let dx = exec_b.backward_from_logits(&mut b, &d.images, dlogits);
        assert_eq!(dx.shape(), d.images.shape(), "the full path returns dx");
        opt_b.step(&mut b);
        assert_eq!(la.to_bits(), lb.to_bits(), "losses");
    }
    let state_bits = |m: &mut LoweredNet, o: &Sgd| {
        let mut dict = StateDict::default();
        m.export_state(&mut dict);
        o.export_state(&mut dict);
        dict.into_entries()
            .into_iter()
            .flat_map(|e| e.data)
            .map(f32::to_bits)
            .collect::<Vec<u32>>()
    };
    let (sa, sb) = (state_bits(&mut a, &opt_a), state_bits(&mut b, &opt_b));
    assert!(!sa.is_empty());
    assert!(sa == sb, "parameters or momentum differ");
}
