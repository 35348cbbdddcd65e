//! The operation sequence is a function of the seed alone.

use ncx_perfbench::inputs::{Op, OpKind, OpStream};

fn take(mut s: OpStream, n: usize) -> Vec<Op> {
    (0..n).map(|_| s.next_op()).collect()
}

#[test]
fn same_seed_same_sequence() {
    for make in [OpStream::uniform, OpStream::zipf] {
        assert_eq!(
            take(make(7, 2, 2951, 3), 5000),
            take(make(7, 2, 2951, 3), 5000)
        );
    }
}

#[test]
fn other_seed_other_sequence() {
    for make in [OpStream::uniform, OpStream::zipf] {
        let a = take(make(7, 2, 2951, 3), 1000);
        let b = take(make(8, 2, 2951, 3), 1000);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 50, "{same} of 1000 operations coincide");
    }
}

#[test]
fn mix_and_popularity_follow_the_spec() {
    let ops = take(OpStream::uniform(1, 2, 2951, 3), 40_000);
    let rollups = ops.iter().filter(|o| o.kind == OpKind::Rollup).count() as f64 / ops.len() as f64;
    assert!((rollups - 0.75).abs() < 0.01, "roll-up share {rollups}");

    // Zipf(1): the most popular query is drawn about 1 / H(2951) ≈ 12% of
    // the time; under the uniform stream no query comes close.
    let top_share = |ops: &[Op]| {
        let mut counts = vec![0usize; 2951];
        ops.iter().for_each(|o| counts[o.query] += 1);
        *counts.iter().max().unwrap() as f64 / ops.len() as f64
    };
    let zipf = take(OpStream::zipf(1, 2, 2951, 3), 40_000);
    assert!(
        (top_share(&zipf) - 0.115).abs() < 0.01,
        "top share {}",
        top_share(&zipf)
    );
    assert!(top_share(&ops) < 0.002);
}
