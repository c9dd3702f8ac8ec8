//! The workspace's plan cache: keyed so two different graphs never share
//! a plan, bounded however many shapes come by, and `Send` with its owner.

use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::{FusePolicy, OutBind, PLAN_CACHE_CAP};
use actcomp_tensor::Workspace;
use std::sync::Arc;

/// `x[m,4] · w[4,4]` through `tail`, which marks the outputs.
fn product(m: usize, tail: impl FnOnce(&mut Graph, usize, usize)) -> Graph {
    let mut g = Graph::new();
    let x = g.input(m, 4);
    let w = g.input(4, 4);
    let y = g.matmul(x, w);
    tail(&mut g, y, w);
    g
}

fn scaled(s: f32) -> Graph {
    product(4, |g, y, _| {
        let v = g.scale(y, s);
        g.mark_output(v);
    })
}

fn normed(eps: f32) -> Graph {
    product(4, |g, y, _| {
        let gamma = g.input_vec(4);
        let beta = g.input_vec(4);
        let (v, _, _) = g.layernorm(y, gamma, beta, eps);
        g.mark_output(v);
    })
}

/// `gelu(y)` and `y` itself, marked in the given order (`None`: only
/// the activation).
fn outputs(order: Option<[usize; 2]>) -> Graph {
    product(4, |g, y, _| {
        let a = g.gelu(y);
        match order {
            None => g.mark_output(a),
            Some(order) => order.iter().for_each(|&i| g.mark_output([a, y][i])),
        }
    })
}

fn second_product(nt: bool) -> Graph {
    product(4, |g, y, w| {
        let v = if nt {
            g.matmul_nt(y, w)
        } else {
            g.matmul_tn(y, w)
        };
        g.mark_output(v);
    })
}

#[test]
fn graphs_that_differ_in_one_respect_never_share_a_plan() {
    use FusePolicy::{Auto, Forced};
    let plain = |m| product(m, |g, y, _| g.mark_output(y));
    // In `scaled`, value 2 is the GEMM and 3 its scale.
    type Keyed = (Graph, FusePolicy);
    let table: Vec<(&str, Keyed, Keyed)> = vec![
        ("scale constant", (scaled(0.5), Auto), (scaled(0.25), Auto)),
        (
            "scale sign of zero",
            (scaled(0.0), Auto),
            (scaled(-0.0), Auto),
        ),
        ("eps", (normed(1e-5), Auto), (normed(1e-6), Auto)),
        (
            "which outputs",
            (outputs(None), Auto),
            (outputs(Some([0, 1])), Auto),
        ),
        (
            "output order",
            (outputs(Some([0, 1])), Auto),
            (outputs(Some([1, 0])), Auto),
        ),
        (
            "policy",
            (scaled(0.5), Auto),
            (scaled(0.5), Forced(vec![2])),
        ),
        (
            "forced list",
            (scaled(0.5), Forced(vec![])),
            (scaled(0.5), Forced(vec![2])),
        ),
        ("one dimension", (plain(4), Auto), (plain(5), Auto)),
        (
            "tn vs nt",
            (second_product(false), Auto),
            (second_product(true), Auto),
        ),
    ];
    for (what, (ga, pa), (gb, pb)) in table {
        let mut ws = Workspace::new();
        let a = ws.plan(&ga, pa.clone()).unwrap();
        let b = ws.plan(&gb, pb).unwrap();
        assert_eq!(
            ws.plan_compiles(),
            2,
            "{what}: second graph hit the first's plan"
        );
        assert!(!Arc::ptr_eq(&a, &b), "{what}");
        assert!(
            Arc::ptr_eq(&a, &ws.plan(&ga, pa).unwrap()),
            "{what}: lost its own plan"
        );
        assert_eq!(ws.plan_compiles(), 2, "{what}");
    }
}

#[test]
fn the_cap_holds_and_evicted_plans_come_back_right() {
    let x: Vec<f32> = (0..10 * PLAN_CACHE_CAP * 4)
        .map(|i| (i % 17) as f32 - 8.0)
        .collect();
    let w: Vec<f32> = (0..16).map(|i| 0.25 * i as f32 - 1.0).collect();
    let graph = |m| product(m, |g, y, _| g.mark_output(y));
    let mut ws = Workspace::new();
    let check = |ws: &mut Workspace, m: usize| {
        let run = |plan: &actcomp_tensor::plan::CompiledPlan, ws: &mut Workspace| {
            plan.run(&[&x[..m * 4], &w], vec![OutBind::Lease], ws)
                .remove(0)
                .unwrap()
        };
        let cached = ws.plan(&graph(m), FusePolicy::Auto).unwrap();
        let fresh = graph(m).compile(FusePolicy::Auto).unwrap();
        let (got, want) = (run(&cached, ws), run(&fresh, &mut Workspace::new()));
        assert!(
            got.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "m = {m}"
        );
    };
    for m in 1..=10 * PLAN_CACHE_CAP {
        check(&mut ws, m);
        assert!(ws.cached_plans() <= PLAN_CACHE_CAP);
    }
    let seen = 10 * PLAN_CACHE_CAP as u64;
    assert_eq!(
        ws.plan_compiles(),
        seen,
        "every distinct shape compiled once"
    );
    assert_eq!(ws.cached_plans(), PLAN_CACHE_CAP);
    // The most recent shapes are still resident; the first was evicted
    // long ago and compiles again, to the same bits.
    check(&mut ws, 10 * PLAN_CACHE_CAP);
    assert_eq!(ws.plan_compiles(), seen);
    check(&mut ws, 1);
    assert_eq!(ws.plan_compiles(), seen + 1);
    assert_eq!(ws.cached_plans(), PLAN_CACHE_CAP);
}

#[test]
fn a_failed_compile_caches_nothing() {
    // A scale with a second reader cannot be forced into the epilogue.
    let g = product(4, |g, y, _| {
        let v = g.scale(y, 0.5);
        g.mark_output(y);
        g.mark_output(v);
        let extra = g.gelu(y);
        g.mark_output(extra);
    });
    let mut ws = Workspace::new();
    assert!(ws.plan(&g, FusePolicy::Forced(vec![2])).is_err());
    assert_eq!((ws.plan_compiles(), ws.cached_plans()), (0, 0));
}

/// A rank's workspace is built by the launcher and moved into the rank's
/// thread, plans included.
#[test]
fn workspace_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Workspace>();
}
