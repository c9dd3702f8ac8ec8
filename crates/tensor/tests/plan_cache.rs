//! The workspace's plan cache: keyed by builder and arguments so two keys
//! never share a plan, compiling only on a miss, bounded however many
//! shapes come by, and `Send` with its owner.

use actcomp_tensor::graph::{Graph, GraphError};
use actcomp_tensor::plan::{CompiledPlan, FusePolicy, OutBind, PlanKey, PLAN_CACHE_CAP};
use actcomp_tensor::Workspace;
use std::sync::Arc;
use FusePolicy::{Auto, Forced};

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

fn key(builder: &'static str, arg: usize) -> PlanKey {
    PlanKey {
        builder,
        args: [arg, 0, 0, 0],
    }
}

/// This file's graph builders, as `actcomp-nn`'s are: each key names
/// the graph and policy its one argument selects.
fn compile(k: PlanKey) -> Result<CompiledPlan, GraphError> {
    let (a, f) = (k.args[0], f32::from_bits(k.args[0] as u32));
    let (g, policy) = match k.builder {
        "scaled" => (scaled(f), Auto),
        "forced" => (scaled(0.5), Forced(vec![2; a.min(1)])),
        "normed" => (normed(f), Auto),
        "outputs" => (outputs([None, Some([0, 1]), Some([1, 0])][a]), Auto),
        "plain" => (product(a, |g, y, _| g.mark_output(y)), Auto),
        "product" => (second_product(a == 1), Auto),
        _ => unreachable!("no builder {}", k.builder),
    };
    g.compile(policy)
}

#[test]
fn graphs_that_differ_in_one_respect_never_share_a_plan() {
    let bits = |s: f32| s.to_bits() as usize;
    // Keys that differ in the one argument that tells their graphs
    // apart. In `scaled`, value 2 is the GEMM and 3 its scale.
    let table = [
        (
            "scale constant",
            key("scaled", bits(0.5)),
            key("scaled", bits(0.25)),
        ),
        (
            "scale sign of zero",
            key("scaled", bits(0.0)),
            key("scaled", bits(-0.0)),
        ),
        ("eps", key("normed", bits(1e-5)), key("normed", bits(1e-6))),
        ("which outputs", key("outputs", 0), key("outputs", 1)),
        ("output order", key("outputs", 1), key("outputs", 2)),
        ("policy", key("scaled", bits(0.5)), key("forced", 1)),
        ("forced list", key("forced", 0), key("forced", 1)),
        ("one dimension", key("plain", 4), key("plain", 5)),
        ("tn vs nt", key("product", 0), key("product", 1)),
    ];
    for (what, ka, kb) in table {
        let mut ws = Workspace::new();
        let a = ws.plan(ka, || compile(ka)).unwrap();
        let b = ws.plan(kb, || compile(kb)).unwrap();
        assert_eq!(
            ws.plan_compiles(),
            2,
            "{what}: second key hit the first's plan"
        );
        assert!(!Arc::ptr_eq(&a, &b), "{what}");
        assert!(
            Arc::ptr_eq(&a, &ws.plan(ka, || unreachable!("{what}: a hit")).unwrap()),
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
        let run = |plan: &CompiledPlan, ws: &mut Workspace| {
            let mut out = [OutBind::Lease];
            plan.run(&[&x[..m * 4], &w], &mut out, ws);
            let [y] = out.map(OutBind::leased);
            y
        };
        let cached = ws
            .plan(key("plain", m), || compile(key("plain", m)))
            .unwrap();
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
    let forced = || g.compile(FusePolicy::Forced(vec![2]));
    assert!(ws.plan(key("forced", 2), forced).is_err());
    assert_eq!((ws.plan_compiles(), ws.cached_plans()), (0, 0));
    // The key stays free: the next lookup compiles again.
    assert!(ws.plan(key("forced", 2), forced).is_err());
    assert_eq!((ws.plan_compiles(), ws.cached_plans()), (0, 0));
}

/// A rank's workspace is built by the launcher and moved into the rank's
/// thread, plans included.
#[test]
fn workspace_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Workspace>();
}
