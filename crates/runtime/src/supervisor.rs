//! Checkpoint-based rank recovery for the `procs` backend.
//!
//! [`supervise`] wraps the launcher side of a multi-process training
//! run in a restart loop:
//!
//! 1. launch a worker generation (each generation carries a distinct
//!    epoch in its transport handshake, so stragglers from a fenced-off
//!    generation cannot connect to the new one);
//! 2. drive the training step loop, taking a distributed checkpoint
//!    (one [`shard`](crate::shard) per rank plus a `manifest.json`)
//!    every `checkpoint_every` steps;
//! 3. on a *recoverable* failure — a worker died ([`RuntimeError::RankLost`]),
//!    went silent ([`RuntimeError::RankTimeout`]), or the control plane
//!    broke ([`RuntimeError::Transport`]) — kill the surviving workers,
//!    wait out an exponential backoff, relaunch the whole world at the
//!    next epoch, restore the last checkpoint, and resume from there.
//!
//! Because the driver replays the *same* token ids every step and every
//! rank's state is exactly its checkpoint shard, a recovered run is
//! bit-identical to a fault-free one — the chaos e2e asserts equal
//! `--grad-hash` output. The run spec's fault plan is injected into the
//! first generation only; respawned generations run clean, otherwise a
//! `kill` fault would re-fire forever.

use crate::config::RuntimeError;
use crate::procs::{ProcsOptions, ProcsRuntime};
use actcomp_tensor::Tensor;
use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// First-retry backoff; doubles per consecutive restart.
const BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// How to run a supervised (restartable) multi-process training loop.
/// The experiment's run spec sets the checkpoint cadence and directory
/// and the restart budget; its batch geometry sets each step's shape.
pub struct SuperviseOptions {
    /// Launch options for each worker generation. `epoch` is the
    /// *starting* epoch; the supervisor bumps it on every restart.
    pub procs: ProcsOptions,
    /// Total training steps to run.
    pub steps: usize,
    /// SGD learning rate applied each step.
    pub lr: f32,
    /// Token ids replayed every step (determinism requires the driver,
    /// not the supervisor, to fix these once): `batch.micro_batch ×
    /// batch.seq` of them.
    pub ids: Vec<usize>,
}

/// One recovery incident: what failed, and where training resumed.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryEvent {
    /// Epoch of the generation that failed.
    pub epoch: u32,
    /// Step being executed when the failure surfaced.
    pub step: usize,
    /// Rendering of the triggering [`RuntimeError`].
    pub detail: String,
    /// Step the relaunched generation resumed from (0 = from scratch).
    pub resumed_from: usize,
    /// Backoff slept before relaunching, in milliseconds.
    pub backoff_ms: u64,
}

/// Everything that went wrong (and was survived) during a supervised
/// run. Serialized to `RECOVERY_trace.json` by the CLI.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryTrace {
    /// Number of generation restarts performed.
    pub restarts: usize,
    /// One entry per restart, in order.
    pub events: Vec<RecoveryEvent>,
}

/// The `manifest.json` beside the checkpoint shards: which step the
/// directory holds, which generation wrote it, and for which run.
#[derive(Serialize)]
struct Manifest {
    step: usize,
    epoch: u32,
    world: usize,
    config_hash: String,
}

/// Is this an error a relaunch could plausibly fix? Worker deaths,
/// silence, and broken connections are; config, spawn, protocol and
/// checkpoint-shard errors would just re-fire identically.
fn recoverable(e: &RuntimeError) -> bool {
    matches!(
        e,
        RuntimeError::RankLost { .. }
            | RuntimeError::RankTimeout { .. }
            | RuntimeError::Transport(_)
    )
}

/// Atomically writes the checkpoint manifest (temp file + rename), so a
/// launcher killed mid-write cannot leave a manifest pointing at shards
/// that were never taken.
fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), RuntimeError> {
    let io_err = |e: std::io::Error| RuntimeError::Protocol {
        detail: format!("writing checkpoint manifest: {e}"),
    };
    let json = serde_json::to_string_pretty(m).map_err(|e| RuntimeError::Protocol {
        detail: format!("encoding checkpoint manifest: {e}"),
    })?;
    let tmp = dir.join("manifest.json.tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(json.as_bytes()).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, dir.join("manifest.json")).map_err(io_err)
}

/// Runs `steps` training steps under restart supervision.
///
/// `on_step` is invoked once per *successful* step with the step index
/// and the final hidden states (the CLI prints the loss there). Steps
/// replayed after a restart from a checkpoint are **not** re-reported —
/// the observable step sequence matches a fault-free run. Steps re-run
/// because no checkpoint covered them *are* re-reported, flagged by the
/// recovery trace.
///
/// On success, returns the final (healthy) runtime — so the caller can
/// still `collect_grads` / `report` / `shutdown` — plus the recovery
/// trace. On failure, returns the last error after `max_restarts`
/// exhausted restarts, or immediately for non-recoverable errors.
pub fn supervise(
    opts: SuperviseOptions,
    on_step: &mut dyn FnMut(usize, &Tensor),
) -> Result<(ProcsRuntime, RecoveryTrace), RuntimeError> {
    let spec = opts.procs.cfg.run_spec();
    if spec.checkpoint_every == Some(0) {
        return Err(RuntimeError::Protocol {
            detail: "checkpoint interval must be at least 1 step".to_string(),
        });
    }
    let max_restarts = spec.max_restarts();
    let mut trace = RecoveryTrace::default();
    let base_epoch = opts.procs.epoch;
    let mut epoch = base_epoch;
    // Step the next generation resumes from == the last checkpointed
    // step (tracked here rather than re-read from the manifest; the
    // manifest is for humans and external tooling).
    let mut last_ckpt: usize = 0;

    loop {
        let mut procs = opts.procs.clone();
        procs.epoch = epoch;
        if let Some(rt) = procs.cfg.runtime.as_mut().filter(|_| epoch > base_epoch) {
            // The fault plan describes generation 0; re-injecting a
            // `kill` fault into the replacement would fail every
            // generation until max_restarts runs out.
            rt.fault = None;
        }

        // One generation: launch, restore, step until done or dead.
        let outcome = run_generation(procs, &opts, last_ckpt, epoch, &mut last_ckpt, on_step);
        match outcome {
            Ok(rt) => return Ok((rt, trace)),
            Err((step, e)) if recoverable(&e) => {
                trace.restarts += 1;
                if trace.restarts > max_restarts {
                    return Err(e);
                }
                let backoff = backoff_for(trace.restarts);
                trace.events.push(RecoveryEvent {
                    epoch,
                    step,
                    detail: e.to_string(),
                    resumed_from: last_ckpt,
                    backoff_ms: backoff.as_millis() as u64,
                });
                std::thread::sleep(backoff);
                epoch += 1;
            }
            Err((_, e)) => return Err(e),
        }
    }
}

/// Exponential backoff for the `attempt`-th restart (1-based).
fn backoff_for(attempt: usize) -> Duration {
    let exp = (attempt - 1).min(16) as u32;
    (BACKOFF_BASE * 2u32.pow(exp)).min(BACKOFF_CAP)
}

/// Launches one worker generation and drives it to completion. Errors
/// carry the step at which they surfaced (the launch/restore phase
/// reports the step it was about to resume from). Dropping the runtime
/// on the error path kills the generation's surviving workers, fencing
/// them off before the next generation launches.
fn run_generation(
    procs: ProcsOptions,
    opts: &SuperviseOptions,
    start_step: usize,
    epoch: u32,
    last_ckpt: &mut usize,
    on_step: &mut dyn FnMut(usize, &Tensor),
) -> Result<ProcsRuntime, (usize, RuntimeError)> {
    let exp = &opts.procs.cfg;
    let spec = exp.run_spec();
    let dir = Path::new(spec.checkpoint_dir());
    let mut rt = ProcsRuntime::launch(procs).map_err(|e| (start_step, e))?;
    if start_step > 0 {
        rt.restore(dir, start_step).map_err(|e| (start_step, e))?;
    }
    for step in start_step..opts.steps {
        let result = (|| -> Result<(), RuntimeError> {
            let y = rt.forward(&opts.ids, exp.batch.micro_batch, exp.batch.seq)?;
            on_step(step, &y);
            rt.zero_grad()?;
            rt.backward(&y)?;
            rt.sgd_step(opts.lr)?;
            if let Some(every) = spec.checkpoint_every {
                if (step + 1).is_multiple_of(every) && step + 1 < opts.steps {
                    rt.checkpoint(dir, step + 1)?;
                    write_manifest(
                        dir,
                        &Manifest {
                            step: step + 1,
                            epoch,
                            world: rt.world(),
                            config_hash: format!("{:016x}", rt.tag()),
                        },
                    )?;
                    *last_ckpt = step + 1;
                }
            }
            Ok(())
        })();
        result.map_err(|e| (step, e))?;
    }
    Ok(rt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_for(1), Duration::from_millis(100));
        assert_eq!(backoff_for(2), Duration::from_millis(200));
        assert_eq!(backoff_for(3), Duration::from_millis(400));
        assert_eq!(backoff_for(6), Duration::from_secs(2), "capped");
        assert_eq!(backoff_for(40), Duration::from_secs(2), "no overflow");
    }

    #[test]
    fn recoverable_classifies_errors() {
        assert!(recoverable(&RuntimeError::RankLost {
            rank: 1,
            error: actcomp_net::TransportError::PeerClosed {
                rank: Some(1),
                what: "gone".to_string(),
            },
        }));
        assert!(recoverable(&RuntimeError::RankTimeout {
            rank: 0,
            after: Duration::from_secs(1),
        }));
        assert!(!recoverable(&RuntimeError::Protocol {
            detail: "bad frame".to_string(),
        }));
        assert!(!recoverable(&RuntimeError::MpscUnsupported));
        assert!(!recoverable(&RuntimeError::Checkpoint {
            rank: 0,
            detail: "shard i/o: Not a directory".to_string(),
        }));
    }
}
