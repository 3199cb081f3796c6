//! Seeded request pools of the three service workloads, with the expected
//! answer of every distinct request.
//!
//! Everything here runs before timing starts, from `--seed` alone: the
//! same seed gives the same request bytes and the same expected bytes.

use disparity_model::edit::{apply_all, SpecEdit};
use disparity_model::json::Value;
use disparity_model::spec::SystemSpec;
use disparity_model::time::Duration;
use disparity_rng::rngs::StdRng;
use disparity_rng::Rng;
use disparity_service::proto::ok_line_prerendered;
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};

use crate::oracle::{disparity_result, optimize_result, quoted};
use crate::workload::{Scale, Workload};

/// Shards of the service's graph cache (`ShardedCache` keys by
/// `canonical_hash % 8`, LRU per shard).
const CACHE_SHARDS: u64 = 8;

/// The request pool of one service workload.
#[derive(Debug, Clone)]
pub struct ServiceInputs {
    /// Distinct request bodies: the JSON members that follow `"id":N,`.
    pub bodies: Vec<String>,
    /// The rendered `result` payload each body must be answered with.
    pub results: Vec<String>,
    /// Bodies sent once during set-up, before any phase (seated bases).
    pub seating: Vec<usize>,
    /// The body of the n-th request is `schedule[n % schedule.len()]`.
    pub schedule: Vec<usize>,
}

impl ServiceInputs {
    /// Body index of the request with sequence number `n`.
    #[must_use]
    pub fn body_of(&self, n: u64) -> usize {
        self.schedule[(n % self.schedule.len() as u64) as usize]
    }

    /// Appends the wire line of request `id` with body `body` (one JSON
    /// object plus its newline) to `out`.
    pub fn write_line(&self, out: &mut Vec<u8>, id: u64, body: usize) {
        out.extend_from_slice(b"{\"id\":");
        out.extend_from_slice(id.to_string().as_bytes());
        out.push(b',');
        out.extend_from_slice(self.bodies[body].as_bytes());
        out.extend_from_slice(b"}\n");
    }

    /// The response line (trace id removed) request `id` with body
    /// `body` must get.
    #[must_use]
    pub fn expected_line(&self, id: u64, body: usize) -> String {
        let id = Value::Int(i64::try_from(id).unwrap_or(i64::MAX));
        ok_line_prerendered(&id, &self.results[body])
    }

    /// Whether body `body` is a `patch` request.
    #[must_use]
    pub fn is_patch(&self, body: usize) -> bool {
        self.bodies[body].starts_with("\"op\":\"patch\"")
    }
}

/// A sub-stream of the run's seed, one per purpose, so adding draws to
/// one pool never shifts another.
#[must_use]
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds the pool of a service workload.
///
/// # Errors
///
/// When generation or an oracle fails (a bug: every generated request is
/// meant to succeed).
pub fn service_inputs(
    workload: Workload,
    seed: u64,
    scale: Scale,
) -> Result<ServiceInputs, String> {
    match workload {
        Workload::ColdFusion => cold_fusion(seed, scale.cold_specs()),
        Workload::DesignSession => design_session(seed, scale.design_edits()),
        Workload::OptimizePlans => optimize_plans(seed, scale.optimize_specs()),
        Workload::SimSweep => Err("sim_sweep has no service inputs".to_string()),
    }
}

fn funnel_spec(widths: &[usize], rng: &mut StdRng) -> Result<SystemSpec, String> {
    let config = FunnelConfig {
        stage_widths: widths.to_vec(),
        ..FunnelConfig::default()
    };
    let graph = schedulable_funnel_system(&config, rng, 256).map_err(|e| format!("funnel: {e}"))?;
    Ok(SystemSpec::from_graph(&graph))
}

/// Name of the single sink of a funnel spec (`s<last stage>_0`).
fn sink_of(spec: &SystemSpec, widths: &[usize]) -> Result<String, String> {
    let name = format!("s{}_0", widths.len() - 1);
    if spec.tasks.iter().any(|t| t.name == name) {
        Ok(name)
    } else {
        Err(format!("funnel has no task {name}"))
    }
}

fn disparity_body(spec: &SystemSpec, task: &str) -> String {
    format!(
        "\"op\":\"disparity\",\"task\":{},\"spec\":{}",
        quoted(task),
        spec.to_json()
    )
}

fn cold_fusion(seed: u64, specs: usize) -> Result<ServiceInputs, String> {
    const WIDTHS: [usize; 5] = [8, 6, 4, 2, 1];
    let mut rng = stream(seed, 1);
    let mut seen = std::collections::HashSet::new();
    let mut bodies = Vec::with_capacity(specs);
    let mut results = Vec::with_capacity(specs);
    while bodies.len() < specs {
        let spec = funnel_spec(&WIDTHS, &mut rng)?;
        if !seen.insert(spec.canonical_hash()) {
            continue;
        }
        let task = sink_of(&spec, &WIDTHS)?;
        results.push(disparity_result(&spec, &task)?);
        bodies.push(disparity_body(&spec, &task));
    }
    Ok(ServiceInputs {
        schedule: (0..bodies.len()).collect(),
        bodies,
        results,
        seating: Vec::new(),
    })
}

/// One seated base of the design session.
struct Base {
    spec: SystemSpec,
    task: String,
    hash: u64,
}

/// Draws one single-field edit of `spec`; schedulability and the
/// cache-shard placement are checked by the caller.
fn draw_edit(spec: &SystemSpec, rng: &mut StdRng) -> Option<SpecEdit> {
    let computations: Vec<_> = spec.tasks.iter().filter(|t| t.ecu.is_some()).collect();
    match rng.gen_range(0..5u32) {
        0 => {
            let t = computations[rng.gen_range(0..computations.len())];
            let (lo, hi) = (t.bcet.as_nanos(), t.wcet.as_nanos() + t.wcet.as_nanos() / 4);
            Some(SpecEdit::SetWcet {
                task: t.name.clone(),
                wcet: Duration::from_nanos(rng.gen_range(lo..=hi)),
            })
        }
        1 => {
            let t = computations[rng.gen_range(0..computations.len())];
            Some(SpecEdit::SetBcet {
                task: t.name.clone(),
                bcet: Duration::from_nanos(rng.gen_range(0..=t.wcet.as_nanos())),
            })
        }
        2 => {
            let t = &spec.tasks[rng.gen_range(0..spec.tasks.len())];
            let factor = [0.5, 0.8, 1.25, 2.0][rng.gen_range(0..4usize)];
            Some(SpecEdit::SetPeriod {
                task: t.name.clone(),
                period: Duration::from_nanos((t.period.as_nanos() as f64 * factor) as i64),
            })
        }
        3 => {
            let a = computations[rng.gen_range(0..computations.len())];
            let peers: Vec<_> = computations
                .iter()
                .filter(|t| t.ecu == a.ecu && t.name != a.name)
                .collect();
            let b = peers.get(rng.gen_range(0..peers.len().max(1)))?;
            Some(SpecEdit::SwapPriority {
                a: a.name.clone(),
                b: b.name.clone(),
            })
        }
        _ => {
            let c = &spec.channels[rng.gen_range(0..spec.channels.len())];
            let capacity = rng.gen_range(1..=4usize);
            (capacity != c.capacity).then(|| SpecEdit::ResizeBuffer {
                from: c.from.clone(),
                to: c.to.clone(),
                capacity,
            })
        }
    }
}

/// Eight small bases, each alone in its own cache shard, plus a pool of
/// fresh single-field edits per base whose edited spec lands in the
/// base's shard. A shard then only ever holds one base and that base's
/// derived entries, and every insert into it comes from a `patch` that
/// touched the base just before: the LRU keeps every base seated, so no
/// `patch` ever meets an evicted base.
fn design_session(seed: u64, edits: usize) -> Result<ServiceInputs, String> {
    const SHAPES: [&[usize]; 2] = [&[4, 3, 2, 1], &[6, 4, 2, 1]];
    const BASES: usize = 8;
    let mut rng = stream(seed, 2);
    let mut bases: Vec<Base> = Vec::with_capacity(BASES);
    while bases.len() < BASES {
        let widths = SHAPES[bases.len() % 2];
        let spec = funnel_spec(widths, &mut rng)?;
        let hash = spec.canonical_hash();
        if bases
            .iter()
            .any(|b| b.hash % CACHE_SHARDS == hash % CACHE_SHARDS)
        {
            continue;
        }
        let task = sink_of(&spec, widths)?;
        bases.push(Base { spec, task, hash });
    }

    let mut bodies = Vec::new();
    let mut results = Vec::new();
    for base in &bases {
        results.push(disparity_result(&base.spec, &base.task)?);
        bodies.push(disparity_body(&base.spec, &base.task));
    }
    let per_base = (edits / BASES).max(1);
    let mut seen = std::collections::HashSet::new();
    let mut fresh: Vec<Vec<usize>> = vec![Vec::new(); BASES];
    for (b, base) in bases.iter().enumerate() {
        let mut attempts = 0usize;
        while fresh[b].len() < per_base {
            attempts += 1;
            if attempts > per_base * 200 {
                return Err(format!(
                    "design_session: base {b} yields too few admissible edits"
                ));
            }
            let Some(edit) = draw_edit(&base.spec, &mut rng) else {
                continue;
            };
            let mut edited = base.spec.clone();
            if apply_all(&mut edited, std::slice::from_ref(&edit)).is_err() {
                continue;
            }
            let hash = edited.canonical_hash();
            if hash % CACHE_SHARDS != base.hash % CACHE_SHARDS
                || hash == base.hash
                || !seen.insert(hash)
            {
                continue;
            }
            let Ok(result) = disparity_result(&edited, &base.task) else {
                continue; // would be refused (unschedulable): not a request this session sends
            };
            fresh[b].push(bodies.len());
            results.push(result);
            bodies.push(format!(
                "\"op\":\"patch\",\"base\":\"{:016x}\",\"edits\":[{}],\"task\":{}",
                base.hash,
                edit.to_json(),
                quoted(&base.task)
            ));
        }
    }

    // Round-robin over the bases: re-query base b, then patch it. Every
    // fifth patch repeats the one sent eight patches earlier (same base,
    // so a memo hit); the others take the base's next fresh edit.
    let mut schedule = Vec::new();
    let mut patches: Vec<usize> = Vec::new();
    let mut cursor = [0usize; BASES];
    for j in 0.. {
        let b = j % BASES;
        let patch = if j % 5 == 4 && j >= BASES {
            patches[j - BASES]
        } else if cursor[b] < fresh[b].len() {
            cursor[b] += 1;
            fresh[b][cursor[b] - 1]
        } else {
            break;
        };
        schedule.push(b);
        schedule.push(patch);
        patches.push(patch);
    }
    Ok(ServiceInputs {
        bodies,
        results,
        seating: (0..BASES).collect(),
        schedule,
    })
}

fn optimize_plans(seed: u64, specs: usize) -> Result<ServiceInputs, String> {
    const WIDTHS: [usize; 4] = [16, 8, 4, 4];
    let mut rng = stream(seed, 3);
    let mut bodies = Vec::new();
    let mut results = Vec::new();
    for _ in 0..specs {
        let spec = funnel_spec(&WIDTHS, &mut rng)?;
        let spec_json = spec.to_json().to_string();
        for budget in 1..=4usize {
            let plan_seed = rng.gen_range(0..1u64 << 32);
            results.push(optimize_result(&spec, budget, plan_seed)?);
            bodies.push(format!(
                "\"op\":\"optimize\",\"spec\":{spec_json},\"budget_slots\":{budget},\"seed\":{plan_seed}"
            ));
        }
    }
    // A seeded shuffle, so consecutive requests rarely share a spec.
    let mut schedule: Vec<usize> = (0..bodies.len()).collect();
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.gen_range(0..=i));
    }
    Ok(ServiceInputs {
        bodies,
        results,
        seating: Vec::new(),
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disparity_service::proto::{Op, Request};

    const QUICK: Scale = Scale {
        seconds: 1.0,
        quick: true,
    };

    #[test]
    fn pools_are_deterministic_per_seed() {
        for w in [Workload::ColdFusion, Workload::DesignSession] {
            let a = service_inputs(w, 7, QUICK).unwrap();
            let b = service_inputs(w, 7, QUICK).unwrap();
            let c = service_inputs(w, 8, QUICK).unwrap();
            assert_eq!(a.bodies, b.bodies, "{}", w.name());
            assert_eq!(a.results, b.results, "{}", w.name());
            assert_ne!(a.bodies, c.bodies, "{}", w.name());
        }
    }

    fn parse(inputs: &ServiceInputs, body: usize) -> Op {
        let mut line = Vec::new();
        inputs.write_line(&mut line, 1, body);
        Request::parse(std::str::from_utf8(&line).unwrap().trim_end())
            .unwrap()
            .op
    }

    #[test]
    fn design_session_keeps_each_shard_to_one_base() {
        let inputs = service_inputs(Workload::DesignSession, 3, QUICK).unwrap();
        let bases: Vec<SystemSpec> = inputs
            .seating
            .iter()
            .map(|&b| match parse(&inputs, b) {
                Op::Disparity { spec, .. } => spec,
                other => panic!("seating is not a disparity request: {other:?}"),
            })
            .collect();
        let mut shards: Vec<u64> = bases
            .iter()
            .map(|s| s.canonical_hash() % CACHE_SHARDS)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), 8, "bases sit in distinct shards");
        // The schedule alternates a base re-query with a patch of that
        // base whose edited spec stays in the base's shard.
        for pair in inputs.schedule.chunks(2) {
            let base = &bases[pair[0]];
            let Op::Patch {
                base: hash, edits, ..
            } = parse(&inputs, pair[1])
            else {
                panic!("second request of a pair is not a patch");
            };
            assert_eq!(hash, base.canonical_hash());
            let mut edited = base.clone();
            apply_all(&mut edited, &edits).unwrap();
            assert_eq!(edited.canonical_hash() % CACHE_SHARDS, hash % CACHE_SHARDS);
        }
        // Every fifth patch repeats the one eight patches earlier.
        let patches: Vec<usize> = inputs.schedule.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(patches[9], patches[1]);
        assert_eq!(patches[14], patches[6]);
        assert_ne!(patches[10], patches[2]);
    }
}
