//! The pool as a service: two tenants contending for one BEACON pool.
//!
//! Both tenants submit the same burst of jobs at round 0. Because two
//! same-kind jobs place the same region names, they can never co-run —
//! the pool is genuinely contended and the weighted fair-share knob
//! decides who goes first. Running the identical workload twice with
//! the weight ratio flipped demonstrably reverses the completion order,
//! and the per-tenant SLO table shows where the losing tenant's time
//! went: queue wait, not service.
//!
//! ```text
//! cargo run -p beacon-pool --example pool_service --release
//! ```

use beacon_genomics::genome::GenomeId;
use beacon_pool::prelude::*;

fn contended_spec(seed: u64, weight_a: u64, weight_b: u64) -> ServiceSpec {
    let mut spec = ServiceSpec::demo(seed);
    spec.synth = None;
    spec.tenants.clear();
    spec.tenants.push(TenantSpec {
        name: "alpha".into(),
        weight: weight_a,
        quota_pct: 100,
    });
    spec.tenants.push(TenantSpec {
        name: "beta".into(),
        weight: weight_b,
        quota_pct: 100,
    });
    // Same-kind bursts: every job places Region::FmIndex, so rounds are
    // single-job and the scheduler's deficit order is the whole story.
    for tenant in ["alpha", "beta"] {
        for _ in 0..3 {
            spec.jobs.push(JobSpec {
                id: 0,
                tenant: tenant.into(),
                kind: JobKind::FmSeeding,
                genome: GenomeId::Pt,
                arrival_round: 0,
            });
        }
    }
    spec
}

fn mean_finish_round(report: &ServiceReport, tenant: &str) -> f64 {
    let rounds: Vec<u64> = report
        .jobs
        .iter()
        .filter(|j| j.tenant == tenant)
        .map(|j| j.run_round)
        .collect();
    rounds.iter().sum::<u64>() as f64 / rounds.len() as f64
}

fn main() {
    let heavy_alpha = run_service(&contended_spec(42, 8, 1));
    let heavy_beta = run_service(&contended_spec(42, 1, 8));

    println!("=== alpha weight 8, beta weight 1 ===");
    print!("{}", heavy_alpha.render_text());
    println!("=== alpha weight 1, beta weight 8 ===");
    print!("{}", heavy_beta.render_text());

    let a_first = mean_finish_round(&heavy_alpha, "alpha");
    let b_first = mean_finish_round(&heavy_alpha, "beta");
    let a_second = mean_finish_round(&heavy_beta, "alpha");
    let b_second = mean_finish_round(&heavy_beta, "beta");
    println!(
        "mean finish round — alpha: {a_first:.1} vs {a_second:.1}, \
         beta: {b_first:.1} vs {b_second:.1}"
    );
    assert!(
        a_first < b_first && b_second < a_second,
        "flipping the weight ratio must flip the completion order"
    );
    println!("weight flip reverses completion order: OK");
}
