//! Service specifications: tenants, jobs and the knobs of one service
//! run, parsed from (and rendered back to) a replayable JSON file.
//!
//! Both ends go through the repo's one JSON layer
//! ([`beacon_sim::json`]) and are exercised by the round-trip test
//! below.

use beacon_core::config::{BeaconConfig, BeaconVariant, FaultsConfig, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, hash_workload, kmer_workload, prealign_workload, AppWorkload, WorkloadScale,
};
use beacon_genomics::genome::GenomeId;
use beacon_genomics::trace::{AppKind, Region};
use beacon_sim::json::{JsonValue, Writer};
use beacon_sim::rng::SimRng;

/// The job types the service admits — one per BEACON kernel family,
/// each built by the corresponding experiment workload builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// FM-index seeding (`fm-seeding`).
    FmSeeding,
    /// Hash-index seeding (`hash-seeding`).
    HashSeeding,
    /// k-mer counting (`kmer-counting`; the genome field is ignored —
    /// the kernel always counts over the human-like genome).
    KmerCounting,
    /// Pre-alignment filtering (`pre-alignment`).
    PreAlignment,
}

impl JobKind {
    /// Every kind, in canonical order.
    pub const ALL: [JobKind; 4] = [
        JobKind::FmSeeding,
        JobKind::HashSeeding,
        JobKind::KmerCounting,
        JobKind::PreAlignment,
    ];

    /// The spec-file name of this kind (matches the `figures` kernels).
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::FmSeeding => "fm-seeding",
            JobKind::HashSeeding => "hash-seeding",
            JobKind::KmerCounting => "kmer-counting",
            JobKind::PreAlignment => "pre-alignment",
        }
    }

    /// Parses a spec-file kind name.
    pub fn parse(s: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The accelerator application this kind maps to.
    pub fn app(&self) -> AppKind {
        match self {
            JobKind::FmSeeding => AppKind::FmSeeding,
            JobKind::HashSeeding => AppKind::HashSeeding,
            JobKind::KmerCounting => AppKind::KmerCounting,
            JobKind::PreAlignment => AppKind::PreAlignment,
        }
    }

    /// The pool regions a job of this kind places. Region names are a
    /// global namespace in [`beacon_core::mmf::build_layout`] — two
    /// jobs whose region sets intersect must not co-run in one round,
    /// which is exactly the scheduler's conflict rule.
    pub fn regions(&self) -> &'static [Region] {
        match self {
            JobKind::FmSeeding => &[Region::FmIndex],
            JobKind::HashSeeding => &[Region::HashTable, Region::CandidateLists],
            JobKind::KmerCounting => &[Region::Bloom],
            JobKind::PreAlignment => &[Region::Reference, Region::ReadBuf],
        }
    }

    /// Builds this kind's workload (traces + layout specs).
    pub fn workload(&self, genome: GenomeId, scale: &WorkloadScale) -> AppWorkload {
        match self {
            JobKind::FmSeeding => fm_workload(genome, scale),
            JobKind::HashSeeding => hash_workload(genome, scale),
            JobKind::KmerCounting => kmer_workload(scale),
            JobKind::PreAlignment => prealign_workload(genome, scale),
        }
    }
}

/// Parses a genome label as used in the paper figures (`Pt`, …, `Human`).
pub fn parse_genome(s: &str) -> Option<GenomeId> {
    GenomeId::FIVE
        .into_iter()
        .chain([GenomeId::Human])
        .find(|g| g.label() == s)
}

/// One named tenant of the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant name (unique within a spec).
    pub name: String,
    /// Fair-share weight: deficit credit accrued per scheduling round
    /// is `weight × quantum`.
    pub weight: u64,
    /// Capacity quota as a percentage of the pool's total rows that
    /// this tenant's admitted jobs may hold at once (100 = the whole
    /// pool).
    pub quota_pct: u64,
}

/// One job: a kernel × genome instance submitted by a tenant at a
/// service round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Service-assigned id, unique and dense (assigned by
    /// [`ServiceSpec::expand_jobs`] in arrival order).
    pub id: u64,
    /// Owning tenant name.
    pub tenant: String,
    /// Kernel family.
    pub kind: JobKind,
    /// Input genome (ignored by k-mer counting).
    pub genome: GenomeId,
    /// Round at which the job enters the admission queue.
    pub arrival_round: u64,
}

/// Seeded synthetic arrival process: per tenant, a geometric
/// inter-arrival stream of jobs drawn from the allowed kind/genome
/// pools. Fully determined by the service seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Jobs generated per tenant.
    pub jobs_per_tenant: u64,
    /// Kind pool to draw from.
    pub kinds: Vec<JobKind>,
    /// Genome pool to draw from.
    pub genomes: Vec<GenomeId>,
    /// Largest inter-arrival gap in rounds.
    pub max_gap_rounds: u64,
    /// Geometric continuation probability of the gap draw.
    pub continue_p: f64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            jobs_per_tenant: 3,
            kinds: vec![
                JobKind::FmSeeding,
                JobKind::KmerCounting,
                JobKind::PreAlignment,
            ],
            genomes: vec![GenomeId::Pt, GenomeId::Pg],
            max_gap_rounds: 3,
            continue_p: 0.5,
        }
    }
}

/// Everything one service run needs: machine shape, workload scale,
/// tenants, explicit jobs and/or a synthetic arrival process, and the
/// scheduler/admission knobs. Same spec + same seed ⇒ bit-identical
/// service runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Master seed of the service (arrival synthesis, journey salt).
    pub seed: u64,
    /// Workload scale shared by every job.
    pub scale: WorkloadScale,
    /// BEACON variant of the pool.
    pub variant: BeaconVariant,
    /// Apply the full optimisation set (placement mapping etc.).
    pub placement: bool,
    /// CXL switches in the pool.
    pub switches: u32,
    /// PEs per compute module.
    pub pes_per_module: usize,
    /// Model DRAM refresh.
    pub refresh: bool,
    /// Most jobs co-run in one scheduling round.
    pub max_corun: usize,
    /// Deficit quantum per round (credit = weight × quantum).
    pub quantum: u64,
    /// Rounds a ready job may wait before the starvation boost makes
    /// it absolutely prioritised.
    pub starvation_rounds: u64,
    /// Hard round limit — exceeding it is a service bug, not backlog.
    pub max_rounds: u64,
    /// Journey-attribution sampling period (0 = attribution off).
    pub sample_every: u64,
    /// Optional fault schedule applied to every round's system.
    pub faults: Option<FaultsConfig>,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Explicit jobs (ids are reassigned on expansion).
    pub jobs: Vec<JobSpec>,
    /// Optional synthetic arrival process appended to the explicit jobs.
    pub synth: Option<SynthSpec>,
}

impl ServiceSpec {
    /// A two-tenant spec with sensible defaults at test scale — the
    /// starting point of most programmatic uses.
    pub fn demo(seed: u64) -> Self {
        ServiceSpec {
            seed,
            scale: WorkloadScale::test(),
            variant: BeaconVariant::D,
            placement: true,
            switches: 2,
            pes_per_module: 8,
            refresh: false,
            max_corun: 3,
            quantum: 16,
            starvation_rounds: 4,
            max_rounds: 10_000,
            sample_every: 0,
            faults: None,
            tenants: vec![
                TenantSpec {
                    name: "broad".into(),
                    weight: 3,
                    quota_pct: 100,
                },
                TenantSpec {
                    name: "sanger".into(),
                    weight: 1,
                    quota_pct: 100,
                },
            ],
            jobs: Vec::new(),
            synth: Some(SynthSpec::default()),
        }
    }

    /// The per-round system configuration. `app` sets the PE-latency
    /// default and optimisation point; the service uses the first
    /// scheduled job's kind, so a single-job round is configured
    /// exactly like the equivalent direct run (the differential gate
    /// in `tests/service.rs` relies on this).
    pub fn system_config(&self, app: AppKind) -> BeaconConfig {
        let mut cfg = BeaconConfig::paper(self.variant, app);
        cfg.switches = self.switches;
        cfg.pes_per_module = self.pes_per_module;
        cfg.refresh_enabled = self.refresh;
        cfg.faults = self.faults;
        if self.placement {
            cfg = cfg.with_opts(Optimizations::full(self.variant, app));
        }
        cfg
    }

    /// Expands the spec into the concrete, dense-id job list: explicit
    /// jobs first (in file order), then the synthesized stream, all
    /// sorted by `(arrival_round, submission order)` with ids assigned
    /// in that order. Pure function of the spec — the replayability
    /// contract.
    pub fn expand_jobs(&self) -> Vec<JobSpec> {
        let mut jobs: Vec<JobSpec> = self.jobs.clone();
        if let Some(synth) = &self.synth {
            let mut rng = SimRng::from_seed(self.seed).child(0x901);
            for tenant in &self.tenants {
                let mut tr = rng.child(fnv(tenant.name.as_bytes()));
                let mut round = 0u64;
                for _ in 0..synth.jobs_per_tenant {
                    round += tr.geometric_between(0, synth.max_gap_rounds, synth.continue_p);
                    let kind = synth.kinds[tr.index(synth.kinds.len())];
                    let genome = synth.genomes[tr.index(synth.genomes.len())];
                    jobs.push(JobSpec {
                        id: 0,
                        tenant: tenant.name.clone(),
                        kind,
                        genome,
                        arrival_round: round,
                    });
                }
            }
        }
        // Stable sort keeps submission order within a round.
        jobs.sort_by_key(|j| j.arrival_round);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as u64;
        }
        jobs
    }

    /// Parses a service spec from its JSON file form. Unknown keys are
    /// ignored; missing optional keys take the [`ServiceSpec::demo`]
    /// defaults (seeded by the file's `seed`).
    ///
    /// # Errors
    /// A human-readable message naming the offending key.
    pub fn parse_json(text: &str) -> Result<ServiceSpec, String> {
        let doc = JsonValue::parse(text)?;
        let seed = get_u64(&doc, "seed").ok_or("spec needs a numeric `seed`")?;
        let mut spec = ServiceSpec::demo(seed);
        spec.tenants.clear();
        spec.synth = None;

        if let Some(s) = doc.get("scale") {
            let mut sc = spec.scale;
            if let Some(v) = get_u64(s, "pt_genome_len") {
                sc.pt_genome_len = v as usize;
            }
            if let Some(v) = get_u64(s, "reads") {
                sc.reads = v as usize;
            }
            if let Some(v) = get_u64(s, "read_len") {
                sc.read_len = v as usize;
            }
            if let Some(v) = s.get("error_rate").and_then(JsonValue::as_f64) {
                sc.error_rate = v;
            }
            if let Some(v) = get_u64(s, "kmer_k") {
                sc.kmer_k = v as usize;
            }
            if let Some(v) = get_u64(s, "kmer_reads") {
                sc.kmer_reads = v as usize;
            }
            if let Some(v) = get_u64(s, "cbf_bytes") {
                sc.cbf_bytes = v;
            }
            if let Some(v) = get_u64(s, "seed") {
                sc.seed = v;
            }
            spec.scale = sc;
        }
        if let Some(s) = doc.get("system") {
            if let Some(v) = s.get("variant").and_then(JsonValue::as_str) {
                spec.variant = match v {
                    "D" => BeaconVariant::D,
                    "S" => BeaconVariant::S,
                    other => return Err(format!(r#"unknown variant {other:?} (want "D"/"S")"#)),
                };
            }
            if let Some(b) = get_bool(s, "placement") {
                spec.placement = b;
            }
            if let Some(v) = get_u64(s, "switches") {
                spec.switches = v as u32;
            }
            if let Some(v) = get_u64(s, "pes_per_module") {
                spec.pes_per_module = v as usize;
            }
            if let Some(b) = get_bool(s, "refresh") {
                spec.refresh = b;
            }
        }
        if let Some(s) = doc.get("service") {
            if let Some(v) = get_u64(s, "max_corun") {
                spec.max_corun = v as usize;
            }
            if let Some(v) = get_u64(s, "quantum") {
                spec.quantum = v;
            }
            if let Some(v) = get_u64(s, "starvation_rounds") {
                spec.starvation_rounds = v;
            }
            if let Some(v) = get_u64(s, "max_rounds") {
                spec.max_rounds = v;
            }
            if let Some(v) = get_u64(s, "sample_every") {
                spec.sample_every = v;
            }
        }
        if let Some(f) = doc.get("faults") {
            let fseed = get_u64(f, "seed").unwrap_or(seed);
            let mut fc = FaultsConfig::quiet(fseed);
            if let Some(v) = f.get("link_crc_per_mcycle").and_then(JsonValue::as_f64) {
                fc.link_crc_per_mcycle = v;
            }
            if let Some(v) = f.get("dimm_ue_per_mcycle").and_then(JsonValue::as_f64) {
                fc.dimm_ue_per_mcycle = v;
            }
            if let Some(v) = get_u64(f, "dimm_fail_at") {
                fc.dimm_fail_at = v;
            }
            if let Some(v) = get_u64(f, "dimm_fail_switch") {
                fc.dimm_fail_switch = v as u32;
            }
            if let Some(v) = get_u64(f, "dimm_fail_slot") {
                fc.dimm_fail_slot = v as u32;
            }
            spec.faults = Some(fc);
        }

        let tenants = doc
            .get("tenants")
            .and_then(JsonValue::as_array)
            .ok_or("spec needs a `tenants` array")?;
        for t in tenants {
            let name = t
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("tenant needs a string `name`")?;
            spec.tenants.push(TenantSpec {
                name: name.to_owned(),
                weight: get_u64(t, "weight").unwrap_or(1).max(1),
                quota_pct: get_u64(t, "quota_pct").unwrap_or(100).clamp(1, 100),
            });
        }
        if spec.tenants.is_empty() {
            return Err("spec needs at least one tenant".into());
        }

        if let Some(jobs) = doc.get("jobs").and_then(JsonValue::as_array) {
            for j in jobs {
                let tenant = j
                    .get("tenant")
                    .and_then(JsonValue::as_str)
                    .ok_or("job needs a string `tenant`")?;
                if !spec.tenants.iter().any(|t| t.name == tenant) {
                    return Err(format!("job references unknown tenant {tenant:?}"));
                }
                let kind = j
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .and_then(JobKind::parse)
                    .ok_or("job needs a known `kind`")?;
                let genome = match j.get("genome").and_then(JsonValue::as_str) {
                    Some(g) => parse_genome(g).ok_or(format!("unknown genome {g:?}"))?,
                    None => GenomeId::Pt,
                };
                spec.jobs.push(JobSpec {
                    id: 0,
                    tenant: tenant.to_owned(),
                    kind,
                    genome,
                    arrival_round: get_u64(j, "arrival_round").unwrap_or(0),
                });
            }
        }
        if let Some(s) = doc.get("synth") {
            let mut synth = SynthSpec::default();
            if let Some(v) = get_u64(s, "jobs_per_tenant") {
                synth.jobs_per_tenant = v;
            }
            if let Some(ks) = s.get("kinds").and_then(JsonValue::as_array) {
                synth.kinds = ks
                    .iter()
                    .map(|k| {
                        k.as_str()
                            .and_then(JobKind::parse)
                            .ok_or("unknown kind in synth.kinds")
                    })
                    .collect::<Result<_, _>>()?;
            }
            if let Some(gs) = s.get("genomes").and_then(JsonValue::as_array) {
                synth.genomes = gs
                    .iter()
                    .map(|g| {
                        g.as_str()
                            .and_then(parse_genome)
                            .ok_or("unknown genome in synth.genomes")
                    })
                    .collect::<Result<_, _>>()?;
            }
            if let Some(v) = get_u64(s, "max_gap_rounds") {
                synth.max_gap_rounds = v;
            }
            if let Some(v) = s.get("continue_p").and_then(JsonValue::as_f64) {
                synth.continue_p = v.clamp(0.0, 1.0);
            }
            if synth.kinds.is_empty() || synth.genomes.is_empty() {
                return Err("synth needs non-empty kinds and genomes".into());
            }
            spec.synth = Some(synth);
        }
        if spec.jobs.is_empty() && spec.synth.is_none() {
            return Err("spec needs explicit `jobs` or a `synth` block".into());
        }
        Ok(spec)
    }

    /// Renders the spec back to its JSON file form (the replay file of
    /// a programmatically built spec). `parse_json(render_json(s)) == s`.
    pub fn render_json(&self) -> String {
        let mut w = Writer::new();
        w.object(|w| {
            w.key("seed").u64(self.seed);
            w.key("scale").object(|w| {
                let sc = &self.scale;
                w.key("pt_genome_len").u64(sc.pt_genome_len as u64);
                w.key("reads").u64(sc.reads as u64);
                w.key("read_len").u64(sc.read_len as u64);
                w.key("error_rate").f64(sc.error_rate);
                w.key("kmer_k").u64(sc.kmer_k as u64);
                w.key("kmer_reads").u64(sc.kmer_reads as u64);
                w.key("cbf_bytes").u64(sc.cbf_bytes);
                w.key("seed").u64(sc.seed);
            });
            w.key("system").object(|w| {
                w.key("variant").str(match self.variant {
                    BeaconVariant::D => "D",
                    BeaconVariant::S => "S",
                });
                w.key("placement").bool(self.placement);
                w.key("switches").u64(u64::from(self.switches));
                w.key("pes_per_module").u64(self.pes_per_module as u64);
                w.key("refresh").bool(self.refresh);
            });
            w.key("service").object(|w| {
                w.key("max_corun").u64(self.max_corun as u64);
                w.key("quantum").u64(self.quantum);
                w.key("starvation_rounds").u64(self.starvation_rounds);
                w.key("max_rounds").u64(self.max_rounds);
                w.key("sample_every").u64(self.sample_every);
            });
            if let Some(f) = &self.faults {
                w.key("faults").object(|w| {
                    w.key("seed").u64(f.seed);
                    w.key("link_crc_per_mcycle").f64(f.link_crc_per_mcycle);
                    w.key("dimm_ue_per_mcycle").f64(f.dimm_ue_per_mcycle);
                    w.key("dimm_fail_at").u64(f.dimm_fail_at);
                    w.key("dimm_fail_switch").u64(u64::from(f.dimm_fail_switch));
                    w.key("dimm_fail_slot").u64(u64::from(f.dimm_fail_slot));
                });
            }
            w.key("tenants").objects(&self.tenants, |w, t| {
                w.key("name").str(&t.name);
                w.key("weight").u64(t.weight);
                w.key("quota_pct").u64(t.quota_pct);
            });
            if !self.jobs.is_empty() {
                w.key("jobs").objects(&self.jobs, |w, j| {
                    w.key("tenant").str(&j.tenant);
                    w.key("kind").str(j.kind.name());
                    w.key("genome").str(j.genome.label());
                    w.key("arrival_round").u64(j.arrival_round);
                });
            }
            if let Some(s) = &self.synth {
                w.key("synth").object(|w| {
                    w.key("jobs_per_tenant").u64(s.jobs_per_tenant);
                    w.key("kinds")
                        .array(|w| s.kinds.iter().for_each(|k| w.str(k.name())));
                    w.key("genomes")
                        .array(|w| s.genomes.iter().for_each(|g| w.str(g.label())));
                    w.key("max_gap_rounds").u64(s.max_gap_rounds);
                    w.key("continue_p").f64(s.continue_p);
                });
            }
        });
        w.finish()
    }
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_f64).map(|f| f as u64)
}

fn get_bool(v: &JsonValue, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(JsonValue::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// FNV-1a over bytes — stable tenant-name hashing for RNG streams.
pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        for name in ["broad", "a\"b\\c"] {
            let mut spec = ServiceSpec::demo(7);
            spec.tenants[0].name = name.into();
            spec.jobs.push(JobSpec {
                id: 0,
                tenant: name.into(),
                kind: JobKind::PreAlignment,
                genome: GenomeId::Ss,
                arrival_round: 2,
            });
            spec.faults = Some(FaultsConfig::quiet(9));
            let back = ServiceSpec::parse_json(&spec.render_json()).expect("round trip");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn expansion_is_deterministic_and_dense() {
        let spec = ServiceSpec::demo(11);
        let a = spec.expand_jobs();
        let b = spec.expand_jobs();
        assert_eq!(a, b);
        assert_eq!(
            a.len(),
            2 * spec.synth.as_ref().unwrap().jobs_per_tenant as usize
        );
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_round <= w[1].arrival_round));
    }

    #[test]
    fn different_seeds_give_different_arrivals() {
        let a = ServiceSpec::demo(1).expand_jobs();
        let b = ServiceSpec::demo(2).expand_jobs();
        assert_ne!(a, b);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in JobKind::ALL {
            assert_eq!(JobKind::parse(k.name()), Some(k));
        }
        assert_eq!(JobKind::parse("bogus"), None);
    }

    #[test]
    fn parse_rejects_missing_tenants() {
        let e = ServiceSpec::parse_json("{\"seed\":1}").unwrap_err();
        assert!(e.contains("tenants"), "{e}");
    }

    #[test]
    fn parse_rejects_hostile_nesting() {
        let text = format!("{{\"seed\":1,\"tenants\":{}", "[".repeat(100_000));
        let e = ServiceSpec::parse_json(&text).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
    }

    #[test]
    fn parse_rejects_unknown_tenant_reference() {
        let text = "{\"seed\":1,\"tenants\":[{\"name\":\"a\"}],\
                    \"jobs\":[{\"tenant\":\"z\",\"kind\":\"fm-seeding\"}]}";
        let e = ServiceSpec::parse_json(text).unwrap_err();
        assert!(e.contains("unknown tenant"), "{e}");
    }
}
