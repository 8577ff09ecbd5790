//! The full genome-analysis pipeline of the paper's Fig. 2, end to end,
//! on FASTA/FASTQ data: seeding (BEACON) → pre-alignment filtering
//! (BEACON) → banded alignment (host).
//!
//! Pass a FASTA reference path as the first argument to run on your own
//! data; without arguments a demo reference is generated, written to
//! FASTA, and read back (exercising the I/O layer either way).
//!
//! ```text
//! cargo run -p beacon-core --example pipeline_e2e --release [ref.fasta]
//! ```

use std::io::BufReader;

use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::common::AppWorkload;
use beacon_core::mmf::LayoutSpec;
use beacon_genomics::io::{read_fasta, reads_to_fastq, write_fasta, write_fastq, FastaRecord};
use beacon_genomics::prelude::*;
use beacon_genomics::trace::Region;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

fn main() {
    // ---- reference: from file or generated --------------------------------
    let arg = std::env::args().nth(1);
    let fasta_path = match &arg {
        Some(p) => p.clone(),
        None => {
            let path = std::env::temp_dir().join("beacon_demo_ref.fasta");
            let genome = Genome::synthetic(GenomeId::Pt, 120_000, 42);
            let record = FastaRecord {
                id: "demo_pt synthetic".into(),
                seq: genome.sequence().clone(),
                substituted: 0,
            };
            let file = std::fs::File::create(&path).expect("create demo FASTA");
            write_fasta(file, &[record]).expect("write demo FASTA");
            path.display().to_string()
        }
    };
    let file = std::fs::File::open(&fasta_path).expect("open FASTA");
    let records = read_fasta(BufReader::new(file)).expect("parse FASTA");
    let reference = &records[0];
    println!(
        "reference '{}': {} bases ({} ambiguity substitutions)",
        reference.id,
        reference.seq.len(),
        reference.substituted
    );

    // ---- stage 0: index + reads ------------------------------------------
    let genome_holder;
    let genome: &Genome = {
        // Wrap the parsed sequence in a Genome for the read sampler.
        genome_holder = Genome::from_sequence(GenomeId::Pt, reference.seq.clone());
        &genome_holder
    };
    let index = FmIndex::build(genome.sequence());
    let mut sampler = ReadSampler::new(genome, 80, 0.02, 7);
    let reads = sampler.take_reads(512);

    // Round-trip the reads through FASTQ (what a real pipeline would
    // consume).
    let fastq_path = std::env::temp_dir().join("beacon_demo_reads.fastq");
    write_fastq(
        std::fs::File::create(&fastq_path).expect("create FASTQ"),
        &reads_to_fastq(&reads),
    )
    .expect("write FASTQ");
    println!("wrote {} reads to {}", reads.len(), fastq_path.display());

    // ---- stage 1: FM seeding on BEACON-D ----------------------------------
    let seed_traces: Vec<TaskTrace> = reads
        .iter()
        .map(|r| index.trace_search(&r.bases()[..24]))
        .collect();
    let seeded: Vec<(usize, Vec<u32>)> = reads
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let range = index.backward_search(&r.bases()[..24]);
            if range.is_empty() {
                None
            } else {
                Some((i, index.locate(range, 8)))
            }
        })
        .collect();
    println!(
        "seeding: {}/{} reads produced candidates",
        seeded.len(),
        reads.len()
    );

    let workload = AppWorkload {
        app: AppKind::FmSeeding,
        traces: seed_traces,
        layout: vec![LayoutSpec::shared_random(
            Region::FmIndex,
            index.index_bytes(),
        )],
        medal: vec![],
    };
    let run = beacon_core::experiments::common::run_beacon(
        BeaconVariant::D,
        Optimizations::full(BeaconVariant::D, AppKind::FmSeeding),
        &workload,
        64,
        RunOptions::default(),
        &mut Observer::default(),
    );
    println!("  BEACON-D seeding: {} cycles", run.cycles);

    // ---- stage 2: pre-alignment filter -------------------------------------
    let filter = PreAlignFilter::new(6);
    let mut survivors = Vec::new();
    let mut filtered_out = 0usize;
    for (ri, candidates) in &seeded {
        for &pos in candidates {
            // The seed matches somewhere in the read; test the implied
            // full-read location.
            let verdict = filter.filter(reads[*ri].bases(), genome.sequence(), pos as usize);
            if verdict.accept {
                survivors.push((*ri, pos));
            } else {
                filtered_out += 1;
            }
        }
    }
    println!(
        "pre-alignment: {} candidate pairs accepted, {} rejected",
        survivors.len(),
        filtered_out
    );

    // ---- stage 3: banded alignment (host side) -----------------------------
    let mut aligned = 0usize;
    let mut total_edits = 0u64;
    for &(ri, pos) in survivors.iter().take(200) {
        if let Some(a) = banded_align(reads[ri].bases(), genome.sequence(), pos as usize, 6) {
            aligned += 1;
            total_edits += a.edits as u64;
        }
    }
    println!(
        "alignment: {aligned} pairs aligned, mean edits {:.2}",
        total_edits as f64 / aligned.max(1) as f64
    );
}
