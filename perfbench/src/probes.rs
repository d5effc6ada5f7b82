//! Per-layer probes: timed calls into each layer's public functions on
//! inputs shaped like the workload, each with a property check computed
//! apart from the program (decrypt inverts encrypt, proofs verify and a
//! flipped byte is rejected, batch verdicts equal per-proof verdicts,
//! table multiplication equals plain scalar multiplication, verdicts
//! agree with a gold-match count against Θ).

use crate::spans::Recorder;
use dragoon_contract::HitMessage;
use dragoon_core::poqoea;
use dragoon_core::task::{Answer, EncryptedAnswer};
use dragoon_core::workload::{generate_workload, AnswerModel, Workload};
use dragoon_crypto::elgamal::{Decrypted, KeyPair, PlaintextRange};
use dragoon_crypto::vpke::{self, DecryptionProof, DecryptionStatement};
use dragoon_crypto::{Ciphertext, FixedBaseTable, Fq, Fr, ProofCache};
use dragoon_ledger::Address;
use dragoon_protocol::{ContentStore, Requester, Verdict, Worker, WorkerBehavior};
use dragoon_sim::MarketConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The probe results and any failed property checks.
#[derive(Default)]
pub struct ProbeReport {
    pub metrics: Vec<Metric>,
    pub violations: Vec<String>,
    /// Seconds per call of the calls the market run makes, for the
    /// reconciliation against run time.
    pub commit_s: f64,
    pub evaluate_accept_s: f64,
    pub evaluate_reject_s: f64,
    pub table_build_s: f64,
}

/// Calls `f` until `budget_s` has passed and at least `min_calls` calls
/// were made, inside one span; returns seconds per call. The clock is
/// read between doubling batches of calls, so reading it costs nothing
/// measurable even for nanosecond calls.
fn per_call<T>(
    rec: &mut Recorder,
    layer: &'static str,
    name: &str,
    budget_s: f64,
    min_calls: u64,
    mut f: impl FnMut(u64) -> T,
) -> f64 {
    let mut calls = 0u64;
    let mut batch = 1u64;
    let start = std::time::Instant::now();
    loop {
        let batch_start = std::time::Instant::now();
        for _ in 0..batch {
            black_box(f(calls));
            calls += 1;
        }
        if calls >= min_calls && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        if batch_start.elapsed().as_secs_f64() < 1e-3 {
            batch *= 2;
        }
    }
    rec.record(layer, name, start, calls) / calls as f64
}

/// A copy of `proof` with one byte of its response scalar flipped.
fn flip_byte(proof: &DecryptionProof) -> DecryptionProof {
    let mut bytes = proof.z.to_bytes_le();
    bytes[0] ^= 0x01;
    DecryptionProof {
        z: Fr::from_bytes_le(&bytes).expect("flipping bit 0 keeps z below the modulus"),
        ..*proof
    }
}

/// The gold-match count of `answer`, computed here rather than by the
/// program's quality function.
fn gold_matches(answer: &[u64], w: &Workload) -> u64 {
    let gs = &w.golden;
    (0..gs.indexes.len())
        .filter(|&j| answer.get(gs.indexes[j]) == Some(&gs.answers[j]))
        .count() as u64
}

/// Runs every probe at `config`'s task shape with inputs drawn from
/// `seed`. `budget_s` bounds each timed probe's wall time; `batch` is
/// the block-sized batch of the batch-verification probe.
pub fn run(
    rec: &mut Recorder,
    config: &MarketConfig,
    seed: u64,
    budget_s: f64,
    batch: usize,
) -> ProbeReport {
    let mut out = ProbeReport::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7072_6f62_6573);
    let range = PlaintextRange::binary();
    let w = generate_workload(
        config.questions,
        config.golds,
        config.k,
        config.theta,
        range,
        config.budget,
        &mut rng,
    );
    let kp = KeyPair::generate(&mut rng);
    let ek = kp.ek;

    // crypto: field arithmetic.
    let a = Fq::random(&mut rng);
    let b = Fq::random(&mut rng);
    let mut acc = a;
    let fq_mul = per_call(rec, "crypto", "fq_mul", budget_s, 1_000, |_| {
        acc = black_box(acc) * black_box(b);
        acc
    });
    let inv_b = b.inverse().expect("a random field element is nonzero");
    if a * b * inv_b != a {
        out.violations.push("fq: a·b·b⁻¹ != a".into());
    }
    let mut x = a;
    let fq_inv = per_call(rec, "crypto", "fq_inverse", budget_s, 10, |_| {
        x = black_box(x).inverse().expect("nonzero") + Fq::one();
        x
    });

    // crypto: fixed-base table build, and table mul == mul_scalar.
    let table_s = per_call(rec, "crypto", "table_build", budget_s, 3, |_| {
        FixedBaseTable::new(black_box(&ek.0))
    });
    let table = FixedBaseTable::new(&ek.0);
    for _ in 0..4 {
        let k = Fr::random(&mut rng);
        if table.mul(&k) != ek.0.to_projective().mul_scalar(&k) {
            out.violations
                .push("FixedBaseTable::mul != mul_scalar".into());
        }
    }

    // crypto: encryption with a warm table; decryption inverts it.
    let mut plain = Vec::new();
    let mut cts: Vec<Ciphertext> = Vec::new();
    let enc_s = per_call(rec, "crypto", "encrypt", budget_s, 16, |_| {
        let m = rng.gen_range(range.lo..=range.hi);
        let ct = ek.encrypt_with_table(m, Fr::random(&mut rng), Some(&table));
        if cts.len() < 256 {
            plain.push(m);
            cts.push(ct);
        }
    });
    let mut bad_decrypt = 0;
    let dec_s = per_call(rec, "crypto", "decrypt", budget_s, 16, |i| {
        let j = i as usize % cts.len();
        if kp.dk.decrypt(&cts[j], &range) != Decrypted::InRange(plain[j]) {
            bad_decrypt += 1;
        }
    });
    if bad_decrypt > 0 {
        out.violations.push(format!(
            "{bad_decrypt} decryptions differ from the plaintext"
        ));
    }

    // crypto: VPKE prove / verify; a flipped byte is rejected.
    let mut proofs: Vec<(DecryptionStatement, DecryptionProof)> = Vec::new();
    let prove_s = per_call(rec, "crypto", "vpke_prove", budget_s, 8, |i| {
        let ct = cts[i as usize % cts.len()];
        let (claim, proof) = vpke::prove_with_key(&kp, &ct, &range, &mut rng);
        if proofs.len() < batch.max(8) {
            proofs.push((DecryptionStatement { ek, ct, claim }, proof));
        }
    });
    let mut bad_verify = 0;
    let verify_s = per_call(rec, "crypto", "vpke_verify", budget_s, 8, |i| {
        let (stmt, proof) = &proofs[i as usize % proofs.len()];
        if !vpke::verify(stmt, proof) {
            bad_verify += 1;
        }
    });
    if bad_verify > 0 {
        out.violations
            .push(format!("{bad_verify} valid VPKE proofs rejected"));
    }
    if proofs.iter().any(|(s, p)| vpke::verify(s, &flip_byte(p))) {
        out.violations
            .push("a VPKE proof with a flipped byte verified".into());
    }

    // crypto: block-sized batch verification; verdicts equal per-proof
    // verdicts, with one tampered item in the batch.
    let items: Vec<_> = proofs.iter().cycle().take(batch).copied().collect();
    let batch_s = per_call(rec, "crypto", "batch_verify", budget_s, 2, |_| {
        vpke::batch_verify_each(&items)
    });
    let mut mixed = items.clone();
    let bad = mixed.len() / 2;
    mixed[bad].1 = flip_byte(&mixed[bad].1);
    let per_proof: Vec<bool> = mixed.iter().map(|(s, p)| vpke::verify(s, p)).collect();
    if vpke::batch_verify_each(&mixed) != per_proof || per_proof[bad] {
        out.violations
            .push("batch verdicts differ from per-proof verdicts".into());
    }

    // core: PoQoEA on an answer with every gold standard wrong.
    let mut wrong = w.truth.0.clone();
    for &i in &w.golden.indexes {
        wrong[i] = 1 - wrong[i];
    }
    let wrong_cts = Answer(wrong.clone()).encrypt_cached(&ek, &mut rng, None);
    let mut quality = None;
    let poq_prove_s = per_call(rec, "core", "poqoea_prove", budget_s, 4, |_| {
        let (chi, proof) =
            poqoea::prove_quality_with_key(&kp, &wrong_cts, &w.golden, &range, &mut rng);
        quality.get_or_insert((chi, proof)).0
    });
    let (chi, qproof) = quality.expect("at least one proof was made");
    if chi != gold_matches(&wrong, &w) {
        out.violations
            .push(format!("PoQoEA quality {chi} != gold-match count"));
    }
    let mut bad_q = 0;
    let poq_verify_s = per_call(rec, "core", "poqoea_verify", budget_s, 4, |_| {
        if !poqoea::verify_quality_bool(&ek, &wrong_cts, chi, &qproof, &w.golden) {
            bad_q += 1;
        }
    });
    if bad_q > 0 {
        out.violations
            .push("a valid PoQoEA proof was rejected".into());
    }
    let mut tampered = qproof.clone();
    if let Some(item) = tampered.items.first_mut() {
        item.proof = flip_byte(&item.proof);
    }
    if poqoea::verify_quality_bool(&ek, &wrong_cts, chi, &tampered, &w.golden) {
        out.violations
            .push("a PoQoEA proof with a flipped byte verified".into());
    }

    // protocol: requester construction (set-up), commit, evaluation.
    let mut store = ContentStore::new();
    let req_s = per_call(rec, "protocol", "requester_new", budget_s, 8, |i| {
        Requester::new(
            Address::from_seed(0x9e00_0000 + i),
            &w,
            &mut store,
            &mut rng,
        )
    });
    let requester = Requester::new(Address::from_seed(0x9e00_0000), &w, &mut store, &mut rng);
    let rek = requester.public_key();
    let cache = ProofCache::new();
    cache.table_for(&rek.0);
    let honest = WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.95 });
    let mut first_commit = None;
    let commit_s = per_call(rec, "protocol", "commit", budget_s, 3, |_| {
        let art =
            Worker::prepare_commit(&honest, &w.truth, range, &rek, None, Some(&cache), &mut rng)
                .expect("honest workers commit");
        first_commit.get_or_insert(art).commitment
    });
    if let Some(art) = first_commit {
        let decrypted: Option<Vec<u64>> = art.ciphertexts.as_ref().map(|c| {
            c.0.iter()
                .map(|ct| match requester.keypair().dk.decrypt(ct, &range) {
                    Decrypted::InRange(m) => m,
                    Decrypted::OutOfRange(_) => u64::MAX,
                })
                .collect()
        });
        if decrypted != art.answer.map(|a| a.0) {
            out.violations
                .push("committed ciphertexts do not decrypt to the answer".into());
        }
    }
    let evaluator = requester.evaluator();
    let worker = Address::from_seed(0x3031_0000);
    let theta = config.theta;
    let check_verdict = |answer: &[u64], verdict: &Verdict, violations: &mut Vec<String>| {
        let matches = gold_matches(answer, &w);
        let ok = match verdict {
            Verdict::Accept { quality, answer: a } => {
                *quality == matches && matches >= theta && a.0 == answer
            }
            Verdict::RejectLowQuality { quality, msg } => {
                *quality == matches
                    && matches < theta
                    && matches!(msg, HitMessage::Evaluate { chi, .. } if *chi == matches)
            }
            Verdict::RejectOutOfRange { .. } => false,
        };
        if !ok {
            violations.push(format!(
                "verdict disagrees with {matches} gold matches vs Θ={theta}"
            ));
        }
    };
    let right = w.truth.0.clone();
    let right_cts: EncryptedAnswer = Answer(right.clone()).encrypt_cached(&rek, &mut rng, None);
    let wrong_for_req: EncryptedAnswer = Answer(wrong.clone()).encrypt_cached(&rek, &mut rng, None);
    let mut verdicts = Vec::new();
    let accept_s = per_call(rec, "protocol", "evaluate_accept", budget_s, 3, |_| {
        let v = evaluator.evaluate(worker, &right_cts, &mut rng);
        if verdicts.len() < 4 {
            verdicts.push((right.clone(), v));
        }
    });
    let reject_s = per_call(rec, "protocol", "evaluate_reject", budget_s, 3, |_| {
        let v = evaluator.evaluate(worker, &wrong_for_req, &mut rng);
        if verdicts.len() < 8 {
            verdicts.push((wrong.clone(), v));
        }
    });
    // Answers drawn as the run's workers draw them, each judged too.
    for model in [
        AnswerModel::Diligent { accuracy: 0.95 },
        AnswerModel::Diligent { accuracy: 0.30 },
        AnswerModel::RandomBot,
    ] {
        let ans = dragoon_core::workload::draw_answer(&model, &w.truth, &range, &mut rng);
        let cts = ans.encrypt_cached(&rek, &mut rng, None);
        verdicts.push((ans.0.clone(), evaluator.evaluate(worker, &cts, &mut rng)));
    }
    for (answer, v) in &verdicts {
        check_verdict(answer, v, &mut out.violations);
    }

    out.commit_s = commit_s;
    out.evaluate_accept_s = accept_s;
    out.evaluate_reject_s = reject_s;
    out.table_build_s = table_s;
    out.metrics = vec![
        ("crypto.fq_mul_ns", fq_mul * 1e9, "ns"),
        ("crypto.fq_inverse_us", fq_inv * 1e6, "us"),
        ("crypto.encrypt_us", enc_s * 1e6, "us"),
        ("crypto.decrypt_us", dec_s * 1e6, "us"),
        ("crypto.table_build_us", table_s * 1e6, "us"),
        ("crypto.vpke_prove_us", prove_s * 1e6, "us"),
        ("crypto.vpke_verify_us", verify_s * 1e6, "us"),
        (
            "crypto.batch_verify_us_per_proof",
            batch_s * 1e6 / batch as f64,
            "us",
        ),
        ("core.poqoea_prove_ms", poq_prove_s * 1e3, "ms"),
        ("core.poqoea_verify_ms", poq_verify_s * 1e3, "ms"),
        ("protocol.requester_new_us", req_s * 1e6, "us"),
        ("protocol.commit_ms", commit_s * 1e3, "ms"),
        ("protocol.evaluate_accept_ms", accept_s * 1e3, "ms"),
        ("protocol.evaluate_reject_ms", reject_s * 1e3, "ms"),
    ];
    out
}
