//! Symbolic certification services: verdict caching, verification
//! policies, and the `needle certify` driver.
//!
//! The checker itself lives in `needle_frames::symeq`; this module owns
//! everything around it that needs the core crate's infrastructure:
//!
//! * [`VerifyPolicy`] — how the serving publish gate combines the
//!   symbolic checker with the existing seeded differential probe;
//! * [`VerdictJournal`] — a durable, crash-safe cache of `Proved` /
//!   `Refuted` verdicts keyed by frame fingerprint, built on the same
//!   checksummed JSONL journal as the campaign supervisor (budget-
//!   dependent verdicts — `Timeout`, `Unsupported` — are deliberately
//!   *not* cached: a bigger budget may decide them later);
//! * [`CertStats`] — proved/refuted/timeout/unsupported/cache-hit
//!   counters plus solve-time percentiles, embedded in the serve
//!   metrics snapshot;
//! * [`certify_workload`] — the CLI driver: analyze a workload, lower
//!   its top-ranked paths to frames, certify each against its source
//!   region, and report per-frame verdicts with solver statistics.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use needle_frames::{
    build_frame, certify_frame, frame_fingerprint, CertConfig, CertVerdict, Certificate,
    CounterExample, Frame,
};
use needle_ir::interp::Val;
use needle_ir::Function;
use needle_regions::OffloadRegion;

use crate::analysis::analyze;
use crate::config::NeedleConfig;
use crate::error::NeedleError;
use crate::journal::{load, Journal, Json};

/// How the serving layer verifies a frame before publishing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// Legacy behaviour: one seeded differential probe only.
    #[default]
    Differential,
    /// Publish **only** `Proved` frames. Anything weaker — including a
    /// clean differential probe — refuses the swap and keeps the
    /// incumbent region table serving.
    RequireProof,
}

impl FromStr for VerifyPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<VerifyPolicy, String> {
        match s {
            "differential" => Ok(VerifyPolicy::Differential),
            "require-proof" => Ok(VerifyPolicy::RequireProof),
            other => Err(format!(
                "unknown verify policy {other:?} (expected differential or require-proof)"
            )),
        }
    }
}

impl fmt::Display for VerifyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VerifyPolicy::Differential => "differential",
            VerifyPolicy::RequireProof => "require-proof",
        };
        write!(f, "{s}")
    }
}

/// Cap on retained solve-time samples (the counters keep counting).
const SOLVE_SAMPLE_CAP: usize = 4096;

/// Certification counters + solve-time distribution, embedded in the
/// serve metrics snapshot alongside the breaker rows.
#[derive(Debug, Clone, Default)]
pub struct CertStats {
    /// Frames proved equivalent over all inputs.
    pub proved: u64,
    /// Frames refuted with a replaying counterexample.
    pub refuted: u64,
    /// Attempts that exhausted a budget.
    pub timeouts: u64,
    /// Attempts outside the checker's theory.
    pub unsupported: u64,
    /// Verdicts served from the durable cache.
    pub cache_hits: u64,
    /// Solve-time samples, µs (capped at [`SOLVE_SAMPLE_CAP`]).
    pub solve_us: Vec<u64>,
}

impl CertStats {
    /// Record one fresh (non-cached) certificate.
    pub fn record(&mut self, verdict: &CertVerdict, solve_us: u64) {
        match verdict {
            CertVerdict::Proved => self.proved += 1,
            CertVerdict::Refuted(_) => self.refuted += 1,
            CertVerdict::Timeout { .. } => self.timeouts += 1,
            CertVerdict::Unsupported { .. } => self.unsupported += 1,
        }
        if self.solve_us.len() < SOLVE_SAMPLE_CAP {
            self.solve_us.push(solve_us);
        }
    }

    /// Total certification attempts (cache hits included).
    pub fn attempts(&self) -> u64 {
        self.proved + self.refuted + self.timeouts + self.unsupported + self.cache_hits
    }

    /// Whether any certification ever ran.
    pub fn active(&self) -> bool {
        self.attempts() > 0
    }

    /// Solve-time percentile in µs (`q` in `[0, 1]`); 0 with no samples.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.solve_us.is_empty() {
            return 0;
        }
        let mut sorted = self.solve_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Fold another stats block in (shard rollup).
    pub fn merge_from(&mut self, other: &CertStats) {
        self.proved += other.proved;
        self.refuted += other.refuted;
        self.timeouts += other.timeouts;
        self.unsupported += other.unsupported;
        self.cache_hits += other.cache_hits;
        for &s in &other.solve_us {
            if self.solve_us.len() >= SOLVE_SAMPLE_CAP {
                break;
            }
            self.solve_us.push(s);
        }
    }
}

impl fmt::Display for CertStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certification: {} proved, {} refuted, {} timeouts, {} unsupported, \
             {} cache hits; solve µs p50/p99 {}/{}",
            self.proved,
            self.refuted,
            self.timeouts,
            self.unsupported,
            self.cache_hits,
            self.percentile_us(0.50),
            self.percentile_us(0.99)
        )
    }
}

/// A decided verdict as stored in the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedVerdict {
    /// The frame was proved equivalent.
    Proved,
    /// The frame was refuted; raw counterexample bits (live-ins in
    /// signature order; memory as `(byte address, cell bits)`).
    Refuted {
        /// Live-in bit patterns.
        live_ins: Vec<u64>,
        /// Memory seed.
        mem_seed: Vec<(u64, u64)>,
    },
}

/// Journal header kind tag for verdict caches.
const CACHE_KIND: &str = "certcache";

/// A durable, crash-safe verdict cache: decided verdicts (`Proved`,
/// `Refuted`) keyed by [`frame_fingerprint`], stored as an append-only
/// checksummed JSONL journal with longest-valid-prefix recovery.
#[derive(Debug)]
pub struct VerdictJournal {
    journal: Journal,
    entries: HashMap<u64, CachedVerdict>,
    /// Corrupt tail records dropped during recovery on open.
    pub recovered_drops: usize,
}

impl VerdictJournal {
    /// Open (or create) a verdict cache at `path`. An existing file is
    /// recovered first: the longest valid record prefix survives,
    /// anything after the first corrupt line is discarded.
    ///
    /// # Errors
    /// I/O failures, or a journal whose header is not a verdict cache.
    pub fn open(path: &Path) -> Result<VerdictJournal, NeedleError> {
        if !path.exists() {
            let header = Json::Obj(vec![
                ("kind".into(), Json::Str(CACHE_KIND.into())),
                ("version".into(), Json::Int(1)),
            ]);
            let journal = Journal::create(path, &header)?;
            return Ok(VerdictJournal {
                journal,
                entries: HashMap::new(),
                recovered_drops: 0,
            });
        }
        let loaded = load(path)?;
        let header = &loaded.records[0];
        if header.get("kind").and_then(Json::as_str) != Some(CACHE_KIND) {
            return Err(NeedleError::Serve(format!(
                "{} is not a certification verdict cache",
                path.display()
            )));
        }
        let mut entries = HashMap::new();
        for rec in &loaded.records[1..] {
            let Some((fp, verdict)) = decode_entry(rec) else {
                continue; // checksummed but semantically odd: skip
            };
            entries.insert(fp, verdict);
        }
        let journal = Journal::reopen(path, loaded.records.len())?;
        Ok(VerdictJournal {
            journal,
            entries,
            recovered_drops: loaded.dropped,
        })
    }

    /// Decided verdicts currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a cached verdict by frame fingerprint.
    pub fn lookup(&self, fingerprint: u64) -> Option<&CachedVerdict> {
        self.entries.get(&fingerprint)
    }

    /// Persist a decided verdict. `Timeout`/`Unsupported` are ignored —
    /// they depend on the budget, not the frame.
    ///
    /// # Errors
    /// Journal I/O failures.
    pub fn record(&mut self, fingerprint: u64, verdict: &CertVerdict) -> Result<(), NeedleError> {
        let cached = match verdict {
            CertVerdict::Proved => CachedVerdict::Proved,
            CertVerdict::Refuted(cex) => CachedVerdict::Refuted {
                live_ins: cex.live_ins.iter().map(|v| v.to_bits()).collect(),
                mem_seed: cex.mem_seed.clone(),
            },
            CertVerdict::Timeout { .. } | CertVerdict::Unsupported { .. } => return Ok(()),
        };
        if self.entries.get(&fingerprint) == Some(&cached) {
            return Ok(()); // already durable
        }
        self.journal.append(&encode_entry(fingerprint, &cached))?;
        self.entries.insert(fingerprint, cached);
        Ok(())
    }

    /// The cache file's path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

fn encode_entry(fp: u64, v: &CachedVerdict) -> Json {
    let mut fields = vec![("fp".into(), Json::Str(format!("{fp:016x}")))];
    match v {
        CachedVerdict::Proved => {
            fields.push(("verdict".into(), Json::Str("proved".into())));
        }
        CachedVerdict::Refuted { live_ins, mem_seed } => {
            fields.push(("verdict".into(), Json::Str("refuted".into())));
            fields.push((
                "live_ins".into(),
                Json::Arr(live_ins.iter().map(|&b| Json::Int(b as i64)).collect()),
            ));
            fields.push((
                "mem".into(),
                Json::Arr(
                    mem_seed
                        .iter()
                        .map(|&(a, v)| Json::Arr(vec![Json::Int(a as i64), Json::Int(v as i64)]))
                        .collect(),
                ),
            ));
        }
    }
    Json::Obj(fields)
}

fn decode_entry(rec: &Json) -> Option<(u64, CachedVerdict)> {
    let fp = u64::from_str_radix(rec.get("fp")?.as_str()?, 16).ok()?;
    match rec.get("verdict")?.as_str()? {
        "proved" => Some((fp, CachedVerdict::Proved)),
        "refuted" => {
            let live_ins = rec
                .get("live_ins")?
                .as_arr()?
                .iter()
                .map(|j| j.as_i64().map(|i| i as u64))
                .collect::<Option<Vec<u64>>>()?;
            let mem_seed = rec
                .get("mem")?
                .as_arr()?
                .iter()
                .map(|j| {
                    let pair = j.as_arr()?;
                    Some((pair.first()?.as_i64()? as u64, pair.get(1)?.as_i64()? as u64))
                })
                .collect::<Option<Vec<(u64, u64)>>>()?;
            Some((fp, CachedVerdict::Refuted { live_ins, mem_seed }))
        }
        _ => None,
    }
}

/// Rehydrate a cached verdict into a [`CertVerdict`], using the frame's
/// live-in signature to type the counterexample values.
fn rehydrate(frame: &Frame, cached: &CachedVerdict) -> CertVerdict {
    match cached {
        CachedVerdict::Proved => CertVerdict::Proved,
        CachedVerdict::Refuted { live_ins, mem_seed } => {
            let vals = frame
                .live_ins
                .iter()
                .zip(live_ins)
                .map(|(li, &bits)| Val::from_bits(bits, li.ty))
                .collect();
            CertVerdict::Refuted(CounterExample {
                live_ins: vals,
                mem_seed: mem_seed.clone(),
            })
        }
    }
}

/// Outcome of one cached certification: the certificate plus whether it
/// came from the durable cache.
#[derive(Debug, Clone)]
pub struct CachedCertificate {
    /// The certificate (possibly rehydrated from the cache).
    pub cert: Certificate,
    /// Whether the verdict was served from the cache.
    pub cached: bool,
    /// Wall time spent solving, µs (0 on a cache hit).
    pub solve_us: u64,
}

/// Certify `frame` against its region in `func`, consulting and feeding
/// the optional verdict cache, and fold the outcome into `stats`.
///
/// # Errors
/// [`NeedleError::Cert`] when the checker meets a malformed frame, or
/// journal I/O when recording into the cache.
pub fn certify_cached(
    func: &Function,
    frame: &Frame,
    cfg: &CertConfig,
    cache: Option<&mut VerdictJournal>,
    stats: &mut CertStats,
) -> Result<CachedCertificate, NeedleError> {
    let fp = frame_fingerprint(frame);
    if let Some(cache) = &cache {
        if let Some(hit) = cache.lookup(fp) {
            stats.cache_hits += 1;
            return Ok(CachedCertificate {
                cert: Certificate {
                    verdict: rehydrate(frame, hit),
                    stats: Default::default(),
                },
                cached: true,
                solve_us: 0,
            });
        }
    }
    let start = Instant::now();
    let cert = certify_frame(func, frame, cfg)?;
    let solve_us = start.elapsed().as_micros() as u64;
    stats.record(&cert.verdict, solve_us);
    if let Some(cache) = cache {
        cache.record(fp, &cert.verdict)?;
    }
    Ok(CachedCertificate {
        cert,
        cached: false,
        solve_us,
    })
}

/// Per-frame entry of a [`CertifyReport`].
#[derive(Debug, Clone)]
pub struct FrameCertRow {
    /// Ball-Larus path id the frame was lowered from.
    pub path_id: u64,
    /// Region size in blocks.
    pub blocks: usize,
    /// Frame size in ops.
    pub ops: usize,
    /// Frame content hash (the cache key).
    pub fingerprint: u64,
    /// Verdict tag: `proved` / `refuted` / `timeout` / `unsupported`.
    pub verdict: String,
    /// Fallback reason for timeout/unsupported; empty otherwise.
    pub why: String,
    /// Whether the verdict came from the cache.
    pub cached: bool,
    /// Solve wall time, µs.
    pub solve_us: u64,
    /// Obligations generated / discharged syntactically.
    pub obligations: usize,
    /// Obligations the normalizer closed without SAT.
    pub discharged: usize,
    /// CNF size behind the verdict.
    pub sat_clauses: usize,
    /// SAT conflicts spent.
    pub conflicts: u64,
}

/// What `needle certify` reports for one workload.
#[derive(Debug, Clone)]
pub struct CertifyReport {
    /// Workload name.
    pub workload: String,
    /// Per-frame verdicts, hottest path first.
    pub frames: Vec<FrameCertRow>,
    /// Aggregated counters.
    pub stats: CertStats,
}

impl CertifyReport {
    /// Refuted frames in this report.
    pub fn refuted(&self) -> usize {
        self.frames.iter().filter(|f| f.verdict == "refuted").count()
    }

    /// Serialize for the benchmark artifact.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            (
                "frames".into(),
                Json::Arr(
                    self.frames
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("path_id".into(), Json::Int(r.path_id as i64)),
                                ("blocks".into(), Json::Int(r.blocks as i64)),
                                ("ops".into(), Json::Int(r.ops as i64)),
                                ("fp".into(), Json::Str(format!("{:016x}", r.fingerprint))),
                                ("verdict".into(), Json::Str(r.verdict.clone())),
                                ("why".into(), Json::Str(r.why.clone())),
                                ("cached".into(), Json::Bool(r.cached)),
                                ("solve_us".into(), Json::Int(r.solve_us as i64)),
                                ("obligations".into(), Json::Int(r.obligations as i64)),
                                ("discharged".into(), Json::Int(r.discharged as i64)),
                                ("sat_clauses".into(), Json::Int(r.sat_clauses as i64)),
                                ("conflicts".into(), Json::Int(r.conflicts as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("proved".into(), Json::Int(self.stats.proved as i64)),
            ("refuted".into(), Json::Int(self.stats.refuted as i64)),
            ("timeouts".into(), Json::Int(self.stats.timeouts as i64)),
            (
                "unsupported".into(),
                Json::Int(self.stats.unsupported as i64),
            ),
            ("cache_hits".into(), Json::Int(self.stats.cache_hits as i64)),
            (
                "solve_us_p50".into(),
                Json::Int(self.stats.percentile_us(0.50) as i64),
            ),
            (
                "solve_us_p99".into(),
                Json::Int(self.stats.percentile_us(0.99) as i64),
            ),
        ])
    }
}

/// Analyze `name`, lower its `top_n` hottest executed paths to frames,
/// and certify each frame against its source region.
///
/// # Errors
/// [`NeedleError::UnknownWorkload`] for an unknown name; analysis
/// failures; cache I/O failures. Per-frame build failures are reported
/// as rows, not errors.
pub fn certify_workload(
    name: &str,
    top_n: usize,
    cert_cfg: &CertConfig,
    mut cache: Option<&mut VerdictJournal>,
) -> Result<CertifyReport, NeedleError> {
    let w = needle_workloads::by_name(name)
        .ok_or_else(|| NeedleError::UnknownWorkload(name.to_string()))?;
    let analysis = analyze(&w.module, w.func, &w.args, &w.memory, &NeedleConfig::default())?;
    let func = analysis.module.func(analysis.func);
    let mut stats = CertStats::default();
    let mut frames = Vec::new();
    for p in analysis.rank.paths.iter().filter(|p| p.freq > 0).take(top_n) {
        let Ok(blocks) = analysis.numbering.decode(p.id) else {
            continue;
        };
        let coverage = p.freq as f64 / analysis.path_profile.total().max(1) as f64;
        let region = OffloadRegion::from_path(&blocks, p.freq, coverage);
        if region.validate(func).is_err() {
            continue;
        }
        let frame = match build_frame(func, &region) {
            Ok(f) => f,
            Err(e) => {
                frames.push(FrameCertRow {
                    path_id: p.id,
                    blocks: blocks.len(),
                    ops: 0,
                    fingerprint: 0,
                    verdict: "build-failed".into(),
                    why: format!("{e:?}"),
                    cached: false,
                    solve_us: 0,
                    obligations: 0,
                    discharged: 0,
                    sat_clauses: 0,
                    conflicts: 0,
                });
                continue;
            }
        };
        let out = certify_cached(func, &frame, cert_cfg, cache.as_deref_mut(), &mut stats)?;
        let why = match &out.cert.verdict {
            CertVerdict::Timeout { why } | CertVerdict::Unsupported { why } => why.clone(),
            _ => String::new(),
        };
        frames.push(FrameCertRow {
            path_id: p.id,
            blocks: blocks.len(),
            ops: frame.num_ops(),
            fingerprint: frame_fingerprint(&frame),
            verdict: out.cert.verdict.tag().into(),
            why,
            cached: out.cached,
            solve_us: out.solve_us,
            obligations: out.cert.stats.obligations,
            discharged: out.cert.stats.discharged_syntactically,
            sat_clauses: out.cert.stats.sat_clauses,
            conflicts: out.cert.stats.conflicts,
        });
    }
    Ok(CertifyReport {
        workload: name.to_string(),
        frames,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("needle-certify-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn policy_parses_and_displays() {
        for (s, p) in [
            ("differential", VerifyPolicy::Differential),
            ("require-proof", VerifyPolicy::RequireProof),
        ] {
            assert_eq!(s.parse::<VerifyPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("sometimes".parse::<VerifyPolicy>().is_err());
    }

    #[test]
    fn stats_percentiles_and_merge() {
        let mut a = CertStats::default();
        for us in [10, 20, 30, 40, 1000] {
            a.record(&CertVerdict::Proved, us);
        }
        assert_eq!(a.proved, 5);
        assert_eq!(a.percentile_us(0.5), 30);
        assert_eq!(a.percentile_us(0.99), 1000);
        let mut b = CertStats::default();
        b.record(
            &CertVerdict::Timeout {
                why: "x".into(),
            },
            7,
        );
        b.cache_hits = 3;
        a.merge_from(&b);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.attempts(), 9);
    }

    #[test]
    fn verdict_cache_roundtrips_and_hits() {
        let p = tdir("cache").join("verdicts.jsonl");
        let mut j = VerdictJournal::open(&p).unwrap();
        j.record(0xDEAD, &CertVerdict::Proved).unwrap();
        j.record(
            0xBEEF,
            &CertVerdict::Refuted(CounterExample {
                live_ins: vec![Val::Int(-7), Val::Int(42)],
                mem_seed: vec![(8, 0xFF), (64, 1)],
            }),
        )
        .unwrap();
        // Budget-dependent verdicts are not cached.
        j.record(
            0xF00D,
            &CertVerdict::Timeout {
                why: "budget".into(),
            },
        )
        .unwrap();
        drop(j);

        let j2 = VerdictJournal::open(&p).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.lookup(0xDEAD), Some(&CachedVerdict::Proved));
        let Some(CachedVerdict::Refuted { live_ins, mem_seed }) = j2.lookup(0xBEEF) else {
            panic!("refuted entry lost");
        };
        assert_eq!(live_ins, &[(-7i64) as u64, 42]);
        assert_eq!(mem_seed, &[(8, 0xFF), (64, 1)]);
        assert!(j2.lookup(0xF00D).is_none());
    }

    #[test]
    fn corrupt_cache_tail_recovers_longest_prefix() {
        let p = tdir("corrupt").join("verdicts.jsonl");
        let mut j = VerdictJournal::open(&p).unwrap();
        for fp in 0..5u64 {
            j.record(fp, &CertVerdict::Proved).unwrap();
        }
        drop(j);
        // Tear the last line mid-record.
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, &text[..text.len() - 12]).unwrap();
        let j2 = VerdictJournal::open(&p).unwrap();
        assert_eq!(j2.recovered_drops, 1);
        assert_eq!(j2.len(), 4);
        for fp in 0..4u64 {
            assert_eq!(j2.lookup(fp), Some(&CachedVerdict::Proved));
        }
    }

    #[test]
    fn malformed_frame_is_a_typed_cert_error() {
        let func = needle_ir::parse::parse_function(
            "fn @k(i64 %arg0, i64 %arg1) -> i64 {\n\
             bb0:\n\
             %0 = add i64 %arg0, %arg1\n\
             br bb1\n\
             bb1:\n\
             %2 = mul i64 %0, %arg0\n\
             ret %2\n\
             }",
        )
        .unwrap();
        let region =
            OffloadRegion::from_path(&[needle_ir::BlockId(0), needle_ir::BlockId(1)], 1, 1.0);
        let mut frame = build_frame(&func, &region).unwrap();
        // Op 0 reading its own result is a cyclic definition.
        frame.ops[0].args = vec![needle_frames::FrameValue::Op(0)];
        let err = certify_cached(
            &func,
            &frame,
            &CertConfig::default(),
            None,
            &mut CertStats::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                NeedleError::Cert(needle_frames::SymEqError::Malformed { op: 0, .. })
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("op 0") && msg.contains("outside the evaluated prefix"),
            "{msg}"
        );
    }

    #[test]
    fn non_cache_journal_is_rejected() {
        let p = tdir("notcache").join("other.jsonl");
        let header = Json::Obj(vec![("kind".into(), Json::Str("campaign".into()))]);
        drop(Journal::create(&p, &header).unwrap());
        assert!(matches!(
            VerdictJournal::open(&p),
            Err(NeedleError::Serve(_))
        ));
    }
}
