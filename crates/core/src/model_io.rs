//! Model persistence: save a fitted [`Classifier`] to a compact binary
//! file and load it back without retraining.
//!
//! Training cost is dominated by the threshold bootstrap plus the
//! whole-dataset density pass, so production deployments want to fit
//! once and serve many query sessions. The format is a simple
//! little-endian binary layout with a magic/version header — no external
//! serialization dependency.
//!
//! Persisted: parameters, fitted threshold (and its bootstrap bounds),
//! kernel, spatial index (with its reordered points), the grid cache,
//! and — since format version 2 — per-point weights plus the coreset's
//! certified error ε for weighted (coreset-backed) models. Not
//! persisted: training diagnostics (`FitReport` bootstrap traces and
//! traversal statistics), which load back as empty.
//!
//! Version-2 files append the weighted tail *after* the complete
//! version-1 layout, so every version-1 field keeps its byte offset;
//! version-1 files still load (with unit weights and ε = 0).
//!
//! Version-3 files insert a one-byte backend tag right after the
//! version field (`0` = tree, `1` = hbe, `2` = rff). Tag 0 keeps the
//! complete version-2 layout after the tag. Tags 1 and 2 persist the
//! estimator's parameters plus its payload — points and weights for
//! HBE (hash tables rebuild deterministically from the seed), the
//! coefficient sketch for RFF (the feature bank regenerates from the
//! seed). Version-1/2 files carry no tag and load as tree models.

use crate::backend::{BackendImpl, DensityBackend};
use crate::classifier::Classifier;
use crate::params::{BackendSpec, BootstrapParams, HbeParams, Optimizations, Params, RffParams};
use crate::threshold::ThresholdBounds;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tkdc_common::error::{format_error, Error, Result};
use tkdc_index::{BandwidthGrid, GridRaw, KdTree, KdTreeRaw};
use tkdc_kernel::{Kernel, KernelKind};

const MAGIC: &[u8; 4] = b"TKDC";
const VERSION: u32 = 3;
/// Oldest format version this build still reads.
const MIN_VERSION: u32 = 1;

/// The current model-file format version, exposed so compatibility
/// tooling (and negative tests) can construct version probes without
/// hardcoding the constant.
pub const FORMAT_VERSION: u32 = VERSION;

/// Writer with little-endian primitive helpers.
struct Enc<W: Write>(W);

impl<W: Write> Enc<W> {
    fn u32(&mut self, v: u32) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }
    fn u64(&mut self, v: u64) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }
    fn u128(&mut self, v: u128) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }
    fn f64(&mut self, v: f64) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }
    fn f64s(&mut self, vs: &[f64]) -> Result<()> {
        self.u64(vs.len() as u64)?; // CAST: usize -> u64 is lossless
        for &v in vs {
            self.f64(v)?;
        }
        Ok(())
    }
    fn byte(&mut self, v: u8) -> Result<()> {
        self.0.write_all(&[v])?;
        Ok(())
    }
}

/// Most elements any length field may reserve up front.
const MAX_PREALLOC: usize = 4096;

/// An empty vector for `n` elements announced by a length field. The
/// reservation is capped so that a corrupt or crafted length cannot
/// request terabytes before a single element is read: past the cap the
/// vector grows only with the bytes actually read.
fn prealloc<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n.min(MAX_PREALLOC))
}

/// Reader with little-endian primitive helpers.
struct Dec<R: Read>(R);

impl<R: Read> Dec<R> {
    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.0.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.0.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn u128(&mut self) -> Result<u128> {
        let mut b = [0u8; 16];
        self.0.read_exact(&mut b)?;
        Ok(u128::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64> {
        let mut b = [0u8; 8];
        self.0.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
    fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.len_checked()?;
        let mut out = prealloc(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
    fn byte(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.0.read_exact(&mut b)?;
        Ok(b[0])
    }
    /// Length prefix with a sanity cap so corrupt files fail fast
    /// instead of attempting enormous allocations.
    fn len_checked(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > (1 << 40) {
            return Err(Error::Numeric(format!("implausible length field {n}")));
        }
        Ok(n as usize) // CAST: n <= 2^40 checked above
    }
}

/// Serializes a fitted classifier to any writer.
pub fn save_model_to(clf: &Classifier, writer: impl Write) -> Result<()> {
    let mut w = Enc(BufWriter::new(writer));
    w.0.write_all(MAGIC)?;
    w.u32(VERSION)?;
    let backend = clf.backend_impl();
    w.byte(match backend {
        BackendImpl::Tree(_) => 0,
        BackendImpl::Hbe(_) => 1,
        BackendImpl::Rff(_) => 2,
    })?;

    // Parameters.
    let p = clf.params();
    w.f64(p.p)?;
    w.f64(p.epsilon)?;
    w.f64(p.delta)?;
    w.f64(p.bandwidth_factor)?;
    w.byte(match p.kernel {
        KernelKind::Gaussian => 0,
        KernelKind::Epanechnikov => 1,
    })?;
    w.u64(p.leaf_size as u64)?; // CAST: usize -> u64 is lossless
    let opts = p.opts;
    w.byte(
        (opts.threshold_rule as u8) // CAST: bool is 0 or 1
            | (opts.tolerance_rule as u8) << 1 // CAST: bool is 0 or 1
            | (opts.equiwidth_split as u8) << 2 // CAST: bool is 0 or 1
            | (opts.grid as u8) << 3, // CAST: bool is 0 or 1
    )?;
    w.u64(p.seed)?;
    w.u64(p.bootstrap.r0 as u64)?; // CAST: usize -> u64 is lossless
    w.u64(p.bootstrap.s0 as u64)?; // CAST: usize -> u64 is lossless
    w.f64(p.bootstrap.growth)?;
    w.f64(p.bootstrap.backoff)?;
    w.f64(p.bootstrap.buffer)?;
    w.u64(p.bootstrap.max_retries as u64)?; // CAST: usize -> u64 is lossless

    // Backend-specific parameters (nothing for the tree).
    match &p.backend {
        BackendSpec::Tree => {}
        BackendSpec::Hbe(hp) => {
            w.u64(hp.tables as u64)?; // CAST: usize -> u64 is lossless
            w.u64(hp.hashes as u64)?; // CAST: usize -> u64 is lossless
            w.f64(hp.bucket_width)?;
            w.u64(hp.samples as u64)?; // CAST: usize -> u64 is lossless
        }
        BackendSpec::Rff(rp) => {
            w.u64(rp.features as u64)?; // CAST: usize -> u64 is lossless
        }
    }

    // Threshold.
    w.f64(clf.threshold())?;
    let b = clf.fit_report().threshold_bounds;
    w.f64(b.lower)?;
    w.f64(b.upper)?;

    // Kernel bandwidths (kind already encoded in params).
    w.f64s(clf.kernel().bandwidths())?;

    match backend {
        BackendImpl::Tree(tb) => {
            // Tree.
            let raw = tb.tree().to_raw_parts();
            w.u64(raw.dim as u64)?; // CAST: usize -> u64 is lossless
            w.u64(raw.leaf_size as u64)?; // CAST: usize -> u64 is lossless
            w.f64s(&raw.points)?;
            w.u64(raw.nodes.len() as u64)?; // CAST: usize -> u64 is lossless
            for t in &raw.nodes {
                for &v in t {
                    w.u32(v)?;
                }
            }
            w.f64s(&raw.node_lo)?;
            w.f64s(&raw.node_hi)?;

            // Grid (optional).
            match clf.grid_raw() {
                None => w.byte(0)?,
                Some(g) => {
                    w.byte(1)?;
                    w.f64s(&g.cell)?;
                    w.u64(g.n_points as u64)?; // CAST: usize -> u64 is lossless
                    w.u64(g.entries.len() as u64)?; // CAST: usize -> u64 is lossless
                    for &(k, c) in &g.entries {
                        w.u128(k)?;
                        w.u32(c)?;
                    }
                }
            }
            // Weighted tail (format v2): weights + coreset ε, appended
            // after the complete v1 layout so every earlier field keeps
            // its byte offset.
            match tb.tree().weights() {
                None => w.byte(0)?,
                Some(ws) => {
                    w.byte(1)?;
                    w.f64s(ws)?;
                }
            }
            w.f64(clf.coreset_eps())?;
        }
        BackendImpl::Hbe(hb) => {
            // Points row-major; the hash tables rebuild deterministically
            // from the model seed on load, so they are not persisted.
            let pts = hb.points();
            w.u64(pts.rows() as u64)?; // CAST: usize -> u64 is lossless
            w.u64(pts.cols() as u64)?; // CAST: usize -> u64 is lossless
            for &v in pts.as_slice() {
                w.f64(v)?;
            }
            match hb.weights() {
                None => w.byte(0)?,
                Some(ws) => {
                    w.byte(1)?;
                    w.f64s(ws)?;
                }
            }
            w.f64(clf.coreset_eps())?;
        }
        BackendImpl::Rff(rb) => {
            // The feature bank regenerates from the seed; only the
            // coefficient sketch and its normalization persist.
            w.f64s(rb.coef())?;
            w.u64(rb.n_train() as u64)?; // CAST: usize -> u64 is lossless
            w.f64(rb.total_mass())?;
            w.f64(clf.coreset_eps())?;
        }
    }

    w.0.flush()?;
    Ok(())
}

/// Serializes a fitted classifier to a file.
pub fn save_model(clf: &Classifier, path: impl AsRef<Path>) -> Result<()> {
    save_model_to(clf, std::fs::File::create(path)?)
}

/// Loads a classifier from any reader.
pub fn load_model_from(reader: impl Read) -> Result<Classifier> {
    let mut r = Dec(BufReader::new(reader));
    let mut magic = [0u8; 4];
    r.0.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(format_error(format!(
            "not a tKDC model file (bad magic {magic:02x?}, expected {MAGIC:02x?})"
        )));
    }
    let version = r.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(format_error(format!(
            "unsupported model format version {version} (this build reads versions \
             {MIN_VERSION} through {VERSION}); re-save the model with a matching tkdc release"
        )));
    }
    // Backend tag (format v3); earlier versions predate the trait and
    // are always tree models.
    let backend_tag = if version >= 3 { r.byte()? } else { 0 };
    if backend_tag > 2 {
        return Err(format_error(format!("unknown backend tag {backend_tag}")));
    }

    let p = r.f64()?;
    let epsilon = r.f64()?;
    let delta = r.f64()?;
    let bandwidth_factor = r.f64()?;
    let kernel_kind = match r.byte()? {
        0 => KernelKind::Gaussian,
        1 => KernelKind::Epanechnikov,
        other => {
            return Err(Error::Numeric(format!("unknown kernel kind {other}")));
        }
    };
    let leaf_size = r.u64()? as usize; // CAST: u64 -> usize is lossless on 64-bit targets
    let opt_bits = r.byte()?;
    let opts = Optimizations {
        threshold_rule: opt_bits & 1 != 0,
        tolerance_rule: opt_bits & 2 != 0,
        equiwidth_split: opt_bits & 4 != 0,
        grid: opt_bits & 8 != 0,
    };
    let seed = r.u64()?;
    let bootstrap = BootstrapParams {
        r0: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
        s0: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
        growth: r.f64()?,
        backoff: r.f64()?,
        buffer: r.f64()?,
        max_retries: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
    };
    let backend_spec = match backend_tag {
        0 => BackendSpec::Tree,
        1 => BackendSpec::Hbe(HbeParams {
            tables: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
            hashes: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
            bucket_width: r.f64()?,
            samples: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
        }),
        _ => BackendSpec::Rff(RffParams {
            features: r.u64()? as usize, // CAST: u64 -> usize is lossless on 64-bit targets
        }),
    };
    let params = Params {
        p,
        epsilon,
        delta,
        bandwidth_factor,
        kernel: kernel_kind,
        leaf_size,
        opts,
        bootstrap,
        seed,
        backend: backend_spec,
    };
    params.validate()?;

    let threshold = r.f64()?;
    let bounds = ThresholdBounds {
        lower: r.f64()?,
        upper: r.f64()?,
    };
    if !threshold.is_finite() || threshold < 0.0 || !bounds.lower.is_finite() {
        return Err(Error::Numeric("corrupt threshold fields".into()));
    }

    let bandwidths = r.f64s()?;
    let kernel = Kernel::new(kernel_kind, bandwidths)?;

    match backend_tag {
        1 => return load_hbe_payload(&mut r, params, kernel, threshold, bounds),
        2 => return load_rff_payload(&mut r, params, kernel, threshold, bounds),
        _ => {}
    }

    let dim = r.u64()? as usize; // CAST: u64 -> usize is lossless on 64-bit targets
    let tree_leaf = r.u64()? as usize; // CAST: u64 -> usize is lossless on 64-bit targets
    let points = r.f64s()?;
    let n_nodes = r.len_checked()?;
    let mut nodes = prealloc(n_nodes);
    for _ in 0..n_nodes {
        nodes.push([r.u32()?, r.u32()?, r.u32()?, r.u32()?]);
    }
    let node_lo = r.f64s()?;
    let node_hi = r.f64s()?;

    let grid = match r.byte()? {
        0 => None,
        1 => {
            let cell = r.f64s()?;
            let n_points = r.u64()? as usize; // CAST: u64 -> usize is lossless on 64-bit targets
            let n_entries = r.len_checked()?;
            let mut entries = prealloc(n_entries);
            for _ in 0..n_entries {
                let k = r.u128()?;
                let c = r.u32()?;
                entries.push((k, c));
            }
            Some(BandwidthGrid::from_raw_parts(GridRaw {
                cell,
                entries,
                n_points,
            })?)
        }
        other => {
            return Err(Error::Numeric(format!("bad grid flag {other}")));
        }
    };

    // Weighted tail (format v2). Truncation inside this section is a
    // *format* problem of the file, not an environment I/O failure, so
    // the raw `UnexpectedEof` is mapped to a named parse error.
    let in_weights_section = |e: Error| match e {
        Error::Io(_) => format_error("model file truncated in weights section"),
        other => other,
    };
    let (weights, coreset_eps) = if version >= 2 {
        let flag = r.byte().map_err(in_weights_section)?;
        let weights = match flag {
            0 => Vec::new(),
            1 => r.f64s().map_err(in_weights_section)?,
            other => {
                return Err(format_error(format!("bad weighted flag {other}")));
            }
        };
        let eps = r.f64().map_err(in_weights_section)?;
        if !eps.is_finite() || eps < 0.0 {
            return Err(format_error(format!("corrupt coreset epsilon {eps}")));
        }
        (weights, eps)
    } else {
        // Version-1 files predate weighted models: unit weights, no fold.
        (Vec::new(), 0.0)
    };

    let tree = KdTree::from_raw_parts(KdTreeRaw {
        dim,
        leaf_size: tree_leaf,
        points,
        nodes,
        node_lo,
        node_hi,
        weights,
    })?;
    if kernel.dim() != tree.dim() {
        return Err(Error::DimensionMismatch {
            expected: tree.dim(),
            actual: kernel.dim(),
        });
    }

    Classifier::from_loaded_parts(params, tree, kernel, grid, threshold, bounds, coreset_eps)
}

/// HBE payload: points (row-major), optional weights, coreset ε.
fn load_hbe_payload(
    r: &mut Dec<impl Read>,
    params: Params,
    kernel: Kernel,
    threshold: f64,
    bounds: ThresholdBounds,
) -> Result<Classifier> {
    let rows = r.len_checked()?;
    let cols = r.len_checked()?;
    let total = rows
        .checked_mul(cols)
        .ok_or_else(|| format_error("implausible point matrix shape"))?;
    if total > (1 << 40) {
        return Err(format_error("implausible point matrix shape"));
    }
    let mut data = prealloc(total);
    for _ in 0..total {
        data.push(r.f64()?);
    }
    let points = tkdc_common::Matrix::from_vec(data, rows, cols)?;
    let weights = match r.byte()? {
        0 => None,
        1 => Some(r.f64s()?),
        other => {
            return Err(format_error(format!("bad weighted flag {other}")));
        }
    };
    let coreset_eps = r.f64()?;
    Classifier::from_loaded_hbe(
        params,
        kernel,
        points,
        weights,
        threshold,
        bounds,
        coreset_eps,
    )
}

/// RFF payload: coefficient sketch, training count, total mass, ε.
fn load_rff_payload(
    r: &mut Dec<impl Read>,
    params: Params,
    kernel: Kernel,
    threshold: f64,
    bounds: ThresholdBounds,
) -> Result<Classifier> {
    let coef = r.f64s()?;
    let n = r.u64()? as usize; // CAST: u64 -> usize is lossless on 64-bit targets
    let total_mass = r.f64()?;
    let coreset_eps = r.f64()?;
    Classifier::from_loaded_rff(
        params,
        kernel,
        coef,
        n,
        total_mass,
        threshold,
        bounds,
        coreset_eps,
    )
}

/// Loads a classifier from a file.
pub fn load_model(path: impl AsRef<Path>) -> Result<Classifier> {
    load_model_from(std::fs::File::open(path)?)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;
    use crate::classifier::Label;
    use tkdc_common::{Matrix, Rng};

    fn blob(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let mut m = Matrix::with_cols(d);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for v in &mut row {
                *v = rng.normal(0.0, 1.0);
            }
            m.push_row(&row).unwrap();
        }
        m
    }

    #[test]
    fn round_trip_preserves_classification() {
        let data = blob(2000, 2, 777);
        let clf = Classifier::fit(&data, &Params::default().with_seed(5)).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();

        assert_eq!(loaded.threshold(), clf.threshold());
        assert_eq!(loaded.n_train(), clf.n_train());
        assert_eq!(loaded.grid_enabled(), clf.grid_enabled());
        assert_eq!(loaded.kernel().bandwidths(), clf.kernel().bandwidths());
        // Identical labels on every training point.
        use crate::classifier::ExecPolicy;
        let (a, _) = clf.classify_batch_with(&data, ExecPolicy::Serial).unwrap();
        let (b, _) = loaded
            .classify_batch_with(&data, ExecPolicy::Serial)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trip_without_grid() {
        let data = blob(800, 6, 888); // d > 4: no grid
        let clf = Classifier::fit(&data, &Params::default().with_seed(9)).unwrap();
        assert!(!clf.grid_enabled());
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();
        assert!(!loaded.grid_enabled());
        assert_eq!(
            loaded.classify(&[0.0; 6]).unwrap(),
            clf.classify(&[0.0; 6]).unwrap()
        );
    }

    #[test]
    fn file_round_trip() {
        let data = blob(500, 2, 999);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let path = std::env::temp_dir().join("tkdc_model_io_test.tkdc");
        save_model(&clf, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.classify(&[0.0, 0.0]).unwrap(), Label::High);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(load_model_from(&b"NOPE"[..]).is_err());
        assert!(load_model_from(&b"TK"[..]).is_err());
        // Valid header then truncation.
        let data = blob(300, 2, 31);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_model_from(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        assert!(load_model_from(buf.as_slice()).is_err());
    }

    #[test]
    fn weighted_round_trip_preserves_weights_and_eps() {
        let data = blob(600, 2, 4040);
        let mut rng = Rng::seed_from(11);
        let weights: Vec<f64> = (0..data.rows())
            .map(|_| 1.0 + 3.0 * rng.next_f64())
            .collect();
        let eps_c = 2.5e-3;
        let clf = Classifier::fit_weighted(&data, &weights, eps_c, &Params::default().with_seed(3))
            .unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();

        assert_eq!(loaded.threshold().to_bits(), clf.threshold().to_bits());
        assert_eq!(loaded.coreset_eps().to_bits(), clf.coreset_eps().to_bits());
        assert!(loaded.tree().unwrap().is_weighted());
        // Bit-identical weights in tree order, and identical node masses.
        let a = clf.tree().unwrap().weights().unwrap();
        let b = loaded.tree().unwrap().weights().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            clf.tree().unwrap().total_mass().to_bits(),
            loaded.tree().unwrap().total_mass().to_bits()
        );
        // Labels (including Unknown) agree everywhere.
        use crate::classifier::ExecPolicy;
        let queries = blob(150, 2, 4141);
        let (x, _) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        let (y, _) = loaded
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn v1_unweighted_file_loads_with_unit_weights() {
        // A version-1 file is the v3 byte stream minus the backend tag
        // byte and the 9-byte weighted tail (flag byte + coreset-ε f64),
        // with the version field rewritten — v1 predates all three.
        let data = blob(400, 2, 2020);
        let clf = Classifier::fit(&data, &Params::default().with_seed(5)).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        buf.remove(8); // the v3 backend tag
        buf.truncate(buf.len() - 9);
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());

        let loaded = load_model_from(buf.as_slice()).unwrap();
        // Unit weights: unweighted representation, masses equal counts.
        assert!(!loaded.tree().unwrap().is_weighted());
        assert!(loaded.tree().unwrap().weights().is_none());
        assert_eq!(loaded.tree().unwrap().total_mass(), loaded.n_train() as f64);
        assert_eq!(loaded.coreset_eps(), 0.0);
        assert_eq!(loaded.threshold().to_bits(), clf.threshold().to_bits());
        assert_eq!(
            loaded.classify(&[0.0, 0.0]).unwrap(),
            clf.classify(&[0.0, 0.0]).unwrap()
        );
    }

    #[test]
    fn truncated_weights_section_is_a_named_parse_error() {
        let data = blob(300, 2, 3030);
        let weights = vec![2.0; data.rows()];
        let clf = Classifier::fit_weighted(&data, &weights, 1e-3, &Params::default()).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        // Cut inside the weights array (the tail ends with the 8-byte ε,
        // preceded by 8·n weight bytes), and again with only ε missing.
        for cut in [buf.len() - 12, buf.len() - 8] {
            let err = load_model_from(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, Error::Parse { line: 0, .. }),
                "expected a named Parse error, got {err:?}"
            );
            assert!(
                err.to_string().contains("weights section"),
                "unhelpful message: {err}"
            );
        }
    }

    #[test]
    fn rejects_corrupt_length_fields() {
        let data = blob(300, 2, 33);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        // Stomp the bandwidth-vector length prefix (fixed offset by
        // format layout: 8 header + 1 backend tag + 98 params + 24
        // threshold fields).
        let off = 131;
        for b in &mut buf[off..off + 8] {
            *b = 0xFF;
        }
        assert!(load_model_from(buf.as_slice()).is_err());
        // And NaN-stomping the threshold itself must also be caught.
        let mut buf2 = Vec::new();
        save_model_to(&clf, &mut buf2).unwrap();
        for b in &mut buf2[115..123] {
            *b = 0xFF;
        }
        assert!(load_model_from(buf2.as_slice()).is_err());
    }

    #[test]
    fn hbe_round_trip_is_bit_identical() {
        use crate::classifier::ExecPolicy;
        use crate::params::{BackendSpec, HbeParams};
        let data = blob(800, 3, 5050);
        let params = Params::default()
            .with_seed(7)
            .with_backend(BackendSpec::Hbe(HbeParams::default()));
        let clf = Classifier::fit(&data, &params).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();

        assert_eq!(loaded.backend_name(), "hbe");
        assert_eq!(loaded.threshold().to_bits(), clf.threshold().to_bits());
        assert_eq!(loaded.n_train(), clf.n_train());
        assert_eq!(loaded.params().backend, clf.params().backend);
        assert!(loaded.tree().is_none());
        // Per-query determinism + seed-rebuilt tables ⇒ identical labels
        // and identical merged statistics.
        let queries = blob(200, 3, 5151);
        let (a, sa) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        let (b, sb) = loaded
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn hbe_weighted_round_trip_preserves_weights() {
        use crate::params::{BackendSpec, HbeParams};
        let data = blob(400, 2, 5252);
        let mut rng = Rng::seed_from(13);
        let weights: Vec<f64> = (0..data.rows()).map(|_| 1.0 + rng.next_f64()).collect();
        let params = Params::default().with_backend(BackendSpec::Hbe(HbeParams::default()));
        let clf = Classifier::fit_weighted(&data, &weights, 1e-3, &params).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.coreset_eps().to_bits(), clf.coreset_eps().to_bits());
        assert_eq!(loaded.threshold().to_bits(), clf.threshold().to_bits());
        let mut s1 = crate::qstats::QueryScratch::new();
        let mut s2 = crate::qstats::QueryScratch::new();
        let b1 = clf.bound_density_with(&[0.0, 0.0], &mut s1).unwrap();
        let b2 = loaded.bound_density_with(&[0.0, 0.0], &mut s2).unwrap();
        assert_eq!(b1.lower.to_bits(), b2.lower.to_bits());
        assert_eq!(b1.upper.to_bits(), b2.upper.to_bits());
    }

    #[test]
    fn rff_round_trip_is_bit_identical() {
        use crate::classifier::ExecPolicy;
        use crate::params::{BackendSpec, RffParams};
        let data = blob(800, 3, 5353);
        let params = Params::default()
            .with_seed(11)
            .with_backend(BackendSpec::Rff(RffParams::default()));
        let clf = Classifier::fit(&data, &params).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();

        assert_eq!(loaded.backend_name(), "rff");
        assert_eq!(loaded.threshold().to_bits(), clf.threshold().to_bits());
        assert_eq!(loaded.n_train(), clf.n_train());
        assert!(loaded.tree().is_none());
        // The sketch persists verbatim and the feature bank regenerates
        // from the seed, so estimates are bit-identical.
        let queries = blob(200, 3, 5454);
        let (a, sa) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        let (b, sb) = loaded
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // Truncating inside the estimator payload fails cleanly.
        buf.truncate(buf.len() - 4);
        assert!(load_model_from(buf.as_slice()).is_err());
    }
}
