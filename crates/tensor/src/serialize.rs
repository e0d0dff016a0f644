//! Binary checkpointing of tensors, module parameters and full training
//! state.
//!
//! Two minimal, dependency-free formats built from the same little-endian
//! primitives:
//!
//! * **Tensor lists** (`OODT` magic): positional parameter/buffer dumps
//!   sufficient to save and restore trained models; shapes are verified on
//!   load so a checkpoint can only be restored into an
//!   identically-structured model.
//! * **[`Snapshot`]s** (`OODS` magic): named sections each carrying
//!   tensors, `u64`s and `f32`s — enough to capture *everything* a training
//!   run needs to resume bitwise-identically (optimizer moments, RNG state,
//!   loss curves, sample weights, …). Snapshots are written atomically
//!   (write-tmp + rename) so a crash mid-save never corrupts the previous
//!   checkpoint.

use crate::nn::Param;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"OODT";
const VERSION: u8 = 1;
const SNAPSHOT_MAGIC: &[u8; 4] = b"OODS";
const SNAPSHOT_VERSION: u8 = 1;

fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> io::Result<()> {
    let dims = t.shape().dims();
    w.write_all(&(dims.len() as u32).to_le_bytes())?;
    for &d in dims {
        w.write_all(&(d as u32).to_le_bytes())?;
    }
    for &v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read `count` little-endian items of `N` bytes each. The buffer grows
/// as bytes actually arrive, so an untrusted count cannot reserve memory
/// the input does not back.
fn read_items<R: Read, T, const N: usize>(
    r: &mut R,
    count: usize,
    decode: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let want = (count as u64)
        .checked_mul(N as u64)
        .ok_or_else(|| invalid("item count overflows"))?;
    let mut bytes = Vec::new();
    r.by_ref().take(want).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "checkpoint truncated",
        ));
    }
    Ok(bytes
        .chunks_exact(N)
        .map(|c| {
            let mut item = [0u8; N];
            item.copy_from_slice(c);
            decode(item)
        })
        .collect())
}

fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let rank = read_u32(r)? as usize;
    if rank > 8 {
        return Err(invalid("rank too large"));
    }
    let dims = read_items(r, rank, |b| u32::from_le_bytes(b) as usize)?;
    // Every partial product of the dims (numel, strides) must fit in a
    // usize; the product of the nonzero dims bounds them all.
    let span = dims
        .iter()
        .filter(|&&d| d != 0)
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| invalid("tensor dims overflow"))?;
    let numel = if dims.contains(&0) { 0 } else { span };
    let data = read_items(r, numel, f32::from_le_bytes)?;
    Ok(Tensor::from_vec(data, Shape::new(&dims)))
}

/// Write a sequence of tensors to a writer.
pub fn write_tensors<W: Write>(mut w: W, tensors: &[&Tensor]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(tensors.len() as u32).to_le_bytes())?;
    for t in tensors {
        write_tensor(&mut w, t)?;
    }
    Ok(())
}

/// Read a sequence of tensors from a reader.
pub fn read_tensors<R: Read>(mut r: R) -> io::Result<Vec<Tensor>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {}", version[0]),
        ));
    }
    let count = read_u32(&mut r)? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(read_tensor(&mut r)?);
    }
    Ok(out)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// One named section of a [`Snapshot`]: a tensor list plus integer and
/// float side-channels (step counters, RNG words, curve values, flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Section name (unique within a snapshot by convention).
    pub name: String,
    /// Tensor payload (parameters, optimizer moments, memory groups, …).
    pub tensors: Vec<Tensor>,
    /// Integer payload (epoch counters, RNG state words, indices, flags).
    pub ints: Vec<u64>,
    /// Float payload (loss curves, learned weights, tracker metrics).
    pub floats: Vec<f32>,
}

impl Section {
    /// An empty section with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Section {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// A multi-section training-state checkpoint (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Sections, in insertion order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Append a section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Look up a section by name (first match).
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serialize to a writer (`OODS` magic, version byte, section count,
    /// then each section as name / tensors / ints / floats).
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(SNAPSHOT_MAGIC)?;
        w.write_all(&[SNAPSHOT_VERSION])?;
        w.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        for s in &self.sections {
            let name = s.name.as_bytes();
            w.write_all(&(name.len() as u32).to_le_bytes())?;
            w.write_all(name)?;
            w.write_all(&(s.tensors.len() as u32).to_le_bytes())?;
            for t in &s.tensors {
                write_tensor(&mut w, t)?;
            }
            w.write_all(&(s.ints.len() as u32).to_le_bytes())?;
            for &v in &s.ints {
                w.write_all(&v.to_le_bytes())?;
            }
            w.write_all(&(s.floats.len() as u32).to_le_bytes())?;
            for &v in &s.floats {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserialize from a reader.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Snapshot> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad snapshot magic",
            ));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != SNAPSHOT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported snapshot version {}", version[0]),
            ));
        }
        let n_sections = read_u32(&mut r)? as usize;
        // Counts are untrusted: collections grow as their items arrive.
        let mut sections = Vec::new();
        for _ in 0..n_sections {
            let name_len = read_u32(&mut r)? as usize;
            if name_len > 4096 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "section name too long",
                ));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let n_tensors = read_u32(&mut r)? as usize;
            let mut tensors = Vec::new();
            for _ in 0..n_tensors {
                tensors.push(read_tensor(&mut r)?);
            }
            let n_ints = read_u32(&mut r)? as usize;
            let ints = read_items(&mut r, n_ints, u64::from_le_bytes)?;
            let n_floats = read_u32(&mut r)? as usize;
            let floats = read_items(&mut r, n_floats, f32::from_le_bytes)?;
            sections.push(Section {
                name,
                tensors,
                ints,
                floats,
            });
        }
        Ok(Snapshot { sections })
    }

    /// Atomically save to `path`: the snapshot is written to a sibling
    /// `.tmp` file, flushed, and renamed over the target, so a crash
    /// mid-save leaves any previous checkpoint intact.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(file);
            self.write_to(&mut w)?;
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Load a snapshot saved with [`Snapshot::save_atomic`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Snapshot> {
        let file = std::fs::File::open(path)?;
        Snapshot::read_from(io::BufReader::new(file))
    }
}

/// Save a module's parameters (in `params_mut()` order) to a file.
pub fn save_params(path: impl AsRef<Path>, params: &[&Param]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let tensors: Vec<&Tensor> = params.iter().map(|p| &p.value).collect();
    write_tensors(io::BufWriter::new(file), &tensors)
}

/// Load parameters from a file into a module's parameters (same order and
/// shapes as when saved).
///
/// # Errors
/// Fails if the count or any shape disagrees with the target parameters.
pub fn load_params(path: impl AsRef<Path>, params: Vec<&mut Param>) -> io::Result<()> {
    let file = std::fs::File::open(path)?;
    let tensors = read_tensors(io::BufReader::new(file))?;
    if tensors.len() != params.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint has {} tensors, model has {} params",
                tensors.len(),
                params.len()
            ),
        ));
    }
    for (p, t) in params.into_iter().zip(tensors) {
        if p.value.shape() != t.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shape mismatch: {} vs {}", p.value.shape(), t.shape()),
            ));
        }
        p.value = t;
    }
    Ok(())
}

/// Save a whole module: trainable parameters followed by non-trainable
/// buffers (BatchNorm running statistics etc.), in `params_mut()` /
/// `buffers_mut()` order.
pub fn save_module(path: impl AsRef<Path>, module: &mut dyn crate::nn::Module) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut tensors: Vec<Tensor> = module
        .params_mut()
        .iter()
        .map(|p| p.value.clone())
        .collect();
    tensors.extend(module.buffers_mut().iter().map(|b| (**b).clone()));
    let refs: Vec<&Tensor> = tensors.iter().collect();
    write_tensors(io::BufWriter::new(file), &refs)
}

/// Restore a module saved with [`save_module`] (same structure required).
pub fn load_module(path: impl AsRef<Path>, module: &mut dyn crate::nn::Module) -> io::Result<()> {
    let file = std::fs::File::open(path)?;
    let tensors = read_tensors(io::BufReader::new(file))?;
    let n_params = module.params_mut().len();
    let n_buffers = module.buffers_mut().len();
    if tensors.len() != n_params + n_buffers {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint has {} tensors, module expects {n_params} params + {n_buffers} buffers",
                tensors.len()
            ),
        ));
    }
    for (p, t) in module.params_mut().into_iter().zip(&tensors[..n_params]) {
        if p.value.shape() != t.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("param shape mismatch: {} vs {}", p.value.shape(), t.shape()),
            ));
        }
        p.value = t.clone();
    }
    for (b, t) in module.buffers_mut().into_iter().zip(&tensors[n_params..]) {
        if b.shape() != t.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("buffer shape mismatch: {} vs {}", b.shape(), t.shape()),
            ));
        }
        *b = t.clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, Module};
    use crate::rng::Rng;

    #[test]
    fn roundtrip_tensors_in_memory() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn([3, 4], &mut rng);
        let b = Tensor::scalar(7.5);
        let c = Tensor::randn([5], &mut rng);
        let mut buf = Vec::new();
        write_tensors(&mut buf, &[&a, &b, &c]).unwrap();
        let back = read_tensors(&buf[..]).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
        assert_eq!(back[2], c);
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE\x01\x00\x00\x00\x00".to_vec();
        assert!(read_tensors(&buf[..]).is_err());
    }

    #[test]
    fn module_checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join(format!("oodt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("linear.ckpt");
        let mut rng = Rng::seed_from(2);
        let mut src = Linear::new(4, 3, &mut rng);
        {
            let params = src.params_mut();
            let refs: Vec<&Param> = params.iter().map(|p| &**p).collect();
            save_params(&path, &refs).unwrap();
        }
        let mut dst = Linear::new(4, 3, &mut rng); // different random init
        load_params(&path, dst.params_mut()).unwrap();
        for (a, b) in src.params_mut().iter().zip(dst.params_mut().iter()) {
            assert_eq!(a.value, b.value);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let dir = std::env::temp_dir().join(format!("oodt_test2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        let mut rng = Rng::seed_from(3);
        let mut small = Linear::new(2, 2, &mut rng);
        {
            let params = small.params_mut();
            let refs: Vec<&Param> = params.iter().map(|p| &**p).collect();
            save_params(&path, &refs).unwrap();
        }
        let mut big = Linear::new(4, 4, &mut rng);
        assert!(load_params(&path, big.params_mut()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn module_roundtrip_includes_batchnorm_buffers() {
        use crate::nn::Mlp;
        use crate::{Mode, Tape};
        let dir = std::env::temp_dir().join(format!("oodt_bn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.ckpt");
        let mut rng = Rng::seed_from(7);
        let mut src = Mlp::new(&[3, 4, 2], true, &mut rng);
        // Train-mode passes to move the BN running statistics off default.
        for _ in 0..10 {
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::randn([16, 3], &mut rng).add_scalar(2.0));
            let _ = src.forward(&mut tape, x, Mode::Train);
            for p in src.params_mut() {
                p.clear_binding();
            }
        }
        assert_eq!(src.buffers_mut().len(), 2);
        save_module(&path, &mut src).unwrap();
        let mut dst = Mlp::new(&[3, 4, 2], true, &mut rng);
        load_module(&path, &mut dst).unwrap();
        // Eval predictions identical => buffers restored.
        let probe = Tensor::randn([4, 3], &mut rng);
        let eval = |m: &mut Mlp| {
            let mut tape = Tape::new();
            let x = tape.constant(probe.clone());
            let y = m.forward(&mut tape, x, Mode::Eval);
            tape.value(y).clone()
        };
        assert!(eval(&mut src).max_abs_diff(&eval(&mut dst)) < 1e-6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrip_in_memory() {
        let mut rng = Rng::seed_from(5);
        let mut snap = Snapshot::new();
        let mut model = Section::new("model");
        model.tensors.push(Tensor::randn([3, 2], &mut rng));
        model.tensors.push(Tensor::randn([2], &mut rng));
        snap.push(model);
        let mut meta = Section::new("meta");
        meta.ints = vec![1, 42, u64::MAX];
        meta.floats = vec![0.5, -1.25, f32::MIN_POSITIVE];
        snap.push(meta);
        snap.push(Section::new("empty"));
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let back = Snapshot::read_from(&buf[..]).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.section("meta").unwrap().ints[1], 42);
        assert!(back.section("missing").is_none());
    }

    #[test]
    fn snapshot_rejects_bad_magic() {
        let buf = b"OODT\x01\x00\x00\x00\x00".to_vec();
        assert!(Snapshot::read_from(&buf[..]).is_err());
    }

    fn assert_rejected(res: io::Result<impl std::fmt::Debug>, what: &str) {
        match res {
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{what}: unexpected error kind {e:?}"
            ),
            Ok(v) => panic!("{what}: hostile input accepted as {v:?}"),
        }
    }

    #[test]
    fn snapshot_with_huge_section_count_is_rejected() {
        assert_rejected(
            Snapshot::read_from(&b"OODS\x01\xff\xff\xff\xff"[..]),
            "u32::MAX sections",
        );
    }

    #[test]
    fn tensor_with_overflowing_dims_is_rejected() {
        let mut buf = b"OODT\x01".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&8u32.to_le_bytes());
        for _ in 0..8 {
            buf.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        assert_rejected(read_tensors(&buf[..]), "rank-8 u32::MAX dims");
        // A zero dim does not excuse the overflowing ones (strides would
        // still overflow).
        buf[13..17].copy_from_slice(&0u32.to_le_bytes());
        assert_rejected(read_tensors(&buf[..]), "zero dim among u32::MAX dims");
    }

    #[test]
    fn snapshot_with_huge_int_count_is_rejected() {
        let mut buf = b"OODS\x01".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes()); // sections
        buf.extend_from_slice(&0u32.to_le_bytes()); // name length
        buf.extend_from_slice(&0u32.to_le_bytes()); // tensors
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // ints
        buf.extend_from_slice(&7u64.to_le_bytes()); // one int of many
        assert_rejected(Snapshot::read_from(&buf[..]), "u32::MAX ints");
    }

    #[test]
    fn truncated_tensor_data_is_rejected() {
        let mut buf = Vec::new();
        write_tensors(&mut buf, &[&Tensor::zeros([4, 4])]).unwrap();
        buf.truncate(buf.len() - 1);
        assert_rejected(read_tensors(&buf[..]), "one byte short");
    }

    #[test]
    fn snapshot_save_atomic_replaces_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("oods_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.snap");
        let mut first = Snapshot::new();
        let mut s = Section::new("meta");
        s.ints = vec![1];
        first.push(s);
        first.save_atomic(&path).unwrap();
        // Overwrite with a second snapshot: rename must replace in place.
        let mut second = Snapshot::new();
        let mut s = Section::new("meta");
        s.ints = vec![2];
        second.push(s);
        second.save_atomic(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.section("meta").unwrap().ints, vec![2]);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_save_atomic_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("oods_nest_{}", std::process::id()));
        let path = dir.join("a/b/run.snap");
        Snapshot::new().save_atomic(&path).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_param_count_mismatch() {
        let dir = std::env::temp_dir().join(format!("oodt_test3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("count.ckpt");
        let t = Tensor::zeros([2]);
        {
            let f = std::fs::File::create(&path).unwrap();
            write_tensors(f, &[&t]).unwrap();
        }
        let mut rng = Rng::seed_from(4);
        let mut lin = Linear::new(2, 2, &mut rng); // 2 params
        assert!(load_params(&path, lin.params_mut()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
