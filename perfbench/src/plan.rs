//! Seeded request generation: everything a run sends is a pure function of
//! the `--seed` argument and the client stream's index.

use vss_codec::Codec;
use vss_core::ReadRequest;
use vss_frame::{PixelFormat, Resolution};

/// Source resolution of every camera: the VisualRoad-2K preset ÷ 6.
pub const WIDTH: u32 = 320;
/// See [`WIDTH`].
pub const HEIGHT: u32 = 180;
/// Frames per second of every camera.
pub const FPS: f64 = 30.0;
/// Frames per stored GOP (the store's default GOP size).
pub const GOP_FRAMES: usize = 30;
/// Output resolution of `index` reads: a quarter of the source pixels.
pub const INDEX_RES: (u32, u32) = (WIDTH / 2, HEIGHT / 2);
/// Pre-written cameras read by the `analytics` mix.
pub const READ_CAMERAS: usize = 4;
/// Seconds of video per pre-written camera.
pub const READ_SECONDS: usize = 20;
/// Length of an `export` read, in seconds.
pub const EXPORT_SECONDS: usize = 5;
/// Zipf exponent of the region popularity skew.
pub const ZIPF_S: f64 = 1.0;
/// One read in this many is re-checked byte for byte against an in-process
/// read of the same request.
pub const SAMPLE_EVERY: u64 = 16;

/// SplitMix64: a small, fast, fully specified generator, so a seed means
/// the same requests on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// The four read classes of the traffic application's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Raw RGB at a quarter of the pixels, 1 s (detector input).
    Index,
    /// H.264, 1 s starting mid-GOP (look-back decode and re-encode).
    Clip,
    /// HEVC, 1 s (full transcode).
    Transcode,
    /// H.264 passthrough, 5 s, uncacheable (bulk export).
    Export,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Index, Class::Clip, Class::Transcode, Class::Export];

    /// The class's share of the mix, in percent.
    pub fn weight(self) -> u32 {
        match self {
            Class::Index => 45,
            Class::Clip => 30,
            Class::Transcode => 15,
            Class::Export => 10,
        }
    }

    /// Lowercase name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Index => "index",
            Class::Clip => "clip",
            Class::Transcode => "transcode",
            Class::Export => "export",
        }
    }

    /// Frames every read of this class must return.
    pub fn expected_frames(self) -> usize {
        match self {
            Class::Export => EXPORT_SECONDS * FPS as usize,
            _ => FPS as usize,
        }
    }

    /// Resolution and pixel format every returned frame must have.
    pub fn expected_shape(self) -> (u32, u32, Option<PixelFormat>) {
        match self {
            Class::Index => (INDEX_RES.0, INDEX_RES.1, Some(PixelFormat::Rgb8)),
            // Decoded frames of compressed reads come in the codec's own
            // layout; the gate checks it is the same for every frame.
            _ => (WIDTH, HEIGHT, None),
        }
    }

    /// The codec of the encoded output, if the class reads a compressed one.
    pub fn output_codec(self) -> Option<Codec> {
        match self {
            Class::Index => None,
            Class::Clip | Class::Export => Some(Codec::H264),
            Class::Transcode => Some(Codec::Hevc),
        }
    }
}

/// One planned read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOp {
    /// The read class.
    pub class: Class,
    /// Camera index (`cam-<i>`).
    pub camera: usize,
    /// Start second of the region.
    pub window: usize,
    /// Whether this read is re-checked byte for byte in-process.
    pub sampled: bool,
}

/// Name of pre-written camera `i`.
pub fn read_camera(i: usize) -> String {
    format!("cam-{i}")
}

impl ReadOp {
    /// The wire request for this op.
    pub fn request(&self) -> ReadRequest {
        let name = read_camera(self.camera);
        let w = self.window as f64;
        match self.class {
            Class::Index => ReadRequest::new(name, w, w + 1.0, Codec::Raw(PixelFormat::Rgb8))
                .resolution(Resolution::new(INDEX_RES.0, INDEX_RES.1)),
            Class::Clip => ReadRequest::new(name, w + 0.5, w + 1.5, Codec::H264),
            Class::Transcode => ReadRequest::new(name, w, w + 1.0, Codec::Hevc),
            Class::Export => {
                ReadRequest::new(name, w, w + EXPORT_SECONDS as f64, Codec::H264).uncacheable()
            }
        }
    }
}

/// Zipf(s) over `n` ranks, sampled by inverting the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with weight `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The endless seeded read mix of one client stream. Regions (camera, 1-s
/// window) get Zipf popularity in a seeded order shared by every stream of
/// the run, so streams hit the same hot regions; each stream draws its own
/// sequence from it. Classes are dealt from shuffled blocks of
/// [`BLOCK`] reads holding each class in exact proportion, so every seed
/// runs the same class mix and only its order and regions vary.
#[derive(Debug, Clone)]
pub struct ReadMix {
    regions: Vec<(usize, usize)>,
    zipf: Zipf,
    rng: Rng,
    deck: Vec<Class>,
}

/// Reads per shuffled block of classes (the class weights divide it).
pub const BLOCK: usize = 20;

impl ReadMix {
    /// The mix of client stream `stream` in the run seeded `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut regions: Vec<(usize, usize)> = (0..READ_CAMERAS)
            .flat_map(|camera| (0..READ_SECONDS).map(move |window| (camera, window)))
            .collect();
        let mut order = Rng::new(seed, 0x5EED_0001);
        shuffle(&mut regions, &mut order);
        let zipf = Zipf::new(regions.len(), ZIPF_S);
        ReadMix {
            regions,
            zipf,
            rng: Rng::new(seed, 0x1000 + stream),
            deck: Vec::new(),
        }
    }

    /// The next read.
    pub fn next_op(&mut self) -> ReadOp {
        if self.deck.is_empty() {
            self.deck = Class::ALL
                .into_iter()
                .flat_map(|class| std::iter::repeat_n(class, class.weight() as usize * BLOCK / 100))
                .collect();
            shuffle(&mut self.deck, &mut self.rng);
        }
        let class = self.deck.pop().expect("deck refilled above");
        let (camera, window) = self.regions[self.zipf.sample(&mut self.rng)];
        // Clamp so every class's range lies inside the camera's recording.
        let last_start = match class {
            Class::Clip => READ_SECONDS - 2,
            Class::Export => READ_SECONDS - EXPORT_SECONDS,
            _ => READ_SECONDS - 1,
        };
        let sampled = self.rng.next_u64().is_multiple_of(SAMPLE_EVERY);
        ReadOp {
            class,
            camera,
            window: window.min(last_start),
            sampled,
        }
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let a: Vec<ReadOp> = {
            let mut mix = ReadMix::new(42, 0);
            (0..500).map(|_| mix.next_op()).collect()
        };
        let b: Vec<ReadOp> = {
            let mut mix = ReadMix::new(42, 0);
            (0..500).map(|_| mix.next_op()).collect()
        };
        assert_eq!(a, b);
        let requests_a: Vec<String> = a.iter().map(|op| format!("{:?}", op.request())).collect();
        let requests_b: Vec<String> = b.iter().map(|op| format!("{:?}", op.request())).collect();
        assert_eq!(requests_a, requests_b);
    }

    #[test]
    fn seeds_and_streams_differ() {
        let draw = |seed, stream| {
            let mut mix = ReadMix::new(seed, stream);
            (0..50).map(|_| mix.next_op()).collect::<Vec<_>>()
        };
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn class_shares_follow_the_mix() {
        let mut mix = ReadMix::new(7, 0);
        let n = 20_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..n {
            *counts.entry(mix.next_op().class).or_insert(0usize) += 1;
        }
        for class in Class::ALL {
            // Whole blocks hold each class in exact proportion.
            assert_eq!(
                counts[&class] * 100,
                n * class.weight() as usize,
                "{class:?}"
            );
        }
    }

    #[test]
    fn regions_are_skewed_and_in_range() {
        let mut mix = ReadMix::new(3, 1);
        let mut hits = std::collections::HashMap::new();
        for _ in 0..10_000 {
            let op = mix.next_op();
            assert!(op.camera < READ_CAMERAS);
            let end = op.window
                + if op.class == Class::Export {
                    EXPORT_SECONDS
                } else {
                    1
                };
            assert!(end <= READ_SECONDS, "{op:?}");
            *hits.entry((op.camera, op.window)).or_insert(0usize) += 1;
        }
        let top = *hits.values().max().unwrap();
        // Zipf(1) over 80 regions gives the top rank ~20% of draws.
        assert!(top > 1_000, "top region only drew {top}");
    }

    #[test]
    fn zipf_ranks_are_monotone() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = Rng::new(9, 9);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[9]);
    }
}
