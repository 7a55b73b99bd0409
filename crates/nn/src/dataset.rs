//! Synthetic handwritten-digit dataset (MNIST substitute).
//!
//! The paper evaluates a 768:256:256:256:10 Binary-SNN on MNIST (§4.4.2).
//! MNIST itself is not available in this offline environment, so this module
//! generates a deterministic synthetic equivalent with the same tensor
//! contract: 28×28 binary images, 10 classes, and the paper's exact
//! preprocessing — a 2×2 pixel block removed from every corner to shrink 784
//! pixels to 768 (= 6×128 SRAM inputs).
//!
//! Each sample is a digit glyph randomly shifted, sheared, thickened and
//! corrupted with per-pixel noise, seeded through ChaCha8 so every run of
//! every experiment sees the same data. The substitution is documented in
//! the README's "Which `repro` id reproduces what"; accuracy on this set is
//! a *shape* check against the paper's 97.64 %, not a number match.

use esam_bits::BitVec;
use rand::seq::SliceRandom;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::NnError;

/// Image side length before cropping.
pub const IMAGE_SIDE: usize = 28;
/// Pixels per raw image.
pub const RAW_PIXELS: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Pixels after the §4.4.2 corner crop (6 × 128 = 768).
pub const CROPPED_PIXELS: usize = 768;
/// Number of digit classes.
pub const CLASSES: usize = 10;

const GLYPH_W: usize = 8;
const GLYPH_H: usize = 12;

/// 8×12 seed glyphs for the ten digits ('#' = ink).
const GLYPHS: [[&str; GLYPH_H]; CLASSES] = [
    [
        "..####..", ".#....#.", "#......#", "#......#", "#......#", "#......#", "#......#",
        "#......#", "#......#", "#......#", ".#....#.", "..####..",
    ],
    [
        "...##...", "..###...", ".#.##...", "...##...", "...##...", "...##...", "...##...",
        "...##...", "...##...", "...##...", "...##...", ".######.",
    ],
    [
        ".#####..", "#.....#.", "#.....#.", "......#.", ".....#..", "....#...", "...#....",
        "..#.....", ".#......", "#.......", "#......#", "########",
    ],
    [
        ".#####..", "#.....#.", "......#.", "......#.", "......#.", "..####..", "......#.",
        "......#.", "......#.", "......#.", "#.....#.", ".#####..",
    ],
    [
        "....##..", "...#.#..", "..#..#..", ".#...#..", "#....#..", "#....#..", "########",
        ".....#..", ".....#..", ".....#..", ".....#..", ".....#..",
    ],
    [
        "#######.", "#.......", "#.......", "#.......", "######..", "......#.", ".......#",
        ".......#", ".......#", ".......#", "#.....#.", ".#####..",
    ],
    [
        "..####..", ".#......", "#.......", "#.......", "######..", "#.....#.", "#......#",
        "#......#", "#......#", "#......#", ".#....#.", "..####..",
    ],
    [
        "########", "#......#", ".......#", "......#.", "......#.", ".....#..", ".....#..",
        "....#...", "....#...", "...#....", "...#....", "...#....",
    ],
    [
        "..####..", ".#....#.", "#......#", "#......#", ".#....#.", "..####..", ".#....#.",
        "#......#", "#......#", "#......#", ".#....#.", "..####..",
    ],
    [
        "..####..", ".#....#.", "#......#", "#......#", "#......#", ".#.....#", "..#####.",
        ".......#", ".......#", ".......#", "......#.", "..####..",
    ],
];

/// Generation parameters for the synthetic set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitsConfig {
    /// Training samples.
    pub train_count: usize,
    /// Held-out test samples.
    pub test_count: usize,
    /// Per-pixel flip probability after rendering.
    pub noise: f64,
    /// Maximum |shift| in pixels applied to the glyph placement.
    pub max_shift: i32,
    /// Probability that a sample is stroke-thickened (dilated).
    pub dilate_probability: f64,
    /// Maximum shear (slant) in pixels across the glyph height.
    pub max_shear: i32,
    /// RNG seed — the entire dataset is a pure function of this value.
    pub seed: u64,
}

impl Default for DigitsConfig {
    fn default() -> Self {
        Self {
            train_count: 4000,
            test_count: 1000,
            noise: 0.02,
            max_shift: 2,
            dilate_probability: 0.3,
            max_shear: 2,
            seed: 7,
        }
    }
}

/// One split (train or test) of the dataset: cropped 768-pixel binary images.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    images: Vec<Vec<f32>>,
    labels: Vec<u8>,
}

impl Split {
    /// Assembles a split from parallel image/label vectors (used by the
    /// IDX loader and tests).
    ///
    /// # Panics
    ///
    /// Panics if the vectors disagree in length.
    pub fn from_parts(images: Vec<Vec<f32>>, labels: Vec<u8>) -> Self {
        assert_eq!(images.len(), labels.len(), "images and labels must pair up");
        Self { images, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the split holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `i`-th image as 768 `{0.0, 1.0}` values.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn image(&self, i: usize) -> &[f32] {
        &self.images[i]
    }

    /// The `i`-th label (0–9).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }

    /// The `i`-th image as an input spike frame for the SNN.
    pub fn spikes(&self, i: usize) -> BitVec {
        self.images[i].iter().map(|&p| p > 0.5).collect()
    }

    /// Iterator over `(image, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], u8)> + '_ {
        self.images
            .iter()
            .map(|v| v.as_slice())
            .zip(self.labels.iter().copied())
    }

    /// Streams the split as `(spike frame, label)` samples in a
    /// deterministically shuffled order — the sample source online-learning
    /// sessions consume.
    ///
    /// The visit order is a pure function of `seed` (Fisher–Yates through
    /// ChaCha8), so two streams with the same seed replay the same epoch
    /// bit-for-bit; different seeds give independent epoch orderings. Every
    /// sample appears exactly once per stream.
    pub fn stream(&self, seed: u64) -> SampleStream<'_> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        SampleStream {
            split: self,
            order,
            cursor: 0,
        }
    }
}

/// A deterministic streaming source of `(spike frame, label)` samples over
/// one [`Split`] — see [`Split::stream`].
#[derive(Debug, Clone)]
pub struct SampleStream<'a> {
    split: &'a Split,
    order: Vec<usize>,
    cursor: usize,
}

impl SampleStream<'_> {
    /// Samples not yet yielded.
    pub fn remaining(&self) -> usize {
        self.order.len() - self.cursor
    }
}

impl Iterator for SampleStream<'_> {
    type Item = (BitVec, u8);

    fn next(&mut self) -> Option<Self::Item> {
        let &index = self.order.get(self.cursor)?;
        self.cursor += 1;
        Some((self.split.spikes(index), self.split.label(index)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for SampleStream<'_> {}

/// The full synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Training split.
    pub train: Split,
    /// Test split.
    pub test: Split,
}

impl Dataset {
    /// Generates the dataset for `config` (fully deterministic per seed).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyDataset`] when either split has zero samples.
    pub fn generate(config: &DigitsConfig) -> Result<Self, NnError> {
        if config.train_count == 0 || config.test_count == 0 {
            return Err(NnError::EmptyDataset);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let train = render_split(config, config.train_count, &mut rng);
        let test = render_split(config, config.test_count, &mut rng);
        Ok(Self { train, test })
    }
}

fn render_split(config: &DigitsConfig, count: usize, rng: &mut ChaCha8Rng) -> Split {
    let mut images = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        // Balanced classes: round-robin with shuffled phase.
        let digit = ((i + rng.random_range(0..CLASSES)) % CLASSES) as u8;
        images.push(corner_crop(&render_digit(digit, config, rng)));
        labels.push(digit);
    }
    Split { images, labels }
}

/// Renders one 28×28 binary digit image.
fn render_digit(digit: u8, config: &DigitsConfig, rng: &mut ChaCha8Rng) -> Vec<f32> {
    let glyph = &GLYPHS[digit as usize];
    let mut canvas = vec![false; RAW_PIXELS];

    // Base placement: glyph scaled 2× (16×24), centred with room to shift.
    let base_x = (IMAGE_SIDE - 2 * GLYPH_W) as i32 / 2;
    let base_y = (IMAGE_SIDE - 2 * GLYPH_H) as i32 / 2;
    let shift_x = rng.random_range(-config.max_shift..=config.max_shift);
    let shift_y = rng.random_range(-config.max_shift..=config.max_shift);
    let shear = rng.random_range(-config.max_shear..=config.max_shear);

    for (gy, row) in glyph.iter().enumerate() {
        for (gx, ch) in row.bytes().enumerate() {
            if ch != b'#' {
                continue;
            }
            // 2×2 block per glyph pixel, sheared horizontally with height.
            let row_shear = shear * (gy as i32 - GLYPH_H as i32 / 2) / (GLYPH_H as i32 / 2);
            for dy in 0..2i32 {
                for dx in 0..2i32 {
                    let x = base_x + shift_x + row_shear + 2 * gx as i32 + dx;
                    let y = base_y + shift_y + 2 * gy as i32 + dy;
                    if (0..IMAGE_SIDE as i32).contains(&x) && (0..IMAGE_SIDE as i32).contains(&y) {
                        canvas[y as usize * IMAGE_SIDE + x as usize] = true;
                    }
                }
            }
        }
    }

    if rng.random_bool(config.dilate_probability) {
        canvas = dilate(&canvas);
    }

    canvas
        .iter()
        .map(|&ink| {
            let flipped = if config.noise > 0.0 {
                rng.random_bool(config.noise)
            } else {
                false
            };
            if ink != flipped {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// 4-neighbour morphological dilation (stroke thickening).
fn dilate(canvas: &[bool]) -> Vec<bool> {
    let mut out = canvas.to_vec();
    for y in 0..IMAGE_SIDE {
        for x in 0..IMAGE_SIDE {
            if canvas[y * IMAGE_SIDE + x] {
                if x > 0 {
                    out[y * IMAGE_SIDE + x - 1] = true;
                }
                if x + 1 < IMAGE_SIDE {
                    out[y * IMAGE_SIDE + x + 1] = true;
                }
                if y > 0 {
                    out[(y - 1) * IMAGE_SIDE + x] = true;
                }
                if y + 1 < IMAGE_SIDE {
                    out[(y + 1) * IMAGE_SIDE + x] = true;
                }
            }
        }
    }
    out
}

/// The paper's preprocessing: removes a 2×2 pixel block from every corner of
/// a 28×28 image, shrinking 784 pixels to exactly 768 = 6×128 (§4.4.2).
///
/// # Panics
///
/// Panics if the input is not 784 pixels.
pub fn corner_crop(image: &[f32]) -> Vec<f32> {
    assert_eq!(image.len(), RAW_PIXELS, "corner crop expects a 28x28 image");
    let corner = |x: usize, y: usize| -> bool {
        let near_left = x < 2;
        let near_right = x >= IMAGE_SIDE - 2;
        let near_top = y < 2;
        let near_bottom = y >= IMAGE_SIDE - 2;
        (near_left || near_right) && (near_top || near_bottom)
    };
    let mut out = Vec::with_capacity(CROPPED_PIXELS);
    for y in 0..IMAGE_SIDE {
        for x in 0..IMAGE_SIDE {
            if !corner(x, y) {
                out.push(image[y * IMAGE_SIDE + x]);
            }
        }
    }
    debug_assert_eq!(out.len(), CROPPED_PIXELS);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_well_formed() {
        for (digit, glyph) in GLYPHS.iter().enumerate() {
            for (row_index, row) in glyph.iter().enumerate() {
                assert_eq!(
                    row.len(),
                    GLYPH_W,
                    "digit {digit} row {row_index} has wrong width"
                );
            }
            let ink: usize = glyph
                .iter()
                .map(|r| r.bytes().filter(|&b| b == b'#').count())
                .sum();
            assert!(ink >= 12, "digit {digit} glyph too sparse ({ink} pixels)");
        }
    }

    #[test]
    fn corner_crop_is_768_and_removes_corners() {
        let mut image = vec![0.0f32; RAW_PIXELS];
        // Mark the 16 corner pixels.
        for &y in &[0usize, 1, 26, 27] {
            for &x in &[0usize, 1, 26, 27] {
                image[y * IMAGE_SIDE + x] = 1.0;
            }
        }
        let cropped = corner_crop(&image);
        assert_eq!(cropped.len(), CROPPED_PIXELS);
        assert!(
            cropped.iter().all(|&p| p == 0.0),
            "corner pixels must be gone"
        );
    }

    #[test]
    fn corner_crop_keeps_interior() {
        let mut image = vec![0.0f32; RAW_PIXELS];
        image[14 * IMAGE_SIDE + 14] = 1.0;
        let cropped = corner_crop(&image);
        assert_eq!(cropped.iter().filter(|&&p| p == 1.0).count(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = DigitsConfig {
            train_count: 20,
            test_count: 10,
            ..DigitsConfig::default()
        };
        let a = Dataset::generate(&config).unwrap();
        let b = Dataset::generate(&config).unwrap();
        assert_eq!(a, b);
        let c = Dataset::generate(&DigitsConfig { seed: 8, ..config }).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn images_are_binary_and_cropped() {
        let config = DigitsConfig {
            train_count: 30,
            test_count: 10,
            ..DigitsConfig::default()
        };
        let data = Dataset::generate(&config).unwrap();
        assert_eq!(data.train.len(), 30);
        assert_eq!(data.test.len(), 10);
        for (image, label) in data.train.iter() {
            assert_eq!(image.len(), CROPPED_PIXELS);
            assert!(image.iter().all(|&p| p == 0.0 || p == 1.0));
            assert!(label < 10);
        }
    }

    #[test]
    fn classes_are_roughly_balanced() {
        let config = DigitsConfig {
            train_count: 1000,
            test_count: 10,
            ..DigitsConfig::default()
        };
        let data = Dataset::generate(&config).unwrap();
        let mut counts = [0usize; CLASSES];
        for (_, label) in data.train.iter() {
            counts[label as usize] += 1;
        }
        for (digit, &count) in counts.iter().enumerate() {
            assert!(
                (60..=140).contains(&count),
                "digit {digit} appears {count} times in 1000 samples"
            );
        }
    }

    #[test]
    fn digits_have_distinct_shapes() {
        // Noise-free renders of different digits must differ substantially.
        let config = DigitsConfig {
            train_count: 1,
            test_count: 1,
            noise: 0.0,
            max_shift: 0,
            dilate_probability: 0.0,
            max_shear: 0,
            seed: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let renders: Vec<Vec<f32>> = (0..10)
            .map(|d| render_digit(d, &config, &mut rng))
            .collect();
        for a in 0..10 {
            for b in (a + 1)..10 {
                let diff: usize = renders[a]
                    .iter()
                    .zip(&renders[b])
                    .filter(|(x, y)| x != y)
                    .count();
                assert!(diff > 20, "digits {a} and {b} differ by only {diff} pixels");
            }
        }
    }

    #[test]
    fn spikes_match_images() {
        let config = DigitsConfig {
            train_count: 5,
            test_count: 5,
            ..DigitsConfig::default()
        };
        let data = Dataset::generate(&config).unwrap();
        let spikes = data.test.spikes(0);
        assert_eq!(spikes.len(), CROPPED_PIXELS);
        assert_eq!(
            spikes.count_ones(),
            data.test.image(0).iter().filter(|&&p| p > 0.5).count()
        );
    }

    #[test]
    fn stream_visits_every_sample_once_deterministically() {
        let config = DigitsConfig {
            train_count: 40,
            test_count: 5,
            ..DigitsConfig::default()
        };
        let data = Dataset::generate(&config).unwrap();
        let a: Vec<(BitVec, u8)> = data.train.stream(3).collect();
        let b: Vec<(BitVec, u8)> = data.train.stream(3).collect();
        assert_eq!(a, b, "same seed must replay the same epoch");
        assert_eq!(a.len(), 40);
        // Every sample appears exactly once: label multiset matches the split.
        let mut streamed: Vec<u8> = a.iter().map(|(_, l)| *l).collect();
        let mut direct: Vec<u8> = (0..data.train.len()).map(|i| data.train.label(i)).collect();
        streamed.sort_unstable();
        direct.sort_unstable();
        assert_eq!(streamed, direct);
        // A different seed reorders (40 samples make a collision vanishingly
        // unlikely with distinct shuffles).
        let c: Vec<(BitVec, u8)> = data.train.stream(4).collect();
        assert_ne!(a, c, "different seeds must reorder the epoch");
        let mut stream = data.train.stream(0);
        assert_eq!(stream.len(), 40);
        stream.next();
        assert_eq!(stream.remaining(), 39);
    }

    #[test]
    fn empty_split_rejected() {
        let config = DigitsConfig {
            train_count: 0,
            test_count: 1,
            ..DigitsConfig::default()
        };
        assert!(matches!(
            Dataset::generate(&config),
            Err(NnError::EmptyDataset)
        ));
    }
}
