//! Biquad IIR sections and Butterworth cascades.
//!
//! FIR filters give the relay its precisely-controlled stopband, but some
//! stages want cheap recursive filters instead: DC blocking in the reader
//! front-end and envelope smoothing in the tag's energy harvester. These
//! are classic RBJ-cookbook biquads in transposed direct form II.

use std::f64::consts::PI;

use crate::complex::Complex;
use crate::units::{Db, Hertz};

/// One second-order IIR section (normalized so a0 = 1).
#[derive(Debug, Clone)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    // Transposed direct form II state.
    z1: Complex,
    z2: Complex,
    sample_rate: f64,
}

impl Biquad {
    /// Builds a biquad from raw coefficients (a0 implied 1).
    pub fn from_coefficients(b: [f64; 3], a: [f64; 2], sample_rate: f64) -> Self {
        Self {
            b0: b[0],
            b1: b[1],
            b2: b[2],
            a1: a[0],
            a2: a[1],
            z1: Complex::default(),
            z2: Complex::default(),
            sample_rate,
        }
    }

    /// RBJ low-pass biquad with quality factor `q`.
    pub fn lowpass(cutoff: Hertz, q: f64, sample_rate: f64) -> Self {
        let w0 = 2.0 * PI * cutoff.as_hz() / sample_rate;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
            sample_rate,
        )
    }

    /// RBJ high-pass biquad with quality factor `q`.
    pub fn highpass(cutoff: Hertz, q: f64, sample_rate: f64) -> Self {
        let w0 = 2.0 * PI * cutoff.as_hz() / sample_rate;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            [
                (1.0 + cw) / 2.0 / a0,
                -(1.0 + cw) / a0,
                (1.0 + cw) / 2.0 / a0,
            ],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
            sample_rate,
        )
    }

    /// RBJ band-pass biquad (constant 0 dB peak gain).
    pub fn bandpass(center: Hertz, q: f64, sample_rate: f64) -> Self {
        let w0 = 2.0 * PI * center.as_hz() / sample_rate;
        let alpha = w0.sin() / (2.0 * q);
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            [alpha / a0, 0.0, -alpha / a0],
            [-2.0 * w0.cos() / a0, (1.0 - alpha) / a0],
            sample_rate,
        )
    }

    /// A second-order DC blocker: high-pass cutting at 0.1 % of the
    /// sample rate (1 kHz at 1 MS/s) — low enough to pass every
    /// backscatter subcarrier, high enough to settle within a few
    /// thousand samples.
    pub fn dc_blocker(sample_rate: f64) -> Self {
        Self::highpass(
            Hertz::hz(sample_rate * 1e-3),
            std::f64::consts::FRAC_1_SQRT_2,
            sample_rate,
        )
    }

    /// Processes one sample.
    #[inline]
    pub fn filter_sample(&mut self, x: Complex) -> Complex {
        let y = x * self.b0 + self.z1;
        self.z1 = x * self.b1 - y * self.a1 + self.z2;
        self.z2 = x * self.b2 - y * self.a2;
        y
    }

    /// Processes a block.
    pub fn filter_block(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| self.filter_sample(x)).collect()
    }

    /// Resets internal state.
    pub fn reset(&mut self) {
        self.z1 = Complex::default();
        self.z2 = Complex::default();
    }

    /// Complex frequency response at `f`.
    pub fn frequency_response(&self, f: Hertz) -> Complex {
        let w = 2.0 * PI * f.as_hz() / self.sample_rate;
        let z1 = Complex::cis(-w);
        let z2 = Complex::cis(-2.0 * w);
        let num = Complex::from_re(self.b0) + z1 * self.b1 + z2 * self.b2;
        let den = Complex::from_re(1.0) + z1 * self.a1 + z2 * self.a2;
        num / den
    }

    /// Magnitude response in dB.
    pub fn magnitude_db(&self, f: Hertz) -> Db {
        Db::from_linear(self.frequency_response(f).norm_sq())
    }
}

/// A cascade of biquad sections (e.g. a higher-order Butterworth).
#[derive(Debug, Clone)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

impl BiquadCascade {
    /// Builds a Butterworth low-pass of even order `order` as cascaded
    /// biquads with the standard Q values.
    pub fn butterworth_lowpass(cutoff: Hertz, order: usize, sample_rate: f64) -> Self {
        assert!(
            order >= 2 && order.is_multiple_of(2),
            "order must be even and ≥ 2"
        );
        let n = order as f64;
        let sections = (0..order / 2)
            .map(|k| {
                // Pole angles give per-section Q for a Butterworth response.
                let q = 1.0 / (2.0 * ((2.0 * k as f64 + 1.0) * PI / (2.0 * n)).sin());
                Biquad::lowpass(cutoff, q, sample_rate)
            })
            .collect();
        Self { sections }
    }

    /// Number of biquad sections.
    pub fn order(&self) -> usize {
        self.sections.len() * 2
    }

    /// Processes one sample through all sections.
    pub fn filter_sample(&mut self, x: Complex) -> Complex {
        self.sections
            .iter_mut()
            .fold(x, |acc, s| s.filter_sample(acc))
    }

    /// Processes a block.
    pub fn filter_block(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| self.filter_sample(x)).collect()
    }

    /// Resets all sections.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Combined frequency response (product over sections).
    pub fn frequency_response(&self, f: Hertz) -> Complex {
        self.sections.iter().fold(Complex::from_re(1.0), |acc, s| {
            acc * s.frequency_response(f)
        })
    }

    /// Combined magnitude response in dB.
    pub fn magnitude_db(&self, f: Hertz) -> Db {
        Db::from_linear(self.frequency_response(f).norm_sq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::mean_power;
    use crate::osc::Nco;

    const FS: f64 = 1e6;

    #[test]
    fn lowpass_biquad_basic_shape() {
        let bq = Biquad::lowpass(Hertz::khz(10.0), std::f64::consts::FRAC_1_SQRT_2, FS);
        assert!(bq.magnitude_db(Hertz::hz(1.0)).value() > -0.1);
        // Butterworth Q: −3 dB at cutoff.
        assert!((bq.magnitude_db(Hertz::khz(10.0)).value() + 3.0).abs() < 0.3);
        // Second-order: ~40 dB/decade.
        assert!(bq.magnitude_db(Hertz::khz(100.0)).value() < -35.0);
    }

    #[test]
    fn highpass_biquad_blocks_dc() {
        let mut bq = Biquad::highpass(Hertz::khz(10.0), std::f64::consts::FRAC_1_SQRT_2, FS);
        let dc = vec![Complex::from_re(1.0); 4000];
        let y = bq.filter_block(&dc);
        assert!(mean_power(&y[3000..]) < 1e-6);
        assert!(bq.magnitude_db(Hertz::khz(200.0)).value() > -0.5);
    }

    #[test]
    fn bandpass_biquad_peaks_at_center() {
        let bq = Biquad::bandpass(Hertz::khz(50.0), 5.0, FS);
        let peak = bq.magnitude_db(Hertz::khz(50.0)).value();
        assert!(peak.abs() < 0.2, "peak = {peak}");
        assert!(bq.magnitude_db(Hertz::khz(5.0)).value() < -15.0);
        assert!(bq.magnitude_db(Hertz::khz(400.0)).value() < -15.0);
    }

    #[test]
    fn dc_blocker_removes_offset_keeps_signal() {
        let mut blk = Biquad::dc_blocker(FS);
        let tone = Nco::new(Hertz::khz(40.0), FS).block(8000);
        let with_dc: Vec<Complex> = tone.iter().map(|&s| s + Complex::from_re(2.0)).collect();
        let y = blk.filter_block(&with_dc);
        let tail = &y[6000..];
        let mean: Complex = tail.iter().sum::<Complex>() / tail.len() as f64;
        assert!(mean.abs() < 0.05, "residual DC {mean}");
        assert!((mean_power(tail) - 1.0).abs() < 0.1, "signal attenuated");
    }

    #[test]
    fn butterworth_cascade_is_steeper_than_single_section() {
        let single = Biquad::lowpass(Hertz::khz(10.0), std::f64::consts::FRAC_1_SQRT_2, FS);
        let cascade = BiquadCascade::butterworth_lowpass(Hertz::khz(10.0), 6, FS);
        assert_eq!(cascade.order(), 6);
        let f = Hertz::khz(100.0);
        assert!(cascade.magnitude_db(f).value() < single.magnitude_db(f).value() - 40.0);
        // Still −3 dB at cutoff.
        assert!((cascade.magnitude_db(Hertz::khz(10.0)).value() + 3.0).abs() < 0.5);
    }

    #[test]
    fn time_domain_matches_frequency_response() {
        let mut bq = Biquad::lowpass(Hertz::khz(20.0), 1.0, FS);
        let f = Hertz::khz(15.0);
        let x = Nco::new(f, FS).block(8000);
        let y = bq.filter_block(&x);
        let measured = mean_power(&y[4000..]);
        let expected = bq.frequency_response(f).norm_sq();
        assert!((measured - expected).abs() / expected < 0.02);
    }

    #[test]
    fn reset_and_cascade_reset() {
        let mut c = BiquadCascade::butterworth_lowpass(Hertz::khz(5.0), 4, FS);
        c.filter_block(&vec![Complex::from_re(1.0); 100]);
        c.reset();
        let y = c.filter_sample(Complex::default());
        assert_eq!(y, Complex::default());
    }
}
