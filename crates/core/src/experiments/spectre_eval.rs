//! §7.3 evaluation: SpectreBack leak rate and accuracy.
//!
//! The paper reports 4.3 kbit/s at >88% accuracy in Chrome 88. We report
//! the same two numbers for the simulated attack, through a quantized
//! browser timer on a machine with DRAM jitter.

use crate::attacks::SpectreBack;
use crate::machine::Machine;
use racer_time::CoarseTimer;

/// Measured SpectreBack performance.
#[derive(Clone, Debug)]
pub struct SpectreEval {
    /// The secret that was planted.
    pub secret: Vec<u8>,
    /// The bytes recovered through the coarse timer.
    pub recovered: Vec<u8>,
    /// Bit-level accuracy in [0, 1].
    pub accuracy: f64,
    /// Leak rate in kilobits per second of simulated time.
    pub kbps: f64,
}

/// Leak `secret` on a jittery machine through a `timer_resolution_ns`
/// browser timer.
pub fn evaluate(secret: &[u8], timer_resolution_ns: f64, noise_seed: u64) -> SpectreEval {
    let mut m = Machine::noisy(noise_seed);
    let atk = SpectreBack::new(m.layout());
    atk.plant_secret(&mut m, secret);
    let mut timer = CoarseTimer::new(timer_resolution_ns);
    let report = atk.leak_bytes(&mut m, secret.len(), &mut timer);
    score(secret, report.recovered, report.kbps)
}

/// Grade `recovered` against `secret` bit-by-bit.
fn score(secret: &[u8], recovered: Vec<u8>, kbps: f64) -> SpectreEval {
    let correct_bits: u32 = recovered
        .iter()
        .zip(secret)
        .map(|(a, b)| 8 - (a ^ b).count_ones())
        .sum();
    SpectreEval {
        secret: secret.to_vec(),
        recovered,
        accuracy: correct_bits as f64 / (secret.len() * 8) as f64,
        kbps,
    }
}

/// Render the evaluation like the paper's §7.3 summary.
pub fn render(eval: &SpectreEval) -> String {
    format!(
        "secret   : {:?}\nrecovered: {:?}\naccuracy : {:.1}%\nleak rate: {:.2} kbit/s\n",
        String::from_utf8_lossy(&eval.secret),
        String::from_utf8_lossy(&eval.recovered),
        eval.accuracy * 100.0,
        eval.kbps
    )
}

impl SpectreEval {
    /// JSON form: secrets as (lossy) text plus rate and accuracy.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("secret", String::from_utf8_lossy(&self.secret).into_owned())
            .with(
                "recovered",
                String::from_utf8_lossy(&self.recovered).into_owned(),
            )
            .with("accuracy", self.accuracy)
            .with("kbps", self.kbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_the_papers_accuracy_bar() {
        let eval = evaluate(b"ASPLOS", 5_000.0, 42);
        assert!(
            eval.accuracy > 0.88,
            "accuracy must beat the paper's 88%: {:.3} ({:?})",
            eval.accuracy,
            eval.recovered
        );
        assert!(
            eval.kbps > 1.0,
            "leak rate should be kbit/s-scale: {:.2}",
            eval.kbps
        );
    }

    #[test]
    fn renders_summary() {
        let eval = evaluate(b"OK", 5_000.0, 7);
        let s = render(&eval);
        assert!(s.contains("accuracy") && s.contains("kbit/s"));
    }
}
