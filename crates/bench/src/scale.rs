//! Experiment scales.
//!
//! The paper's sweeps (50 repeats, K up to 900, 66 117 variables) ran on a
//! server farm's worth of SPICE licenses; the shapes they demonstrate
//! survive scaling down (DESIGN.md §2). Three presets are provided:
//!
//! * `ci` — seconds per experiment; used by integration tests,
//! * `default` — minutes per experiment on one core; the scale
//!   EXPERIMENTS.md records,
//! * `paper` — the paper's variable counts and repeat counts; hours.

use bmf_circuits::ro::RoConfig;
use bmf_circuits::sram::SramConfig;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny: for tests (~seconds).
    Ci,
    /// The documented reproduction scale (~minutes per table).
    #[default]
    Default,
    /// The paper's full variable counts (~hours).
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ci" => Ok(Scale::Ci),
            "default" => Ok(Scale::Default),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (ci|default|paper)")),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Ci => write!(f, "ci"),
            Scale::Default => write!(f, "default"),
            Scale::Paper => write!(f, "paper"),
        }
    }
}

impl Scale {
    /// Ring-oscillator configuration at this scale.
    pub fn ro_config(self) -> RoConfig {
        match self {
            Scale::Ci => RoConfig {
                stages: 7,
                transistors_per_stage: 2,
                params_per_transistor: 6,
                interdie_vars: 6,
                parasitic_vars_per_stage: 1,
                ..RoConfig::small()
            },
            Scale::Default => RoConfig::default_shape(),
            Scale::Paper => RoConfig::paper(),
        }
    }

    /// SRAM configuration at this scale.
    pub fn sram_config(self) -> SramConfig {
        match self {
            Scale::Ci => SramConfig {
                rows: 16,
                columns: 2,
                params_per_cell: 4,
                driver_vars: 4,
                senseamp_vars: 6,
                interdie_vars: 4,
                parasitic_vars_per_column: 2,
                ..SramConfig::small()
            },
            Scale::Default => SramConfig::default_shape(),
            Scale::Paper => SramConfig::paper(),
        }
    }

    /// Training-set sizes for the error tables (the paper sweeps
    /// 100..900).
    pub fn k_values(self) -> Vec<usize> {
        match self {
            Scale::Ci => vec![40, 80],
            _ => vec![100, 200, 300, 400, 500, 600, 700, 800, 900],
        }
    }

    /// Repeats per table cell (the paper averages 50 runs).
    pub fn repeats(self) -> usize {
        match self {
            Scale::Ci => 2,
            Scale::Default => 5,
            Scale::Paper => 50,
        }
    }

    /// Early-stage (schematic) Monte-Carlo samples (the paper uses 3000).
    pub fn early_samples(self) -> usize {
        match self {
            Scale::Ci => 300,
            _ => 3000,
        }
    }

    /// Test-set size for error estimation (the paper uses 300).
    pub fn test_samples(self) -> usize {
        match self {
            Scale::Ci => 100,
            _ => 300,
        }
    }

    /// Histogram sample count for Fig. 4 / Fig. 7.
    pub fn histogram_samples(self) -> usize {
        match self {
            Scale::Ci => 500,
            _ => 3000,
        }
    }

    /// Hyper-parameter grid for cross-validation.
    pub fn hyper_grid(self) -> Vec<f64> {
        let n = match self {
            Scale::Ci => 7,
            _ => 9,
        };
        bmf_core::hyper::log_grid(1e-3, 1e3, n)
    }

    /// Maximum OMP terms for the early-stage fit (keeps the one-off
    /// 3000-sample fit affordable without incremental QR).
    pub fn early_max_terms(self) -> usize {
        match self {
            Scale::Ci => 60,
            _ => 300,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_from_str() {
        assert_eq!("ci".parse::<Scale>().unwrap(), Scale::Ci);
        assert_eq!("default".parse::<Scale>().unwrap(), Scale::Default);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Paper);
        assert!("big".parse::<Scale>().is_err());
    }

    #[test]
    fn paper_scale_matches_paper_counts() {
        assert_eq!(Scale::Paper.ro_config().post_layout_vars(), 7177);
        assert_eq!(Scale::Paper.sram_config().post_layout_vars(), 66_117);
        assert_eq!(Scale::Paper.repeats(), 50);
    }

    #[test]
    fn ci_scale_is_small() {
        assert!(Scale::Ci.ro_config().post_layout_vars() < 200);
        assert!(Scale::Ci.sram_config().post_layout_vars() < 200);
    }

    #[test]
    fn missing_priors_stay_identifiable() {
        // Leave-one-out refits on K − 1 rows, which must still cover the
        // missing-prior block (see map_estimate docs): missing < K at the
        // smallest K.
        for scale in [Scale::Ci, Scale::Default] {
            let k_min = *scale.k_values().first().unwrap();
            let ro = scale.ro_config();
            let ro_missing = ro.post_layout_vars() - ro.schematic_vars();
            assert!(
                ro_missing < k_min,
                "{scale}: RO missing {ro_missing} >= smallest K {k_min}"
            );
            let sram = scale.sram_config();
            let sram_missing = sram.post_layout_vars() - sram.schematic_vars();
            assert!(
                sram_missing < k_min,
                "{scale}: SRAM missing {sram_missing} >= smallest K {k_min}"
            );
        }
    }
}
