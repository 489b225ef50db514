//! # ccsim-cca — congestion control algorithms
//!
//! Faithful implementations of the three CCAs the paper studies, behind the
//! [`CongestionControl`](ccsim_tcp::CongestionControl) trait:
//!
//! * [`NewReno`](reno::NewReno) — RFC 5681/6582 AIMD with appropriate byte
//!   counting; the algorithm the Mathis model describes.
//! * [`Cubic`](cubic::Cubic) — RFC 8312 with fast convergence, the
//!   TCP-friendly region, and HyStart (Linux defaults).
//! * [`Bbr`](bbr::Bbr) — BBRv1 per Linux `tcp_bbr.c`: Startup/Drain/
//!   ProbeBW/ProbeRTT, windowed-max bandwidth filter, long-term (policer)
//!   sampling, and recovery window modulation.
//!
//! [`CcaKind`] + [`make_cca`] provide the string-keyed factory the
//! experiment harness uses to mix algorithms in one scenario.

pub mod bbr;
pub mod cubic;
pub mod reno;
pub mod util;
pub mod vegas;

pub use bbr::{Bbr, Mode as BbrMode};
pub use cubic::Cubic;
pub use reno::NewReno;
pub use util::{RoundTracker, WindowedMax};
pub use vegas::Vegas;

use ccsim_tcp::CongestionControl;

/// The CCAs available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcaKind {
    /// TCP NewReno.
    Reno,
    /// CUBIC.
    Cubic,
    /// BBRv1.
    Bbr,
    /// TCP Vegas (extension; not in the paper's grid).
    Vegas,
}

impl CcaKind {
    /// Short name matching [`CongestionControl::name`].
    pub fn name(self) -> &'static str {
        match self {
            CcaKind::Reno => "reno",
            CcaKind::Cubic => "cubic",
            CcaKind::Bbr => "bbr",
            CcaKind::Vegas => "vegas",
        }
    }
}

impl std::fmt::Display for CcaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CcaKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reno" | "newreno" => Ok(CcaKind::Reno),
            "cubic" => Ok(CcaKind::Cubic),
            "bbr" | "bbr1" | "bbrv1" => Ok(CcaKind::Bbr),
            "vegas" => Ok(CcaKind::Vegas),
            other => Err(format!("unknown CCA '{other}'")),
        }
    }
}

/// Instantiate a CCA. `seed` feeds algorithms with internal randomness
/// (BBR's ProbeBW phase selection); derive it per flow from the run's
/// deterministic RNG factory.
pub fn make_cca(kind: CcaKind, mss: u32, seed: u64) -> Box<dyn CongestionControl> {
    match kind {
        CcaKind::Reno => Box::new(NewReno::new(mss)),
        CcaKind::Cubic => Box::new(Cubic::new(mss)),
        CcaKind::Bbr => Box::new(Bbr::new(mss, seed)),
        CcaKind::Vegas => Box::new(Vegas::new(mss)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        for kind in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas] {
            let cca = make_cca(kind, 1448, 7);
            assert_eq!(cca.name(), kind.name());
            assert!(cca.cwnd() > 0);
        }
    }

    #[test]
    fn kind_parses_from_str() {
        assert_eq!("reno".parse::<CcaKind>().unwrap(), CcaKind::Reno);
        assert_eq!("NewReno".parse::<CcaKind>().unwrap(), CcaKind::Reno);
        assert_eq!("cubic".parse::<CcaKind>().unwrap(), CcaKind::Cubic);
        assert_eq!("BBRv1".parse::<CcaKind>().unwrap(), CcaKind::Bbr);
        assert_eq!("vegas".parse::<CcaKind>().unwrap(), CcaKind::Vegas);
        assert!("copa".parse::<CcaKind>().is_err());
    }

    #[test]
    fn kind_display_round_trips() {
        for kind in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas] {
            assert_eq!(kind.to_string().parse::<CcaKind>().unwrap(), kind);
        }
    }
}
