//! Fault and attack injection for the `sentinet` sensor-network
//! error/attack detector.
//!
//! Implements every model of the paper's §3.3 as trace transformers:
//!
//! - **Faults** ([`FaultModel`]): stuck-at-value, calibration
//!   (multiplicative), additive, random-noise, plus the drift-to-stuck
//!   behaviour the paper observed on GDI sensor 6;
//! - **Attacks** ([`AttackModel`]): dynamic creation, dynamic deletion,
//!   dynamic change, and mixed — executed by an adversary who sees the
//!   honest sensors' values each step and forges readings that steer
//!   the network-observed mean, clamped to admissible ranges (§4.2).
//!
//! # Examples
//!
//! Reproduce the paper's stuck-at scenario for sensor 6:
//!
//! ```
//! use rand::SeedableRng;
//! use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
//! use sentinet_sim::{gdi, simulate, SensorId};
//!
//! let cfg = gdi::day_config();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let clean = simulate(&cfg, &mut rng);
//! let faulty = inject_faults(
//!     &clean,
//!     &[FaultInjection::from_onset(
//!         SensorId(6),
//!         FaultModel::StuckAt { value: vec![15.0, 1.0] },
//!         0,
//!     )],
//!     &cfg.ranges,
//!     &mut rng,
//! );
//! assert_eq!(faulty.len(), clean.len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod attacks;
mod corrupt;
mod faults;

pub use attacks::{first_k_sensors, inject_attacks, AttackInjection, AttackModel};
pub use corrupt::corrupt_records;
pub use faults::{inject_faults, FaultInjection, FaultModel};
