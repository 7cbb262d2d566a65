//! The federation shape both fleet workloads run: the `sentinet
//! federate` defaults (protocol v2, batch 8, flush every 32, `fsync
//! batch:64`, checkpoint every 256, one standby) over two partitions,
//! plus an optional WAL retention budget. One description feeds the
//! spawned `serve` children's flags, the in-process hosting used by
//! traced runs, and the merge replay template, so all three agree on
//! every knob that shapes a report.

use sentinet_controller::{FederationConfig, ProcessBackend, ProcessConfig, WireProtocol};
use sentinet_core::PipelineConfig;
use sentinet_gateway::{FsyncPolicy, GatewayConfig, UplinkConfig};
use std::path::{Path, PathBuf};

/// Partitions in every fleet workload (one connection per CPU on a
/// two-CPU host).
pub const PARTITIONS: usize = 2;

/// A fleet configuration.
#[derive(Debug, Clone)]
pub struct Shape {
    pub period: u64,
    pub window: u32,
    pub trim: f64,
    pub watermark: u64,
    pub fsync: &'static str,
    pub checkpoint_every: u64,
    pub standbys: usize,
    pub batch_size: usize,
    /// `(--wal-retain-bytes, --wal-segment-bytes)` for the children.
    pub retention: Option<(u64, u64)>,
}

impl Shape {
    /// The `sentinet federate` defaults with protocol v2.
    pub fn federate_defaults() -> Self {
        Self {
            period: 300,
            window: 12,
            trim: 0.15,
            watermark: 1800,
            fsync: "batch:64",
            checkpoint_every: 256,
            standbys: 1,
            batch_size: 8,
            retention: None,
        }
    }

    /// The pipeline configuration `analyze`, `serve` and `federate`
    /// build from these knobs.
    pub fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            window_samples: self.window,
            observable_trim: self.trim,
            ..Default::default()
        }
    }

    /// The report-shaping gateway configuration (the CLI's
    /// `gateway_config`): the merge replay template.
    pub fn replay_template(&self, dir: &Path) -> GatewayConfig {
        let mut config = GatewayConfig::new(dir);
        config.pipeline = self.pipeline();
        config.sample_period = self.period;
        config.reorder.watermark_delay = self.watermark;
        config
    }

    /// What `sentinet serve` builds from the flags [`Shape::serve_flags`]
    /// passes, for an owner at `epoch` over `dir`.
    pub fn serve_config(&self, dir: &Path, epoch: u64) -> GatewayConfig {
        let mut config = self.replay_template(dir);
        config.wal.fsync = FsyncPolicy::parse(self.fsync).expect("shape fsync policy is valid");
        config.silence_deadline = Some(3600);
        config.checkpoint_every = self.checkpoint_every;
        if let Some((retain, segment)) = self.retention {
            config.wal.retain_bytes = Some(retain);
            config.wal.segment_max_bytes = segment;
        }
        config.epoch = epoch;
        config
    }

    /// The flags `sentinet federate` hands its `serve` children.
    pub fn serve_flags(&self) -> Vec<String> {
        let mut flags: Vec<String> = [
            ("--period", self.period.to_string()),
            ("--window", self.window.to_string()),
            ("--trim", self.trim.to_string()),
            ("--fsync", self.fsync.to_string()),
            ("--watermark", self.watermark.to_string()),
            ("--checkpoint-every", self.checkpoint_every.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect();
        if let Some((retain, segment)) = self.retention {
            flags.extend([
                "--wal-retain-bytes".into(),
                retain.to_string(),
                "--wal-segment-bytes".into(),
                segment.to_string(),
            ]);
        }
        flags
    }

    /// The controller configuration `federate` uses.
    pub fn federation(&self) -> FederationConfig {
        FederationConfig {
            silence_deadline: 3600,
            ..FederationConfig::default()
        }
    }

    /// The uplink template `federate` uses (its flag defaults equal
    /// the library defaults).
    pub fn uplink(&self) -> UplinkConfig {
        UplinkConfig::new("")
    }

    /// A backend spawning real `sentinet serve` children from `binary`.
    pub fn process_backend(&self, binary: &Path, wal_root: &Path) -> ProcessBackend {
        ProcessBackend::new(ProcessConfig {
            binary: binary.to_path_buf(),
            wal_root: PathBuf::from(wal_root),
            standbys: self.standbys,
            protocol: WireProtocol::V2,
            serve_flags: self.serve_flags(),
            uplink: self.uplink(),
            batch_size: self.batch_size,
            kills: Vec::new(),
            replay: self.replay_template(wal_root),
        })
    }
}
